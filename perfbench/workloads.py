"""Seeded benchmark workloads and their input files.

Inputs are made here, from numpy's PCG64 seeded with the workload seed,
and never through ``musearch.simulation`` or ``musearch.fileio``: a change
to those modules must not be able to change what is measured. The
instances are Bernoulli matrices as in the paper's grid: the strict upper
triangle holds ones with probability p, the matrix is mirrored, the
diagonal is one, and each unit gets a uniform group label in 1..k (redrawn
whole if a group comes out empty).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    p: float
    m_bar: int
    fmt: str  # "dense" (CSV) or "triplets"


# why each was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-k3", n=2000, k=3, p=0.2, m_bar=20, fmt="dense"),
        Workload("dense-k4", n=1000, k=4, p=0.2, m_bar=20, fmt="dense"),
        Workload("sparse-k5", n=1000, k=5, p=0.5, m_bar=2, fmt="triplets"),
    )
}


@dataclass(frozen=True)
class Instance:
    ones: np.ndarray  # n-by-n bool, True where the matrix entry is one
    labels: np.ndarray  # 0-based group label per unit
    matrix_text: bytes
    groups_text: bytes


def generate(workload: Workload, seed: int) -> Instance:
    rng = np.random.Generator(np.random.PCG64(seed))
    n, k = workload.n, workload.k
    upper = np.triu(rng.random((n, n)) < workload.p, 1)
    ones = upper | upper.T
    np.fill_diagonal(ones, True)
    labels = rng.integers(0, k, size=n)
    while np.unique(labels).size < k:
        labels = rng.integers(0, k, size=n)
    if workload.fmt == "dense":
        matrix_text = _dense_csv(ones)
    else:
        matrix_text = _triplets(ones)
    groups_text = "".join(f"{u + 1},{g + 1}\n" for u, g in enumerate(labels.tolist()))
    return Instance(ones, labels, matrix_text, groups_text.encode())


def _dense_csv(ones: np.ndarray) -> bytes:
    # every field is "1.0" or "0.0", as repr(float) writes them
    n = ones.shape[0]
    cells = np.empty((n, n, 4), dtype=np.uint8)
    cells[:, :, 0] = np.where(ones, ord("1"), ord("0"))
    cells[:, :, 1] = ord(".")
    cells[:, :, 2] = ord("0")
    cells[:, :, 3] = ord(",")
    cells[:, -1, 3] = ord("\n")
    return cells.tobytes()


def _triplets(ones: np.ndarray) -> bytes:
    # each one in the upper triangle once, diagonal included so that the
    # largest index, and hence n, is always present
    rows, cols = np.nonzero(np.triu(ones))
    return "".join(
        f"{i} {j} 1\n" for i, j in zip((rows + 1).tolist(), (cols + 1).tolist())
    ).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write(instance: Instance, directory: Path, fmt: str) -> tuple[Path, Path]:
    """Write the instance's matrix and grouping files into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    matrix = directory / ("matrix.csv" if fmt == "dense" else "matrix.txt")
    groups = directory / "groups.csv"
    matrix.write_bytes(instance.matrix_text)
    groups.write_bytes(instance.groups_text)
    return matrix, groups
