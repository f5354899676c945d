"""Seeded random instances and the scenario-grid benchmark.

Instances are generated with numpy's PCG64: the strict upper triangle is
filled row-major with Bernoulli(p) draws (probability p of a one) and
mirrored, the diagonal is set to one, and group labels are uniform over
1..k with a wholesale redraw whenever a group comes out empty.

Each grid cell derives its own sub-seed by hashing the master seed with
the cell coordinates, so cells are independent and the grid can be run in
any order. The hash covers (n, k, p-index, repetition) but deliberately
not m_bar: cells differing only in m_bar share the instance, which is
what makes selected counts comparable across m_bar.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from io import StringIO
from pathlib import Path
from statistics import mean
from typing import Sequence

import numpy as np

from .matrix import Grouping, SymmetricMatrix, build_zero_pattern
from .search import select_maxima

__all__ = [
    "ScenarioConfig",
    "ScenarioRecord",
    "ScenarioReport",
    "mix64",
    "generate_bernoulli_matrix",
    "random_grouping",
    "run_scenario_grid",
]

_MASK64 = (1 << 64) - 1
_GROUPING_DRAWS = 1000


def mix64(*values: int) -> int:
    """Stable 64-bit hash of an integer tuple (splitmix64 finalizer chain)."""
    acc = 0x9E3779B97F4A7C15
    for v in values:
        acc = (acc ^ (int(v) & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        acc = (acc ^ (acc >> 27)) * 0x94D049BB133111EB & _MASK64
        acc ^= acc >> 31
    return acc


@dataclass(frozen=True)
class ScenarioConfig:
    """Grid axes, master seed, and repetition count for a benchmark run."""

    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    m_bar_values: tuple[int, ...]
    p_values: tuple[float, ...]
    seed: int = 0
    repetitions: int = 1

    def __post_init__(self) -> None:
        for name in ("n_values", "k_values", "m_bar_values", "p_values"):
            values = getattr(self, name)
            object.__setattr__(self, name, tuple(values))
            if not getattr(self, name):
                raise ValueError(f"{name}: empty grid list")
        if any(n < 1 for n in self.n_values):
            raise ValueError(f"n outside [1, inf): {self.n_values}")
        if any(k < 2 for k in self.k_values):
            raise ValueError(f"k must be >= 2: {self.k_values}")
        if any(m < 1 for m in self.m_bar_values):
            raise ValueError(f"m_bar must be >= 1: {self.m_bar_values}")
        for p in self.p_values:
            if not 0.0 < p < 1.0:
                raise ValueError(f"p outside (0,1): {p}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


@dataclass(frozen=True)
class ScenarioRecord:
    """Outcome of one grid cell repetition.

    ``maxima`` holds the selected unit per group (None when not found)
    and ``seed`` the instance sub-seed; ``elapsed_seconds`` covers the
    search only, not instance generation.
    """

    n: int
    k: int
    m_bar: int
    p: float
    repetition: int
    seed: int
    maxima: tuple[int | None, ...]
    counts: tuple[int, ...]
    candidate_lengths: tuple[int, ...]
    elapsed_seconds: float


@dataclass(frozen=True)
class ScenarioReport:
    config: ScenarioConfig
    records: tuple[ScenarioRecord, ...]

    def to_csv_text(self) -> str:
        """One row per cell repetition; maxima are 1-based, '-' marks not-found.

        The columns are ``ScenarioRecord``'s fields in order, timing last.
        """
        out = StringIO()
        out.write(",".join(f.name for f in fields(ScenarioRecord)) + "\n")
        for r in self.records:
            maxima = ";".join("-" if u is None else str(u + 1) for u in r.maxima)
            counts = ";".join(str(c) for c in r.counts)
            lengths = ";".join(str(c) for c in r.candidate_lengths)
            out.write(
                f"{r.n},{r.k},{r.m_bar},{r.p!r},{r.repetition},{r.seed},"
                f"{maxima},{counts},{lengths},{r.elapsed_seconds!r}\n"
            )
        return out.getvalue()

    def to_markdown(self) -> str:
        """Mean search time per cell, one table per p value.

        Cell text shows the first repetition's maxima (1-based) with the
        mean elapsed seconds in brackets.
        """
        cfg = self.config
        by_cell: dict[tuple, list[ScenarioRecord]] = {}
        for r in self.records:
            by_cell.setdefault((r.n, r.k, r.m_bar, r.p), []).append(r)
        lines = ["# Mean search times by grid cell", ""]
        for p in cfg.p_values:
            lines.append(f"## p = {p!r}")
            lines.append("")
            header = ["N", "m_bar"] + [f"K={k}" for k in cfg.k_values]
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            for n in cfg.n_values:
                for m_bar in cfg.m_bar_values:
                    row = [str(n), str(m_bar)]
                    for k in cfg.k_values:
                        cell = by_cell[(n, k, m_bar, p)]
                        first = cell[0]
                        shown = ", ".join(
                            "-" if u is None else str(u + 1) for u in first.maxima
                        )
                        avg = mean(r.elapsed_seconds for r in cell)
                        row.append(f"{shown} ({avg:.4g})")
                    lines.append("| " + " | ".join(row) + " |")
            lines.append("")
        return "\n".join(lines)

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "grid.csv"
        md_path = out / "grid.md"
        csv_path.write_text(self.to_csv_text())
        md_path.write_text(self.to_markdown())
        return csv_path, md_path


def generate_bernoulli_matrix(n: int, p: float, seed: int) -> SymmetricMatrix:
    """Symmetric n-by-n 0/1 matrix with ones diagonal.

    Strict-upper-triangle entries are one with probability ``p``, drawn
    row-major from PCG64 seeded with ``seed`` and mirrored below.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p outside (0,1): {p}")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.random(n * (n - 1) // 2)
    a = np.ones((n, n))
    upper = np.triu_indices(n, k=1)  # row-major order
    a[upper] = (draws < p).astype(float)
    a.T[upper] = a[upper]
    return SymmetricMatrix(a)


def random_grouping(n: int, k: int, seed: int) -> Grouping:
    """Uniform group labels over 1..k, redrawn wholesale while any group
    is empty (at most ``_GROUPING_DRAWS`` times)."""
    if k > n:
        raise ValueError(f"cannot split {n} units into {k} nonempty groups")
    if k < 2:
        raise ValueError(f"need at least 2 groups, got k={k}")
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(_GROUPING_DRAWS):
        labels = rng.integers(0, k, size=n)
        if len(np.unique(labels)) == k:
            return Grouping(labels, k)
    raise ValueError(
        f"no nonempty grouping of {n} units into {k} groups after {_GROUPING_DRAWS} draws"
    )


def instance_for_cell(
    cfg: ScenarioConfig, n: int, k: int, p_index: int, repetition: int
) -> tuple[int, SymmetricMatrix, Grouping]:
    """Instance sub-seed plus the matrix and grouping it generates."""
    cell_seed = mix64(cfg.seed, n, k, p_index, repetition)
    matrix = generate_bernoulli_matrix(n, cfg.p_values[p_index], mix64(cell_seed, 0))
    grouping = random_grouping(n, k, mix64(cell_seed, 1))
    return cell_seed, matrix, grouping


def run_scenario_grid(cfg: ScenarioConfig) -> ScenarioReport:
    """Run the search on every (n, k, m_bar, p) cell and repetition.

    Records appear in nested loop order n, k, m_bar, p, repetition. Each
    instance and its zero pattern are built once and searched at every
    m_bar. A not-found group is recorded, never raised. Timing wraps the
    search call only.
    """
    records = []
    for n in cfg.n_values:
        for k in cfg.k_values:
            instances = []
            for p_index, p in enumerate(cfg.p_values):
                for rep in range(cfg.repetitions):
                    seed, matrix, grouping = instance_for_cell(cfg, n, k, p_index, rep)
                    instances.append((p, rep, seed, build_zero_pattern(matrix), grouping))
            for m_bar in cfg.m_bar_values:
                for p, rep, seed, pattern, grouping in instances:
                    start = time.perf_counter()
                    outcomes = select_maxima(pattern, grouping, m_bar).outcomes
                    elapsed = time.perf_counter() - start
                    records.append(
                        ScenarioRecord(
                            n=n,
                            k=k,
                            m_bar=m_bar,
                            p=p,
                            repetition=rep,
                            seed=seed,
                            maxima=tuple(o.selected for o in outcomes),
                            counts=tuple(o.count for o in outcomes),
                            candidate_lengths=tuple(len(o.examined) for o in outcomes),
                            elapsed_seconds=elapsed,
                        )
                    )
    return ScenarioReport(config=cfg, records=tuple(records))
