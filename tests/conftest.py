import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import musearch
from musearch.fixtures import load
from musearch.matrix import build_zero_pattern
from musearch.simulation import generate_bernoulli_matrix, random_grouping


@pytest.fixture(scope="session")
def fig1():
    matrix, grouping = load("fig1")
    return build_zero_pattern(matrix), grouping


@pytest.fixture(scope="session")
def tennis():
    matrix, grouping = load("tennis")
    return build_zero_pattern(matrix), grouping


# unit counts on both sides of a 64-bit word boundary of the packed zero rows
WORD_EDGES = [1, 2, 63, 64, 65, 127, 129, 200]


def random_instance(seed: int, n: int, k: int, p: float):
    """Seeded instance helper shared by the randomized suites."""
    matrix = generate_bernoulli_matrix(n, p, seed)
    grouping = random_grouping(n, k, seed + 1)
    return build_zero_pattern(matrix), grouping


def permute_instance(pattern, grouping, order):
    """Relabel units so that new unit i is old unit order[i]."""
    from musearch.matrix import Grouping, ZeroPattern

    n = pattern.n
    position = {old: new for new, old in enumerate(order)}
    zero = np.zeros((n, n), dtype=bool)
    for new in range(n):
        for old_partner in pattern.partners(order[new]):
            zero[new, position[old_partner]] = True
    labels = [grouping.label(order[new]) for new in range(n)]
    return ZeroPattern(zero), Grouping(labels, grouping.k), position


def strip_timing(csv_text: str) -> str:
    """Drop the elapsed_seconds column (always last) from a report CSV."""
    lines = csv_text.splitlines()
    return "\n".join(line.rsplit(",", 1)[0] for line in lines)


np.seterr(all="warn")


def fresh_python(args: list[str], timeout: float = 60, **env: str | None):
    """``python *args`` in a new process that imports this package, with
    its output captured; each ``env`` item sets a variable, or unsets it
    when None. A process still running after ``timeout`` seconds is killed
    and raises ``subprocess.TimeoutExpired``."""
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(musearch.__file__).parents[1]), environ.get("PYTHONPATH")])
    )
    for name, value in env.items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    return subprocess.run(
        [sys.executable, *args], env=environ, capture_output=True, text=True,
        timeout=timeout,
    )


def run_fresh_python(code: str, **env: str | None) -> str:
    """Stdout of ``python -c code`` in a new process (see ``fresh_python``);
    a non-zero exit raises."""
    done = fresh_python(["-c", code], **env)
    done.check_returncode()
    return done.stdout
