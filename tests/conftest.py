import numpy as np
import pytest

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
