"""Bundled example datasets.

``fig1`` is a 9-by-9 binary matrix whose units fall into three groups of
three; it is small enough to check every count by hand. ``tennis`` holds
co-occurrence counts of eight game features over the top-five player
rankings of the Wimbledon 2016 extra statistics, split into an
attack-skill group (features 3,4,5,6,7) and a defence-skill group
(features 1,2,8).
"""

from __future__ import annotations

from pathlib import Path

from .fileio import parse_grouping_text, parse_matrix_text
from .matrix import Grouping, SymmetricMatrix

__all__ = ["FIXTURES", "load", "extract"]

_FIG1_MATRIX = """\
1,1,1,1,1,0,1,0,0
1,1,0,0,1,0,1,0,0
1,0,1,0,1,0,1,0,0
1,0,0,1,1,0,1,1,0
1,1,1,1,1,1,1,0,1
0,0,0,0,1,1,1,0,0
1,1,1,1,1,1,1,0,1
0,0,0,1,0,0,0,1,0
0,0,0,0,1,0,1,0,1
"""

_FIG1_GROUPS = """\
1,1
2,1
3,1
4,2
5,2
6,2
7,3
8,3
9,3
"""

_TENNIS_MATRIX = """\
1,5,3,1,3,0,0,0
5,1,2,1,2,0,0,0
3,2,1,0,1,0,0,0
1,1,0,1,2,0,0,0
3,2,1,2,1,0,0,0
0,0,0,0,0,1,0,0
0,0,0,0,0,0,1,0
0,0,0,0,0,0,0,1
"""

_TENNIS_GROUPS = """\
1,2
2,2
3,1
4,1
5,1
6,1
7,1
8,2
"""


# name: (description, matrix CSV, grouping CSV)
FIXTURES = {
    "fig1": ("9x9 binary matrix, three groups of three units", _FIG1_MATRIX, _FIG1_GROUPS),
    "tennis": (
        "8x8 game-feature co-occurrence counts (Wimbledon 2016), two groups",
        _TENNIS_MATRIX,
        _TENNIS_GROUPS,
    ),
}


def _texts(name: str) -> tuple[str, str]:
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    return FIXTURES[name][1:]


def load(name: str) -> tuple[SymmetricMatrix, Grouping]:
    matrix_csv, groups_csv = _texts(name)
    matrix = parse_matrix_text(matrix_csv, source=f"{name}.csv")
    return matrix, parse_grouping_text(groups_csv, source=f"{name}_groups.csv")


def extract(name: str, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``<name>.csv`` and ``<name>_groups.csv`` into ``out_dir``."""
    matrix_csv, groups_csv = _texts(name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    matrix_path = out / f"{name}.csv"
    groups_path = out / f"{name}_groups.csv"
    matrix_path.write_text(matrix_csv)
    groups_path.write_text(groups_csv)
    return matrix_path, groups_path
