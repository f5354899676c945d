"""Pivotal-unit search in sparse symmetric matrices.

Given a symmetric matrix with a non-negligible number of zeros and a
partition of its units into k groups, find the unit of each group that
participates in the greatest number of k-by-k identity submatrices
(one unit per group, all off-diagonal entries zero).

The public names load their submodule, and with it numpy, on first use,
so ``import musearch`` alone loads no numpy. That lets the command line
(``musearch.cli``) set numpy's BLAS thread count before numpy starts.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    "SymmetricMatrix": "matrix",
    "ZeroPattern": "matrix",
    "Grouping": "matrix",
    "Tolerance": "matrix",
    "build_zero_pattern": "matrix",
    "zeros_toward_other_groups": "matrix",
    "Candidate": "search",
    "CandidateSet": "search",
    "PartnerGroups": "search",
    "GroupOutcome": "search",
    "PivotResult": "search",
    "select_candidates": "search",
    "group_partners": "search",
    "count_identity_submatrices": "search",
    "select_maxima": "search",
    "verify_identity": "search",
    "OracleReport": "oracle",
    "oracle_count": "oracle",
    "oracle_maxima": "oracle",
    "ScenarioConfig": "simulation",
    "ScenarioRecord": "simulation",
    "ScenarioReport": "simulation",
    "generate_bernoulli_matrix": "simulation",
    "random_grouping": "simulation",
    "run_scenario_grid": "simulation",
}

__all__ = [*_EXPORTS, "__version__"]

# submodules reachable as attributes of the package, as ``musearch.search``
_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
