"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines alongside the pytest report.
"""

import functools
import gc
import itertools
import time

import numpy as np
import pytest

from musearch.cli import main
from musearch.fixtures import extract, load
from musearch.matrix import (
    Grouping,
    SymmetricMatrix,
    build_zero_pattern,
)
from musearch.oracle import oracle_count, oracle_maxima
from musearch.search import (
    group_partners,
    select_candidates,
    select_maxima,
    verify_identity,
)
from musearch.simulation import ScenarioConfig, run_scenario_grid

from conftest import candidate_units, permute_instance, random_instance, strip_timing


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {number}. {name}: FAIL")
                raise
            print(f"[acceptance] {number}. {name}: PASS")

        return wrapper

    return decorate


@criterion(1, "tennis reproduction")
def test_tennis_reproduction(tennis):
    start = time.perf_counter()
    pattern, grouping = tennis
    candidates = select_candidates(pattern, grouping, 3)
    result = select_maxima(pattern, grouping, 3)
    assert result.maxima == (5, 7)  # units 6 and 8
    assert result.outcomes[0].count == 3
    assert result.outcomes[1].count == 5
    assert {5, 6} <= set(candidate_units(candidates, 0))  # units 6 and 7
    assert candidate_units(candidates, 1)[0] == 7  # unit 8 ranked first
    assert time.perf_counter() - start < 1.0


@criterion(2, "9x9 worked example reproduction")
def test_fig1_reproduction(fig1):
    start = time.perf_counter()
    pattern, grouping = fig1
    candidates = select_candidates(pattern, grouping, 2)
    assert set(candidate_units(candidates, 0)) == {1, 2}  # units 2, 3
    assert set(candidate_units(candidates, 1)) == {3, 5}  # units 4, 6
    assert set(candidate_units(candidates, 2)) == {7, 8}  # units 8, 9
    result = select_maxima(pattern, grouping, 2)
    counts = {u: m for o in result.outcomes for u, m in o.examined}
    assert counts == {1: 3, 2: 3, 3: 2, 5: 6, 7: 3, 8: 5}
    assert result.maxima == (1, 5, 8)  # tie in group 1 resolved to unit 2
    assert verify_identity(pattern, (1, 5, 8), grouping)
    assert time.perf_counter() - start < 1.0


@criterion(3, "oracle equivalence on random instances")
def test_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    n_caps = {2: 60, 3: 45, 4: 32}
    instances = 0
    while instances < 210:
        k = int(rng.choice((2, 3, 4)))
        n = int(rng.integers(2 * k + 2, n_caps[k] + 1))
        p = float(rng.choice((0.2, 0.5, 0.8)))
        seed = int(rng.integers(0, 2**62))
        pattern, grouping = random_instance(seed, n, k, p)
        report = oracle_maxima(pattern, grouping)

        full = select_maxima(pattern, grouping, max(grouping.sizes))
        for g in range(grouping.k):
            outcome = full.outcomes[g]
            if outcome.found:
                assert outcome.selected in report.argmax_by_group[g]
                assert outcome.count == report.max_by_group[g]
            else:
                assert report.max_by_group[g] == 0
            for unit, count in outcome.examined:
                assert count == report.counts[unit]

        for m_bar in (1, 2):
            partial = select_maxima(pattern, grouping, m_bar)
            for outcome in partial.outcomes:
                for unit, count in outcome.examined:
                    assert count == oracle_count(pattern, grouping, unit)
        instances += 1
    assert instances >= 200


@criterion(4, "selected counts monotone in the candidate budget")
def test_m_bar_monotonicity():
    rng = np.random.default_rng(573200)
    budgets = (1, 5, 10, 20)
    for _ in range(50):
        k = int(rng.choice((2, 3, 4)))
        n = int(rng.integers(4 * k, 80))
        p = float(rng.choice((0.2, 0.5, 0.8)))
        seed = int(rng.integers(0, 2**62))
        pattern, grouping = random_instance(seed, n, k, p)
        per_budget = [select_maxima(pattern, grouping, m) for m in budgets]
        candidate_sets = [select_candidates(pattern, grouping, m) for m in budgets]
        for g in range(grouping.k):
            counts = [r.outcomes[g].count for r in per_budget]
            assert counts == sorted(counts)
            for smaller, larger in itertools.pairwise(candidate_sets):
                prefix = larger.per_group[g][: smaller.m_bar]
                assert prefix == smaller.per_group[g]


@criterion(5, "search time grows with the group count")
def test_timing_trend_across_k():
    cfg = ScenarioConfig(
        n_values=(100, 500),
        k_values=(2, 3, 4),
        m_bar_values=(5,),
        p_values=(0.2,),
        seed=91,
        repetitions=3,
    )
    # warm the interpreter so cold-start cost does not land on the first cell
    warmup = ScenarioConfig(
        n_values=(50,), k_values=(2, 3, 4), m_bar_values=(5,), p_values=(0.2,), seed=1
    )
    run_scenario_grid(warmup)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        report = run_scenario_grid(cfg)
    finally:
        if gc_was_enabled:
            gc.enable()
    means = {}
    for r in report.records:
        means.setdefault((r.n, r.k), []).append(r.elapsed_seconds)
    for n in cfg.n_values:
        t2, t3, t4 = (
            sum(means[(n, k)]) / len(means[(n, k)]) for k in (2, 3, 4)
        )
        assert t4 > t3 > t2, f"N={n}: expected t(K=4) > t(K=3) > t(K=2), got {t2}, {t3}, {t4}"


@criterion(6, "group without cross-group zeros reports not-found")
def test_not_found_handling(tmp_path, capsys):
    # all ones, except a zero inside group 2 and one crossing groups 2-3:
    # group 1 has no cross-group zeros at all
    a = np.ones((6, 6))
    a[2, 3] = a[3, 2] = 0.0
    a[3, 4] = a[4, 3] = 0.0
    grouping = Grouping([0, 0, 1, 1, 2, 2], 3)
    pattern = build_zero_pattern(SymmetricMatrix(a))
    result = select_maxima(pattern, grouping, 5)
    assert not result.outcomes[0].found
    assert result.outcomes[0].examined == ()

    matrix_path = tmp_path / "m.csv"
    matrix_path.write_text("\n".join(",".join(str(int(v)) for v in row) for row in a) + "\n")
    groups_path = tmp_path / "g.csv"
    groups_path.write_text("1,1\n2,1\n3,2\n4,2\n5,3\n6,3\n")
    rc = main(["run", "--matrix", str(matrix_path), "--groups", str(groups_path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "group 1: no pivotal unit  [not-found]" in out


@criterion(7, "simulation reports are deterministic up to timings")
def test_simulate_determinism(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text(
        "n = 30, 40\nk = 2, 3\nm_bar = 1, 5\np = 0.2, 0.8\nseed = 7\nrepetitions = 2\n"
    )
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        rc = main(["simulate", "--config", str(config), "--out-dir", str(d)])
        assert rc == 0
    capsys.readouterr()
    first = (dirs[0] / "grid.csv").read_text()
    second = (dirs[1] / "grid.csv").read_text()
    assert strip_timing(first) == strip_timing(second)


@criterion(8, "structural invariants on random instances")
def test_invariant_suite():
    rng = np.random.default_rng(48151623)
    for _ in range(100):
        # zero-pattern symmetry
        n = int(rng.integers(6, 30))
        k = int(rng.choice((2, 3, 4)))
        p = float(rng.choice((0.2, 0.5, 0.8)))
        seed = int(rng.integers(0, 2**62))
        pattern, grouping = random_instance(seed, n, k, p)
        for i in range(pattern.n):
            for j in pattern.partners(i):
                assert pattern.has_zero(j, i)

        # permutation equivariance at full budget
        order = list(range(n))
        rng.shuffle(order)
        moved_pattern, moved_grouping, position = permute_instance(
            pattern, grouping, order
        )
        budget = max(grouping.sizes)
        base = select_maxima(pattern, grouping, budget)
        moved = select_maxima(moved_pattern, moved_grouping, budget)
        for g in range(grouping.k):
            a, b = base.outcomes[g], moved.outcomes[g]
            assert a.count == b.count
            assert sorted(m for _, m in a.examined) == sorted(m for _, m in b.examined)
            if a.found:
                best = {position[u] for u, m in a.examined if m == a.count}
                assert b.selected in best
                if len(best) == 1:
                    assert b.selected == position[a.selected]

        # two-group count equals the partner-set size
        pattern2, grouping2 = random_instance(seed + 17, n, 2, p)
        result2 = select_maxima(pattern2, grouping2, max(grouping2.sizes))
        for outcome in result2.outcomes:
            for unit, count in outcome.examined:
                partners = group_partners(pattern2, grouping2, unit)
                (members,) = partners.members_by_group.values()
                assert count == len(members)

        # binarization monotone in epsilon
        vals = rng.random((n, n)) * rng.integers(0, 2, size=(n, n))
        sym = SymmetricMatrix(np.triu(vals) + np.triu(vals, 1).T)
        lo, hi = sorted(rng.random(2) * 0.5)
        tight = build_zero_pattern(sym, float(lo))
        loose = build_zero_pattern(sym, float(hi))
        for i in range(sym.n):
            assert not (tight.array[i] & ~loose.array[i]).any()
