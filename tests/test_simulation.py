import hashlib

import numpy as np
import pytest

from musearch import simulation
from musearch.matrix import build_zero_pattern
from musearch.simulation import (
    ScenarioConfig,
    generate_bernoulli_matrix,
    mix64,
    random_grouping,
    run_scenario_grid,
)

from conftest import strip_timing


def test_bernoulli_matrix_is_symmetric_with_ones_diagonal():
    m = generate_bernoulli_matrix(30, 0.5, seed=7)
    a = m.to_array()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 1.0)
    assert set(np.unique(a)) <= {0.0, 1.0}


def test_bernoulli_matrix_deterministic():
    a = generate_bernoulli_matrix(40, 0.3, seed=11).to_array()
    b = generate_bernoulli_matrix(40, 0.3, seed=11).to_array()
    c = generate_bernoulli_matrix(40, 0.3, seed=12).to_array()
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bernoulli_ones_fraction_near_p():
    # 19900 upper-triangle draws at p=0.5: 3 sigma is about 0.0106
    m = generate_bernoulli_matrix(200, 0.5, seed=123)
    upper = m.to_array()[np.triu_indices(200, k=1)]
    assert abs(upper.mean() - 0.5) < 0.03


def test_bernoulli_near_one_limit():
    m = generate_bernoulli_matrix(5, 0.999999, seed=99)
    assert np.all(m.to_array() == 1.0)


def test_bernoulli_rejects_bad_p():
    for p in (0.0, 1.0, 1.2, -0.1):
        with pytest.raises(ValueError, match="p outside"):
            generate_bernoulli_matrix(10, p, seed=0)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        generate_bernoulli_matrix(0, 0.5, seed=0)


def test_random_grouping_sizes_near_uniform():
    g = random_grouping(1000, 4, seed=5)
    assert g.k == 4
    for size in g.sizes:
        assert abs(size - 250) <= 55  # 4 sigma, sigma ~ 13.7


def test_random_grouping_small_instances():
    g = random_grouping(3, 3, seed=17)
    assert sorted(g.labels) == [0, 1, 2]
    with pytest.raises(ValueError, match="nonempty"):
        random_grouping(2, 3, seed=17)
    with pytest.raises(ValueError, match="need at least 2 groups, got k=1"):
        random_grouping(3, 1, seed=17)


def test_random_grouping_gives_up_after_its_draws(monkeypatch):
    # a draw of 3 units fills all 3 groups with probability 6/27, and the
    # first two draws at seed 17 leave a group empty
    monkeypatch.setattr(simulation, "_GROUPING_DRAWS", 2)
    message = "no nonempty grouping of 3 units into 3 groups after 2 draws"
    with pytest.raises(ValueError, match=message):
        random_grouping(3, 3, seed=17)


def test_random_grouping_deterministic():
    a = random_grouping(50, 3, seed=21)
    b = random_grouping(50, 3, seed=21)
    assert np.array_equal(a.labels, b.labels)


def test_mix64_is_stable_and_spreads():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert mix64(1, 2, 3) != mix64(1, 3, 2)
    assert mix64(0) != mix64(1)
    assert 0 <= mix64(2**63, 12345) < 2**64


def test_scenario_config_validation():
    good = dict(
        n_values=(20,), k_values=(2,), m_bar_values=(1,), p_values=(0.5,)
    )
    ScenarioConfig(**good)
    with pytest.raises(ValueError, match="empty grid list"):
        ScenarioConfig(**{**good, "n_values": ()})
    with pytest.raises(ValueError, match="p outside"):
        ScenarioConfig(**{**good, "p_values": (1.2,)})
    with pytest.raises(ValueError, match="k must be"):
        ScenarioConfig(**{**good, "k_values": (1,)})
    with pytest.raises(ValueError, match="repetitions"):
        ScenarioConfig(**good, repetitions=0)
    with pytest.raises(ValueError, match=r"n outside \[1, inf\): \(0,\)"):
        ScenarioConfig(**{**good, "n_values": (0,)})
    with pytest.raises(ValueError, match=r"m_bar must be >= 1: \(0,\)"):
        ScenarioConfig(**{**good, "m_bar_values": (0,)})
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"seed must fit in 64 bits, got {seed}"):
            ScenarioConfig(**good, seed=seed)
    ScenarioConfig(**good, seed=2**64 - 1)
    # a value listed twice would fill one grid cell with two runs
    for name, values, shown in [
        ("p_values", (0.5, 0.5), "0.5"),
        ("n_values", (12, 20, 12), "12"),
        ("k_values", [2, 3, 3], "3"),
        ("m_bar_values", (1, 2, 1, 2), "1"),
    ]:
        with pytest.raises(ValueError, match=f"^{name}: {shown} listed twice$"):
            ScenarioConfig(**{**good, name: values})
    with pytest.raises(ValueError, match="^grid.cfg: p_values: 0.5 listed twice$"):
        ScenarioConfig.parse("n = 12\nk = 2\nm_bar = 1\np = 0.5, 0.50\n", source="grid.cfg")


def small_config(**overrides):
    base = dict(
        n_values=(30, 50),
        k_values=(2, 3),
        m_bar_values=(1, 3),
        p_values=(0.5,),
        seed=42,
        repetitions=2,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_grid_shape_and_order():
    cfg = small_config()
    report = run_scenario_grid(cfg)
    assert len(report.records) == 2 * 2 * 2 * 1 * 2
    coords = [(r.n, r.k, r.m_bar, r.p, r.repetition) for r in report.records]
    assert coords == sorted(coords, key=lambda c: (c[0], c[1], c[2], c[4]))
    for r in report.records:
        assert r.elapsed_seconds >= 0
        assert len(r.maxima) == r.k
        assert len(r.counts) == r.k
        assert len(r.candidate_lengths) == r.k


def test_grid_determinism_up_to_timing():
    cfg = small_config()
    a = run_scenario_grid(cfg).to_csv_text()
    b = run_scenario_grid(cfg).to_csv_text()
    assert strip_timing(a) == strip_timing(b)


def test_same_instance_across_m_bar():
    # cells that differ only in m_bar share the instance sub-seed
    report = run_scenario_grid(small_config())
    seeds = {}
    for r in report.records:
        key = (r.n, r.k, r.p, r.repetition)
        seeds.setdefault(key, set()).add(r.seed)
    assert all(len(s) == 1 for s in seeds.values())


def test_grid_builds_each_instance_once_and_keeps_its_csv(monkeypatch):
    # the digest is of the CSV that the grid gave when it generated each
    # instance anew for every m_bar cell
    cfg = ScenarioConfig(
        n_values=(24, 40),
        k_values=(2, 3),
        m_bar_values=(1, 2, 4),
        p_values=(0.3, 0.6),
        seed=7,
        repetitions=2,
    )
    calls = []
    build = simulation.instance_for_cell
    monkeypatch.setattr(
        simulation, "instance_for_cell", lambda *args: calls.append(args[1:]) or build(*args)
    )
    csv_text = run_scenario_grid(cfg).to_csv_text()
    assert hashlib.sha256(strip_timing(csv_text).encode()).hexdigest() == (
        "305bc5a3291c95bc86414092d01965b4e38d671b46ade1e438f6c7ecc69bacb4"
    )
    assert sorted(calls) == [
        (n, k, p_index, rep)
        for n in cfg.n_values
        for k in cfg.k_values
        for p_index in range(len(cfg.p_values))
        for rep in range(cfg.repetitions)
    ]


def test_selected_counts_non_decreasing_across_m_bar():
    cfg = small_config(n_values=(40,), k_values=(2, 3), m_bar_values=(1, 3, 6))
    report = run_scenario_grid(cfg)
    cells = {}
    for r in report.records:
        cells.setdefault((r.n, r.k, r.p, r.repetition), []).append(r)
    for records in cells.values():
        records.sort(key=lambda r: r.m_bar)
        for group in range(records[0].k):
            counts = [r.counts[group] for r in records]
            assert counts == sorted(counts)


def test_denser_zero_structure_gives_larger_counts():
    sparse_zeros = run_scenario_grid(small_config(p_values=(0.8,), repetitions=3))
    many_zeros = run_scenario_grid(small_config(p_values=(0.2,), repetitions=3))

    def mean_found(report):
        counts = [c for r in report.records for c in r.counts if c > 0]
        return sum(counts) / len(counts)

    assert mean_found(many_zeros) >= mean_found(sparse_zeros)


def test_not_found_rendered_as_dash():
    # K=3 with a single candidate at very low zero density: at this seed
    # every repetition fails, and the grid records rather than aborts
    cfg = small_config(n_values=(12,), k_values=(3,), m_bar_values=(1,), p_values=(0.9,), repetitions=4)
    report = run_scenario_grid(cfg)
    not_found = [r for r in report.records if any(u is None for u in r.maxima)]
    assert not_found
    assert all(c == 0 for r in not_found for c in r.counts if None in r.maxima)
    csv_lines = report.to_csv_text().splitlines()[1:]
    assert any("-" in line.split(",")[6] for line in csv_lines)
    assert "## p = 0.9" in report.to_markdown()


def test_small_cell_completes_quickly():
    cfg = small_config(
        n_values=(100,), k_values=(2,), m_bar_values=(5,), p_values=(0.8,), repetitions=1
    )
    report = run_scenario_grid(cfg)
    (record,) = report.records
    assert record.elapsed_seconds < 1.0


def test_markdown_layout():
    report = run_scenario_grid(small_config())
    md = report.to_markdown()
    assert "## p = 0.5" in md
    assert "| N | m_bar | K=2 | K=3 |" in md
    # one row per (N, m_bar) pair
    assert md.count("\n| 30 |") == 2
    assert md.count("\n| 50 |") == 2
