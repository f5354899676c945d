"""Smoke test of the benchmark on tiny instances of each workload.

Run from the repository root: ``python -m pytest -q perfbench/test_smoke.py``
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import layers
import reference
import run
import workloads

TINY = [
    dataclasses.replace(w, name=w.name + "-smoke", n=60 * w.k, m_bar=min(w.m_bar, 3))
    for w in workloads.WORKLOADS.values()
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_end_to_end_checks_every_call(workload):
    metrics, calls, detail = run.end_to_end(workload, seed=3, seconds=0.5, deadline=time.perf_counter() + 120)
    assert len(calls) >= run.MIN_PAIRS and all(c.ok for c in calls), [c.why for c in calls]
    assert len(detail["reference_s"]) == len(calls) + 1
    assert set(metrics) == {"run_s", "run_cpu_s", "peak_rss_mb", "setup_s"}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_adds_up(workload):
    inputs = run.make_inputs(workload, seed=3)
    metrics, attempted, failed, detail = layers.traced(workload, inputs, 0.5, str(run.SRC), run.child_env())
    assert attempted >= 3 and failed == 0
    assert detail["missing"] == []
    assert metrics["search.select_candidates_calls"] == (2, "count")
    assert set(metrics) == set(layers.UNITS)
    for call in detail["per_call"]:
        layer_sum = sum(call[m] for m in layers.SELF_TIME.values())
        assert layer_sum == pytest.approx(call["trace.main_s"], rel=1e-9, abs=1e-12)


def test_removed_function_is_reported_missing(monkeypatch):
    workload = TINY[0]
    monkeypatch.setattr(
        layers, "SITES", layers.SITES + (("musearch.search", "removed_helper", "search.removed_helper"),)
    )
    monkeypatch.setitem(layers.SELF_TIME, "search.removed_helper", "search.removed_helper_s")
    monkeypatch.setitem(layers.UNITS, "search.removed_helper_s", "s")
    inputs = run.make_inputs(workload, seed=3)
    metrics, _, failed, detail = layers.traced(workload, inputs, 0.2, str(run.SRC), run.child_env())
    assert failed == 0
    assert detail["missing"] == ["search.removed_helper"]
    assert metrics["search.removed_helper_s"] == (None, "s")
    assert run.metric(None, "s")["missing"] is True


def test_trimmed_mean_drops_a_fifth_at_each_end():
    assert run.trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0
    assert run.trimmed_mean([5.0, 1.0, 3.0]) == 3.0


def test_reference_count_matches_brute_force():
    rng = np.random.Generator(np.random.PCG64(5))
    n = 40
    upper = np.triu(rng.random((n, n)) < 0.4, 1)
    zero = ~(upper | upper.T)
    np.fill_diagonal(zero, False)
    sets = [np.arange(i, n, 4) for i in range(4)]
    brute = sum(
        all(zero[a, b] for a, b in itertools.combinations(pick, 2))
        for pick in itertools.product(*sets)
    )
    assert reference._count(zero.astype(np.float64), sets) == brute


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-k4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_metrics_emitted():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "run_cpu_s", "peak_rss_mb", "setup_s"}
