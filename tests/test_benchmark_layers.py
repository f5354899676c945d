"""The benchmark's per-layer metrics stay valid on the run path.

``perfbench/layers.py`` times a run by wrapping the functions that the
run looks up at its call sites. A layer the run no longer reaches through
its site reads null there, or crashes the metric that divides by it, and
the benchmark's traced run then prints no result. These tests run that
tracer, unchanged, over ``musearch.cli.main``.
"""

import importlib
import math
from collections import Counter
from pathlib import Path

import pytest

from musearch import search
from musearch.fileio import write_grouping_csv, write_matrix_csv
from musearch.fixtures import extract
from musearch.simulation import generate_bernoulli_matrix, random_grouping

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


def assert_layers_valid(layers, matrix, groups, m_bar):
    """One traced ``main`` call: every site is present, every layer metric
    is a finite number, and the split and count run once per candidate."""
    missing = layers.missing_sites()
    tracer = layers.Tracer()
    argv = ["run", "--matrix", str(matrix), "--groups", str(groups), "--m-bar", str(m_bar)]
    with layers.patched(tracer.wrap):
        code, report, _ = layers.run_main(argv + ["--format", "json"])
    metrics = layers.call_metrics(tracer.spans, report, missing)
    assert code == 0
    assert missing == set()
    assert set(layers.SELF_TIME.values()) <= set(metrics)
    bad = {
        name: value
        for name, value in metrics.items()
        if isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    }
    assert bad == {}
    spans = Counter(span.name for span in tracer.spans)
    candidates = metrics["search.candidates"]
    assert candidates > 0
    assert spans["search.group_partners"] == candidates
    assert spans["search.count_identity_submatrices"] == candidates
    assert metrics["search.identity_total"] > 0 and metrics["matrix.zero_pairs"] > 0


def test_layer_metrics_on_fig1(layers, tmp_path):
    matrix, groups = extract("fig1", tmp_path)
    assert_layers_valid(layers, matrix, groups, 2)


def test_layer_metrics_with_shared_k4_tables(layers, tmp_path, monkeypatch):
    # groups of about 50 with partner sets of about 40: the K = 4 tables pay
    # for 20 candidates a group
    matrix, groups = tmp_path / "m.csv", tmp_path / "g.csv"
    write_matrix_csv(generate_bernoulli_matrix(200, 0.2, 11), matrix)
    write_grouping_csv(random_grouping(200, 4, 12), groups)
    built = []
    build = search._GroupTables
    monkeypatch.setattr(
        search, "_GroupTables", lambda *args: built.append(args[2]) or build(*args)
    )
    assert_layers_valid(layers, matrix, groups, 20)
    assert sorted(built) == [0, 1, 2, 3]
