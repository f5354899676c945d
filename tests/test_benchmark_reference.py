"""Each benchmark workload's shape, at smoke size, gives the report that
``perfbench/reference.py`` derives without any code from ``musearch``.

The benchmark refuses a run whose JSON report digest differs from the
reference's (its ``outputs_incorrect`` gate). These tests build the same
kind of instance with ``perfbench/workloads.py`` at n = 60·k, so that a
change the gate would refuse fails here first.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

from musearch import cli, search

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("reference")


@pytest.mark.parametrize("name", ["dense-k3", "dense-k4", "sparse-k5"])
@pytest.mark.parametrize("seed", [1, 3])
def test_smoke_workload_matches_reference(perfbench, tmp_path, capsys, monkeypatch, name, seed):
    workloads, reference = perfbench
    shape = workloads.WORKLOADS[name]
    workload = dataclasses.replace(shape, n=60 * shape.k)
    instance = workloads.generate(workload, seed)
    matrix, groups = workloads.write(instance, tmp_path, workload.fmt)
    tables = []
    build = search._shared_tables
    monkeypatch.setattr(
        search, "_shared_tables", lambda *args: tables.append(args[2]) or build(*args)
    )
    argv = ["run", "--matrix", str(matrix), "--groups", str(groups)]
    code = cli.main(argv + ["--m-bar", str(workload.m_bar), "--format", "json"])
    report = capsys.readouterr().out
    expected = reference.expected_report(instance.ones, instance.labels, workload.k, workload.m_bar)
    assert code == (0 if expected["maxima"] is not None else 2)
    assert reference.report_digest(report) == reference.digest(expected)
    # dense-k4's m_bar of 20 makes every group's shared K = 4 tables pay
    assert sorted(tables) == (list(range(4)) if workload.k == 4 else [])
