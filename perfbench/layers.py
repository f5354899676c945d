"""Per-layer metrics from a traced in-process run of ``musearch.cli.main``.

Each layer's public functions are wrapped where the caller looks them up
at call time, so the layers are timed from outside and no file under
``src/`` changes. A wrapper records a span (name, start, end, parent);
spans stay in memory and are written out with the run's record. A span's
self time is its duration minus its children's, so the self times of one
call add up to that call's ``main`` time. A wrapped name that the program
no longer has is reported as missing, never as a zero-time span.

The run, after one warm-up call, takes ``--seconds`` seconds. First
comes one ``tracemalloc`` pass for allocation peaks, then a few fresh
processes timing ``import musearch.cli``. Pairs of untraced and traced
``main`` calls fill the rest, at least ``MIN_TRACED`` traced ones. The
ratio of the pairs' medians is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable

import reference

# (module, attribute, span name): every place the run path looks a layer up
SITES = (
    ("musearch.cli", "main", "cli.main"),
    ("musearch.fileio", "read_matrix", "fileio.read_matrix"),
    ("musearch.fileio", "read_grouping", "fileio.read_grouping"),
    ("musearch.fileio", "SymmetricMatrix", "matrix.SymmetricMatrix"),
    ("musearch.cli", "build_zero_pattern", "matrix.build_zero_pattern"),
    ("musearch.matrix", "ZeroPattern", "matrix.ZeroPattern"),
    ("musearch.cli", "select_candidates", "search.select_candidates"),
    ("musearch.search", "select_candidates", "search.select_candidates"),
    ("musearch.cli", "select_maxima", "search.select_maxima"),
    ("musearch.search", "group_partners", "search.group_partners"),
    ("musearch.search", "count_identity_submatrices", "search.count_identity_submatrices"),
    ("musearch.search", "verify_identity", "search.verify_identity"),
)

# self-time metric per span name
SELF_TIME = {
    "cli.main": "cli.self_s",
    "fileio.read_matrix": "fileio.read_matrix_s",
    "fileio.read_grouping": "fileio.read_grouping_s",
    "matrix.SymmetricMatrix": "matrix.SymmetricMatrix_s",
    "matrix.build_zero_pattern": "matrix.build_zero_pattern_s",
    "matrix.ZeroPattern": "matrix.ZeroPattern_s",
    "search.select_candidates": "search.select_candidates_s",
    "search.group_partners": "search.group_partners_s",
    "search.count_identity_submatrices": "search.count_identity_submatrices_s",
    "search.select_maxima": "search.select_maxima_self_s",
    "search.verify_identity": "search.verify_identity_s",
}

# allocation-peak metric per span name, from the tracemalloc pass
ALLOC_PEAK = {
    "fileio.read_matrix": "fileio.alloc_peak_mb",
    "fileio.read_grouping": "fileio.alloc_peak_mb",
    "matrix.build_zero_pattern": "matrix.alloc_peak_mb",
}

UNITS = {
    "process.import_s": "s",
    "fileio.input_bytes": "count",
    "fileio.read_matrix_mb_per_s": "MB/s",
    "fileio.alloc_peak_mb": "MB",
    "matrix.zero_pairs": "count",
    "matrix.alloc_peak_mb": "MB",
    "search.select_candidates_calls": "count",
    "search.candidates": "count",
    "search.partner_units": "count",
    "search.partner_product": "count",
    "search.identity_total": "count",
    "search.useful_ratio": "ratio",
    "cli.report_bytes": "count",
    "trace.main_s": "s",
    "trace.overhead_ratio": "ratio",
    **{metric: "s" for metric in SELF_TIME.values()},
}

IMPORT_REPS = 5
MIN_TRACED = 3


@dataclass
class Span:
    name: str
    parent: int
    args: tuple
    start: float = 0.0
    end: float = 0.0
    result: object = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, args)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            return span.result

        return traced


def missing_sites() -> set[str]:
    """Span names with no wrappable attribute left at any of their sites."""
    present = {
        name
        for module, attr, name in SITES
        if hasattr(importlib.import_module(module), attr)
    }
    return {name for _, _, name in SITES} - present


@contextlib.contextmanager
def patched(wrap: Callable[[str, Callable], Callable], names: set[str] | None = None):
    """Replace each site's attribute by ``wrap(span_name, original)``."""
    saved = []
    try:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            if (names is not None and name not in names) or not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_main(argv: list[str]) -> tuple[int, str, float]:
    """``musearch.cli.main(argv)`` with stdout captured; (code, report, wall seconds)."""
    cli = importlib.import_module("musearch.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return code, out.getvalue(), wall


def self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def call_metrics(spans: list[Span], report: str, missing: set[str]) -> dict[str, float | None]:
    """Self times and work counts of one traced ``main`` call."""
    metrics: dict[str, float | None] = {
        metric: None if name in missing else 0.0 for name, metric in SELF_TIME.items()
    }
    for span, own in zip(spans, self_times(spans)):
        metrics[SELF_TIME[span.name]] += own

    def results(name: str) -> list:
        return [s.result for s in spans if s.name == name]

    def count(metric: str, needs: str, compute: Callable[[], float]) -> None:
        try:
            metrics[metric] = None if needs in missing else compute()
        except (AttributeError, TypeError, ValueError, IndexError):
            metrics[metric] = None  # the layer's result no longer has this shape

    read = [s for s in spans if s.name in ("fileio.read_matrix", "fileio.read_grouping")]
    count("fileio.input_bytes", "fileio.read_matrix", lambda: sum(os.path.getsize(s.args[0]) for s in read))
    count(
        "fileio.read_matrix_mb_per_s", "fileio.read_matrix",
        lambda: sum(os.path.getsize(s.args[0]) for s in read if s.name == "fileio.read_matrix")
        / 1e6 / metrics["fileio.read_matrix_s"],
    )
    def zero_pairs() -> int:
        pattern = results("matrix.build_zero_pattern")[0]
        return sum(pattern.zero_count(i) for i in range(pattern.n)) // 2

    count("matrix.zero_pairs", "matrix.build_zero_pattern", zero_pairs)
    count("search.select_candidates_calls", "search.select_candidates", lambda: len(results("search.select_candidates")))
    count(
        "search.candidates", "search.select_candidates",
        lambda: sum(len(g) for g in results("search.select_candidates")[0].per_group),
    )
    def partners() -> list[list[int]]:
        return [[len(u) for u in r.members_by_group.values()] for r in results("search.group_partners")]

    count("search.partner_units", "search.group_partners", lambda: sum(map(sum, partners())))
    count("search.partner_product", "search.group_partners", lambda: sum(map(math.prod, partners())))
    counts = results("search.count_identity_submatrices")
    count("search.identity_total", "search.count_identity_submatrices", lambda: sum(counts))
    count(
        "search.useful_ratio", "search.count_identity_submatrices",
        lambda: sum(c >= 1 for c in counts) / len(counts),
    )
    metrics["cli.report_bytes"] = len(report.encode())
    metrics["trace.main_s"] = sum(s.end - s.start for s in spans if s.parent < 0)
    return metrics


def alloc_peaks(argv: list[str]) -> dict[str, float]:
    """Peak traced allocation (MB) above the level at entry, per layer.

    Tracing stops when the zero pattern is built: the search allocates no
    large arrays, and tracing its many small ints would take minutes.
    """
    peaks: dict[str, float] = {}

    def wrap(name: str, fn: Callable) -> Callable:
        metric = ALLOC_PEAK[name]

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                peaks[metric] = max(peaks.get(metric, 0.0), peak)
                if name == "matrix.build_zero_pattern":
                    tracemalloc.stop()

        return measured

    tracemalloc.start()
    try:
        with patched(wrap, set(ALLOC_PEAK)):
            run_main(argv)
    finally:
        tracemalloc.stop()
    return peaks


def import_seconds(env: dict) -> list[float]:
    """``import musearch.cli`` timed inside each of a few fresh processes."""
    code = "import time; t = time.perf_counter(); import musearch.cli; print(time.perf_counter() - t)"
    return [
        float(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout)
        for _ in range(IMPORT_REPS)
    ]


def check(code: int, report: str, inputs) -> bool:
    if code != inputs.exit_code:
        return False
    try:
        return reference.report_digest(report) == inputs.digest
    except (ValueError, KeyError, TypeError):
        return False


def traced(workload, inputs, seconds: float, src: str, env: dict) -> tuple[dict, int, int, dict]:
    """The traced run; returns (metrics, attempted, failed, detail)."""
    if src not in sys.path:
        sys.path.insert(0, src)
    argv = [
        "run", "--matrix", str(inputs.matrix), "--groups", str(inputs.groups),
        "--m-bar", str(workload.m_bar), "--format", "json",
    ]
    missing = missing_sites()
    ok = [check(*run_main(argv)[:2], inputs)]  # warm-up
    start = time.perf_counter()
    peaks = alloc_peaks(argv)
    imports = import_seconds(env)
    plain_s, per_call, trace_spans = [], [], []
    while len(per_call) < MIN_TRACED or time.perf_counter() - start < seconds:
        order = (False, True) if len(plain_s) % 2 == 0 else (True, False)
        for with_trace in order:
            if not with_trace:
                code, report, wall = run_main(argv)
                plain_s.append(wall)
            else:
                tracer = Tracer()
                with patched(tracer.wrap):
                    code, report, _ = run_main(argv)
                per_call.append(call_metrics(tracer.spans, report, missing))
                t0 = tracer.spans[0].start if tracer.spans else 0.0
                trace_spans.append([[s.name, s.start - t0, s.end - t0, s.parent] for s in tracer.spans])
            ok.append(check(code, report, inputs))
    metrics = {
        name: statistics.median_low(values) if None not in values else None
        for name, values in ((n, [c[n] for c in per_call]) for n in per_call[0])
    }
    metrics["trace.overhead_ratio"] = metrics["trace.main_s"] / statistics.median(plain_s)
    for metric in set(ALLOC_PEAK.values()):
        metrics[metric] = peaks.get(metric)
    metrics["process.import_s"] = statistics.median(imports)
    detail = {
        "digest": inputs.digest,
        "inputs": inputs.hashes,
        "missing": sorted(missing),
        "untraced_main_s": plain_s,
        "per_call": per_call,
        "import_s": imports,
        "spans": trace_spans,
    }
    result = {name: (metrics[name], UNITS[name]) for name in sorted(UNITS)}
    return result, len(ok), ok.count(False), detail
