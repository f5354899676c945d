#!/usr/bin/env python3
"""The musearch benchmark: ``musearch run`` end to end, or layer by layer.

Run from the root of the repository:

    python3 perfbench/run.py --workload dense-k4 --seed 1 --seconds 32 --trace 0

With ``--trace 0`` one client runs a closed loop of ``musearch run
--format json`` calls, each in a fresh Python process, for ``--seconds``
seconds, and reports the end-to-end metrics. Before each call it runs the
fixed reference task ``hostref.py``, and times are scaled by how fast that
ran to the speed of a nominal host. With ``--trace 1`` it calls
``musearch.cli.main`` in this process with every layer wrapped, and
reports per-layer metrics (see ``layers.py``). Every report is checked
against a digest computed by ``reference.py``. The last line of stdout is
the result as JSON; the per-call figures and the run's environment go to
``perfbench/out/``. See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

HOSTREF = HERE / "hostref.py"
HOSTREF_OUTPUT = [b"42900", b"60247"]
# Mean wall seconds of hostref.py on the nominal host, a 2-vCPU Intel
# Xeon VM with Python 3.11.7 and numpy 2.4.6. Times are reported at that
# speed (see README.md).
REF_WALL_S = 0.45

SETUP_REPS = 3
MIN_PAIRS = 3
CALL_TIMEOUT_S = 120.0
HARD_LIMIT_S = 170.0  # the whole benchmark must end within 180 s


@dataclass
class Inputs:
    matrix: Path
    groups: Path
    hashes: dict
    digest: str
    exit_code: int


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    why: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_command(inputs: Inputs, m_bar: int) -> list[str]:
    return [
        sys.executable, "-m", "musearch.cli", "run",
        "--matrix", str(inputs.matrix), "--groups", str(inputs.groups),
        "--m-bar", str(m_bar), "--format", "json",
    ]


def spawn(command: list[str], timeout: float) -> tuple[float, float, float, int | None, bytes, str]:
    """Run ``command`` in a fresh process; (wall s, CPU s, peak RSS MB, exit code or None on timeout, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timed_out = not timer.is_alive()
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        report, errors = out.read(), err.read().decode(errors="replace")
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024.0  # KiB on Linux
    return wall, cpu, rss, None if timed_out else proc.returncode, report, errors


def call(inputs: Inputs, m_bar: int, deadline: float) -> Call:
    """One ``musearch run`` in a fresh process, its output checked."""
    timeout = max(1.0, min(CALL_TIMEOUT_S, deadline - time.perf_counter()))
    wall, cpu, rss, code, report, errors = spawn(run_command(inputs, m_bar), timeout)
    if code is None:
        return Call(wall, cpu, rss, False, f"timed out after {timeout:.0f} s")
    if code != inputs.exit_code:
        return Call(wall, cpu, rss, False, f"exit code {code}: {errors.strip()[-300:]}")
    try:
        got = reference.report_digest(report)
    except (ValueError, KeyError, TypeError) as exc:
        return Call(wall, cpu, rss, False, f"unreadable report: {exc}")
    if got != inputs.digest:
        return Call(wall, cpu, rss, False, f"digest {got[:12]} != expected {inputs.digest[:12]}")
    return Call(wall, cpu, rss, True, "")


def host_reference() -> float:
    """Wall seconds of the fixed reference task ``hostref.py``."""
    wall, _, _, code, out, errors = spawn([sys.executable, str(HOSTREF)], CALL_TIMEOUT_S)
    if code != 0 or out.split() != HOSTREF_OUTPUT:
        raise RuntimeError(f"host reference task failed ({code}): {out[-200:]!r} {errors.strip()[-300:]}")
    return wall


def write_inputs(workload: workloads.Workload, seed: int) -> tuple[workloads.Instance, Path, Path, dict]:
    """Generate and write the input files, and check their sha256."""
    instance = workloads.generate(workload, seed)
    matrix, groups = workloads.write(instance, OUT / workload.name, workload.fmt)
    hashes = {
        "matrix": workloads.sha256(matrix.read_bytes()),
        "groups": workloads.sha256(groups.read_bytes()),
    }
    expected = {
        "matrix": workloads.sha256(instance.matrix_text),
        "groups": workloads.sha256(instance.groups_text),
    }
    recorded = recorded_entry(workload.name, seed)
    if recorded is not None:
        expected = recorded["inputs"]
    if hashes != expected:
        raise RuntimeError(f"{workload.name} seed {seed}: inputs {hashes} != expected {expected}")
    return instance, matrix, groups, hashes


def make_inputs(workload: workloads.Workload, seed: int) -> Inputs:
    """Write and check the inputs; compute the expected report digest."""
    instance, matrix, groups, hashes = write_inputs(workload, seed)
    fields = reference.expected_report(instance.ones, instance.labels, workload.k, workload.m_bar)
    digest = reference.digest(fields)
    recorded = recorded_entry(workload.name, seed)
    if recorded is not None and recorded["digest"] != digest:
        raise RuntimeError(f"{workload.name} seed {seed}: reference digest differs from the recorded one")
    exit_code = 0 if fields["maxima"] is not None else 2
    return Inputs(matrix, groups, hashes, digest, exit_code)


def recorded_entry(name: str, seed: int) -> dict | None:
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(name, {}).get(str(seed))


def setup(workload: workloads.Workload, seed: int, deadline: float) -> tuple[Inputs, list[float]]:
    """Set up ``SETUP_REPS`` times: write and check the inputs, make one warm-up call.

    The expected digest is computed once beforehand and is not timed.
    """
    inputs = make_inputs(workload, seed)
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        write_inputs(workload, seed)
        warm = call(inputs, workload.m_bar, deadline)
        times.append(time.perf_counter() - start)
        if not warm.ok:
            raise RuntimeError(f"warm-up call failed: {warm.why}")
    return inputs, times


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest fifth."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(workload: workloads.Workload, seed: int, seconds: float, deadline: float) -> tuple[dict, list[Call], dict]:
    """Set up, then a closed loop of (reference task, ``musearch run``) pairs.

    A pair starts only if the previous pair's length still fits in
    ``seconds``, so the loop does not overrun; at least ``MIN_PAIRS`` run.
    One more reference task after the loop brackets every call.
    """
    inputs, setup_times = setup(workload, seed, deadline)
    calls: list[Call] = []
    refs: list[float] = []
    start = last = time.perf_counter()
    while len(calls) < MIN_PAIRS or time.perf_counter() - start + (time.perf_counter() - last) <= seconds:
        last = time.perf_counter()
        refs.append(host_reference())
        calls.append(call(inputs, workload.m_bar, deadline))
    refs.append(host_reference())
    good = [c for c in calls if c.ok] or calls
    # host speed relative to the nominal host, from the reference task.
    # CPU times are scaled by it too. The reference's own CPU time is not
    # used: at times every process, reference and call alike, spends about
    # 0.1 s more CPU than wall time, which is a quarter of the reference
    # but a few percent of a call, so a CPU ratio would skew.
    host = trimmed_mean(refs) / REF_WALL_S
    raw = {
        "run_s": trimmed_mean([c.wall_s for c in good]),
        "run_cpu_s": trimmed_mean([c.cpu_s for c in good]),
        "setup_s": statistics.median(setup_times),
        "run_s_median": statistics.median(c.wall_s for c in good),
    }
    metrics = {
        "run_s": (raw["run_s"] / host, "s"),
        "run_cpu_s": (raw["run_cpu_s"] / host, "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in good), "MB"),
        "setup_s": (raw["setup_s"] / host, "s"),
    }
    detail = {
        "inputs": inputs.hashes,
        "digest": inputs.digest,
        "host_factor": host,
        "unscaled": raw,
        "setup_s": setup_times,
        "reference_s": refs,
        "calls": [c.__dict__ for c in calls],
    }
    return metrics, calls, detail


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_sha": git_sha(),
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    """BLAS name, version and default thread count (left unchanged)."""
    info = {
        key: os.environ.get(key)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if key in os.environ
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                info["threads"] = int(getattr(ctypes.CDLL(lib), symbol)())
                return info
            except (OSError, AttributeError):
                continue
    return info


def git_sha() -> str:
    """HEAD of the repository, if this checkout is one (without running git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float | None, unit: str) -> dict:
    """A metric for the result line; a layer the program no longer has is marked missing."""
    if value is None:
        return {"value": None, "unit": unit, "missing": True}
    return {"value": value, "unit": unit}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    began = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "musearch" / "cli.py").is_file():
        print(f"error: no musearch package under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    deadline = began + HARD_LIMIT_S
    OUT.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import layers

        inputs = make_inputs(workload, args.seed)
        metrics, attempted, failed, detail = layers.traced(workload, inputs, args.seconds, str(SRC), child_env())
    else:
        metrics, calls, detail = end_to_end(workload, args.seed, args.seconds, deadline)
        attempted, failed = len(calls), sum(not c.ok for c in calls)
        for c in calls:
            if not c.ok:
                print(f"failed call: {c.why}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "n": workload.n,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "fail_ratio": failed / attempted,
        **detail,
    }
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!s:>22} {unit}")
    if not args.trace:
        unscaled = ", ".join(f"{name} {value:.4f}" for name, value in detail["unscaled"].items())
        print(f"host speed factor {detail['host_factor']:.4f}; unscaled: {unscaled}")
    print(f"fail_ratio {failed}/{attempted}; details in {record_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(value, unit) for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
