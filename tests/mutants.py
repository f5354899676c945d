"""The exact-count contract's mutants: each must make a test fail.

Run from anywhere as ``python tests/mutants.py``; pytest does not collect
this file. Each mutant replaces one exact piece of text in one file under
``src/musearch``. For each, the script copies ``src/`` into a temporary
directory, applies the mutant there and runs the tests the mutant names
(by default those that guard counts) against that copy, stopping at the
first failure. It first runs every test a mutant names on an unmutated
copy, so that a failure means the mutant was caught; when that run
fails, it prints the end of pytest's output, which names the failing test.

It prints one line per mutant and exits 1 when a mutant survives or its
old text no longer occurs once in its file: a change to a kernel or a
report must update the records here. A run takes a few minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COUNT_TESTS = ("tests/test_search.py", "tests/test_oracle.py", "tests/test_acceptance.py")
REPORT_TESTS = COUNT_TESTS + ("tests/test_cli.py",)
GRID_TESTS = ("tests/test_simulation.py", "tests/test_cli.py")
THRESHOLD_TESTS = ("tests/test_matrix.py", "tests/test_fileio.py")


class Mutant(NamedTuple):
    file: str  # under src/musearch
    old: str
    new: str
    reason: str
    tests: tuple[str, ...] = COUNT_TESTS


MUTANTS = (
    Mutant(
        "search.py",
        "    if not all(s.size for s in sets):\n        return 0\n",
        "",
        "the empty-set early return removed",
    ),
    Mutant(
        "search.py",
        "batch = [unit for unit, s in sizes.items() if all(s)]",
        "batch = list(sizes)",
        "all candidates batched, those with an empty partner set too",
    ),
    Mutant(
        "search.py",
        "count = terms[0] - terms[1] + terms[2] - [",
        "count = terms[0] + terms[1] + terms[2] - [",
        "the middle term's sign flipped",
    ),
    Mutant(
        "search.py",
        "inside[:2] + outside[1:]",
        "inside[:2] + [outside[1], inside[2]]",
        "x_C in place of y_C",
    ),
    Mutant(
        "search.py",
        "(x_b, y_c, y_c)",
        "(y_b, y_c, y_c)",
        "y in place of x in the first term",
    ),
    Mutant(
        "search.py",
        "_count_cliques(self.zero_pattern, [g[y] for g, y in zip(self.groups, complements)])",
        "0",
        "the complement frontier term dropped",
    ),
    Mutant(
        "search.py",
        "        product *= blocks[0][0]\n",
        "",
        "the frontier's last product no longer masked by Z[C, D]",
    ),
    Mutant(
        "search.py",
        "key=lambda e: (e[1], -e[0])",
        "key=lambda e: (e[1], e[0])",
        "a tie goes to the higher unit index",
    ),
    Mutant(
        "matrix.py",
        "        if len(values) + len(named) != len(fields):\n"
        "            raise TypeError(\n"
        "                f\"{type(self).__name__}() takes {len(fields)} fields \"\n"
        "                f\"({', '.join(fields)}), got {len(values) + len(named)}\"\n"
        "            )\n",
        "",
        "a record built with too few fields is accepted, the rest left unset",
        ("tests/test_search.py",),
    ),
    Mutant(
        "cli.py",
        '{"unit": c.unit + 1,',
        '{"unit": c.unit,',
        "run: 0-based candidate units in the group record",
        REPORT_TESTS,
    ),
    Mutant(
        "cli.py",
        '"maxima": maxima,',
        '"maxima": result.maxima,',
        "run --format json: 0-based maxima",
        REPORT_TESTS,
    ),
    Mutant(
        "cli.py",
        "pick = f\"unit {g['selected']}  count=",
        "pick = f\"unit {g['selected'] - 1}  count=",
        "run --format text: a 0-based selected unit",
        REPORT_TESTS,
    ),
    Mutant(
        "cli.py",
        'selected = g["selected"] or ""',
        'selected = g["selected"] - 1 if g["selected"] else ""',
        "run --format csv: a 0-based selected unit",
        REPORT_TESTS,
    ),
    Mutant(
        "simulation.py",
        "maxima=tuple(None if u is None else u + 1 for u in r.maxima)",
        "maxima=r.maxima",
        "simulate: 0-based maxima in the grid CSV",
        GRID_TESTS,
    ),
    Mutant(
        "simulation.py",
        "for key in (name, name.removesuffix(\"_values\"))",
        "for key in (name,)",
        "simulate: a config key without `_values` no longer names its field",
        GRID_TESTS,
    ),
    Mutant(
        "matrix.py",
        "bisect.bisect_right(",
        "bisect.bisect_left(",
        "a decimal matrix's threshold leaves out a mantissa exactly at epsilon",
        THRESHOLD_TESTS,
    ),
    Mutant(
        "matrix.py",
        "key=lambda m: m / matrix._scale) - 1",
        "key=lambda m: m / matrix._scale)",
        "a decimal matrix's threshold takes the first mantissa above epsilon",
        THRESHOLD_TESTS,
    ),
    Mutant(
        "cli.py",
        "miscounted = [(u + 1, m) for u, m in o.examined if m != report.counts[u]]",
        "miscounted = []",
        "oracle: a candidate's count no longer checked against the oracle's",
        REPORT_TESTS,
    ),
)


def run_tests(src: Path, tests: tuple[str, ...], *, keep_output: bool = False):
    """pytest's run of ``tests`` against ``src``, its output (stdout and
    stderr) kept as text when ``keep_output`` is set, else discarded."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if keep_output else subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
        text=True,
    )


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        baseline = run_tests(src, tests, keep_output=True)
        if baseline.returncode != 0:
            print("the tests fail on the unmutated source: no mutant can be judged")
            # the failure's last lines and pytest's short test summary
            print("\n".join(baseline.stdout.splitlines()[-40:]))
            return 1
        for mutant in MUTANTS:
            path = src / "musearch" / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:
                verdict = "STALE (old text not found once)"
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                caught = run_tests(src, mutant.tests).returncode != 0
                path.write_text(text)
                verdict = "caught" if caught else "SURVIVED"
            if verdict != "caught":
                failures.append(mutant)
            print(f"{verdict}: {mutant.file}: {mutant.reason}", flush=True)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
