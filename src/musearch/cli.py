"""Command-line front end.

Subcommands: ``run`` (search a matrix + grouping), ``oracle`` (exhaustive
reference counts, small instances only), ``simulate`` (benchmark grid
from a config file), and ``fixtures`` (list or extract bundled datasets).

Exit codes: 0 success (all groups found), 2 when any group reports
not-found or the oracle disagrees with the search, 1 for unreadable or
invalid inputs and for usage errors.

Run as a program, the module ends the process with ``os._exit`` once it
has flushed stdout and stderr. That skips the interpreter's teardown:
atexit handlers, object finalizers and the clearing of every module. A
run registers neither handlers nor finalizers, so only the teardown's
cost goes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # The package imports below leave about 20k objects, most of them
    # numpy's, and collecting while they load finds little to free.
    # run_main() enables the collector again once it has frozen them.
    # Imported as a library, as the ``musearch`` command's script does,
    # the module leaves the collector alone.
    gc.disable()

# OpenBLAS reads this once, when numpy loads, so it must be set before the
# package imports below load numpy. On inputs up to N = 2000 with K <= 5, a
# second BLAS thread burned CPU without cutting wall time. A value the user
# set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import fileio  # noqa: E402
from .matrix import Grouping, ZeroPattern, build_zero_pattern  # noqa: E402
from .search import select_maxima  # noqa: E402

# The fixtures, oracle and simulation modules, and the dataclasses,
# statistics, decimal and fractions modules they load, are imported by the
# subcommands that use them, so that `musearch run` does not pay for them.

__all__ = ["main", "run_main"]


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse drops an OSError of an unbuffered write; run_main reports it
        (file or sys.stdout).write(self.format_help())

    def error(self, message: str) -> None:
        # exit 1, as for any invalid input: 2 means a group not found
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="musearch",
        description="Search a sparse symmetric matrix for one pivotal unit per group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the search on a matrix and grouping")
    _add_instance_args(run)
    run.add_argument(
        "--m-bar",
        type=int,
        default=5,
        help="candidate budget per group (default 5)",
    )
    run.set_defaults(func=cmd_run)

    oracle = sub.add_parser(
        "oracle", help="exhaustive reference counts (small instances only)"
    )
    _add_instance_args(oracle)
    oracle.set_defaults(func=cmd_oracle)

    simulate = sub.add_parser("simulate", help="run a benchmark grid from a config file")
    simulate.add_argument("--config", required=True, help="grid config file")
    simulate.add_argument(
        "--out-dir", default=".", help="directory for the CSV and Markdown reports"
    )
    simulate.add_argument(
        "--seed", type=int, default=None, help="override the config master seed"
    )
    simulate.set_defaults(func=cmd_simulate)

    fix = sub.add_parser("fixtures", help="list or extract bundled datasets")
    fix.add_argument("--extract", metavar="NAME", help="fixture to write out")
    fix.add_argument("--out-dir", default=".", help="directory for extracted files")
    fix.set_defaults(func=cmd_fixtures)

    return parser


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--matrix", required=True, help="matrix file (dense CSV or triplets)")
    sub.add_argument("--groups", required=True, help="grouping CSV file")
    sub.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="absolute threshold for treating an entry as zero (default 0)",
    )
    sub.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )


def _load_instance(args) -> tuple[ZeroPattern, Grouping]:
    # the grouping sizes a triplet matrix, whose last units may have no entries
    grouping = fileio.read_grouping(args.groups)
    matrix = fileio.read_matrix(args.matrix, n=grouping.n)
    if matrix.n != grouping.n:
        raise ValueError(
            f"{args.matrix} has {matrix.n} units but {args.groups} covers {grouping.n}"
        )
    pattern = build_zero_pattern(matrix, args.epsilon)
    return pattern, grouping


def cmd_run(args) -> int:
    pattern, grouping = _load_instance(args)
    result = select_maxima(pattern, grouping, args.m_bar)
    groups = [  # each group's record, 1-based, as the JSON report holds it
        {
            "group": o.group + 1,
            "status": "found" if o.found else "not-found",
            "selected": None if o.selected is None else o.selected + 1,
            "count": o.count,
            "candidates": [  # o.examined is in candidate order
                {"unit": c.unit + 1, "cross_group_zeros": c.cross_group_zeros, "count": m}
                for c, (_, m) in zip(result.candidates.per_group[o.group], o.examined)
            ],
        }
        for o in result.outcomes
    ]
    maxima = None if result.maxima is None else [u + 1 for u in result.maxima]
    verified = str(result.identity_verified).lower()
    if args.format == "json":
        report = {"groups": groups, "maxima": maxima, "identity_verified": result.identity_verified}
        lines = [json.dumps(report, indent=2)]
    elif args.format == "csv":
        lines = ["group,status,selected,count,candidates,identity_verified"]
        for g in groups:
            # unit:cross_group_zeros:count, in the candidate record's order
            packed = ";".join(":".join(map(str, c.values())) for c in g["candidates"])
            selected = g["selected"] or ""  # 1-based, so None alone is false
            lines.append(f"{g['group']},{g['status']},{selected},{g['count']},{packed},{verified}")
    else:
        lines = []
        for g in groups:
            pick = "no pivotal unit"
            if g["selected"]:
                pick = f"unit {g['selected']}  count={g['count']}"
            lines.append(f"group {g['group']}: {pick}  [{g['status']}]")
            shown = "; ".join(
                "unit {unit} zeros={cross_group_zeros} count={count}".format(**c)
                for c in g["candidates"]
            )
            lines.append(f"  candidates: {shown or '(none)'}")
        lines.append("maxima: " + ("-" if maxima is None else " ".join(map(str, maxima))))
        lines.append(f"identity_verified: {verified}")
    print("\n".join(lines))
    return 0 if result.all_found else 2


def cmd_oracle(args) -> int:
    from .oracle import oracle_maxima

    pattern, grouping = _load_instance(args)
    report = oracle_maxima(pattern, grouping)
    # the search is exact on candidates, so at full budget, where every unit
    # of an identity tuple is one, its pick must land in the oracle argmax
    # set and each candidate's count must be the oracle's
    result = select_maxima(pattern, grouping, max(grouping.sizes))
    counts = {u + 1: c for u, c in enumerate(report.counts)}
    groups = [  # each group's record, 1-based, as the JSON report holds it
        {
            "group": o.group + 1,
            "max": report.max_by_group[o.group],
            "argmax": [u + 1 for u in report.argmax_by_group[o.group]],
            "search_pick": None if o.selected is None else o.selected + 1,
            "search_count": o.count,
        }
        for o in result.outcomes
    ]
    shown = {  # each group's max and argmax as the text report shows them
        g["group"]: f"max={g['max']} argmax={{{', '.join(map(str, g['argmax']))}}}"
        for g in groups
    }
    # a pick outside the argmax set disagrees, and so does a group found by
    # one side only: an empty argmax set means no identity tuple at all
    warnings = []  # one per disagreeing group, naming its pick or a miscount
    for g, o in zip(groups, result.outcomes):
        miscounted = [(u + 1, m) for u, m in o.examined if m != report.counts[u]]
        if g["search_pick"] not in (g["argmax"] or [None]):
            pick = "no unit" if g["search_pick"] is None else f"unit {g['search_pick']}"
            found = f"picks {pick} count={g['search_count']}, oracle {shown[g['group']]}"
        elif miscounted:
            unit, count = miscounted[0]
            found = f"counts unit {unit} count={count}, oracle count={counts[unit]}"
        else:
            continue
        warnings.append(
            f"WARNING: search disagrees with oracle in group {g['group']}: search {found}"
        )
    if args.format == "json":
        payload = {
            "counts": counts,  # dumped with string keys
            "groups": groups,
            "identity_tuples": report.total,
            "search_agrees": not warnings,
        }
        lines = [json.dumps(payload, indent=2)]
    elif args.format == "csv":
        argmax = {u for g in groups for u in g["argmax"]}
        picks = {g["search_pick"] for g in groups}
        lines = ["unit,group,count,is_argmax,search_pick"]
        lines += [
            f"{u},{label + 1},{c},{str(u in argmax).lower()},{str(u in picks).lower()}"
            for (u, c), label in zip(counts.items(), grouping.labels.tolist())
        ]
    else:
        lines = [f"unit {u}: count={c}" for u, c in counts.items()]
        lines += [f"group {group}: {text}" for group, text in shown.items()]
        lines.append(f"identity tuples: {report.total}")
        lines += warnings or ["search agrees with oracle"]
    print("\n".join(lines))
    return 2 if warnings else 0


def cmd_simulate(args) -> int:
    import dataclasses

    from .simulation import ScenarioConfig, run_scenario_grid

    source = str(args.config)
    cfg = ScenarioConfig.parse(fileio._decode(Path(source).read_bytes(), source), source)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_scenario_grid(cfg)
    csv_path, md_path = report.write(args.out_dir)
    print(report.to_markdown())
    print(f"wrote {csv_path} and {md_path}", file=sys.stderr)
    return 0


def cmd_fixtures(args) -> int:
    from . import fixtures

    if args.extract is None:
        for name, (description, _, _) in fixtures.FIXTURES.items():
            print(f"{name}: {description}")
        return 0
    matrix_path, groups_path = fixtures.extract(args.extract, args.out_dir)
    print(f"wrote {matrix_path} and {groups_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_main() -> None:
    """Entry point of ``musearch`` and ``python -m musearch.cli``."""
    # Collections leave frozen objects out. Freezing the ~20k objects the
    # imports left, most of them numpy's, keeps every collection main()
    # sets off away from them; it also empties the young generation, so
    # that enabling the collector sets off none over them. main() itself
    # leaves the collector alone, since tests and the benchmark call it
    # many times in one process.
    gc.freeze()
    gc.enable()
    try:
        try:
            code = main()
        except SystemExit as exc:  # from argparse, its output maybe still buffered
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader closed stdout before the report was flushed.
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    try:
        sys.stderr.flush()
    except OSError:
        pass
    # With the output flushed, the interpreter's teardown would run no
    # atexit handler or finalizer of the run, which registers none. It
    # would only clear every module, 3-4 ms of each call, and flush
    # stdout again, which fails once more after a closed pipe with an
    # "Exception ignored" message and exit code 120.
    os._exit(0 if code is None else code)


if __name__ == "__main__":
    run_main()
