"""Command-line front end.

Subcommands: ``run`` (search a matrix + grouping), ``oracle`` (exhaustive
reference counts, small instances only), ``simulate`` (benchmark grid
from a config file), and ``fixtures`` (list or extract bundled datasets).

Exit codes: 0 success (all groups found), 2 when any group reports
not-found or the oracle disagrees with the search, 1 for unreadable or
invalid inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from io import StringIO
from pathlib import Path

from . import fileio, fixtures
from .matrix import Grouping, Tolerance, ZeroPattern, build_zero_pattern
from .oracle import oracle_maxima
from .search import PivotResult, select_maxima
from .simulation import ScenarioConfig, run_scenario_grid

__all__ = ["main", "run_main", "parse_scenario_config"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    matrix = fileio.read_matrix(args.matrix)
    grouping = fileio.read_grouping(args.groups)
    if matrix.n != grouping.n:
        raise ValueError(
            f"matrix has {matrix.n} units but grouping covers {grouping.n}"
        )
    pattern = build_zero_pattern(matrix, Tolerance(args.epsilon))
    return pattern, grouping


def cmd_run(args) -> int:
    pattern, grouping = _load_instance(args)
    result = select_maxima(pattern, grouping, args.m_bar)
    cross = {
        c.unit: c.cross_group_zeros
        for group_list in result.candidates.per_group
        for c in group_list
    }
    if args.format == "json":
        print(json.dumps(_run_payload(result, cross), indent=2))
    elif args.format == "csv":
        print(_run_csv(result, cross), end="")
    else:
        print(_run_text(result, cross), end="")
    return 0 if result.all_found else 2


def _run_payload(result: PivotResult, cross: dict[int, int]) -> dict:
    groups = []
    for o in result.outcomes:
        groups.append(
            {
                "group": o.group + 1,
                "status": "found" if o.found else "not-found",
                "selected": None if o.selected is None else o.selected + 1,
                "count": o.count,
                "candidates": [
                    {"unit": u + 1, "cross_group_zeros": cross[u], "count": m}
                    for u, m in o.examined
                ],
            }
        )
    return {
        "groups": groups,
        "maxima": None if result.maxima is None else [u + 1 for u in result.maxima],
        "identity_verified": result.identity_verified,
    }


def _run_text(result: PivotResult, cross: dict[int, int]) -> str:
    out = StringIO()
    for o in result.outcomes:
        if o.found:
            out.write(f"group {o.group + 1}: unit {o.selected + 1}  count={o.count}  [found]\n")
        else:
            out.write(f"group {o.group + 1}: no pivotal unit  [not-found]\n")
        shown = "; ".join(
            f"unit {u + 1} zeros={cross[u]} count={m}" for u, m in o.examined
        )
        out.write(f"  candidates: {shown if shown else '(none)'}\n")
    if result.maxima is not None:
        out.write("maxima: " + " ".join(str(u + 1) for u in result.maxima) + "\n")
    else:
        out.write("maxima: -\n")
    out.write(f"identity_verified: {'true' if result.identity_verified else 'false'}\n")
    return out.getvalue()


def _run_csv(result: PivotResult, cross: dict[int, int]) -> str:
    out = StringIO()
    out.write("group,status,selected,count,candidates,identity_verified\n")
    verified = "true" if result.identity_verified else "false"
    for o in result.outcomes:
        status = "found" if o.found else "not-found"
        selected = "" if o.selected is None else str(o.selected + 1)
        packed = ";".join(f"{u + 1}:{cross[u]}:{m}" for u, m in o.examined)
        out.write(f"{o.group + 1},{status},{selected},{o.count},{packed},{verified}\n")
    return out.getvalue()


def cmd_oracle(args) -> int:
    pattern, grouping = _load_instance(args)
    report = oracle_maxima(pattern, grouping)
    # the search is exact on candidates, so at full budget its pick must
    # land in the oracle argmax set
    full_budget = max(grouping.sizes)
    result = select_maxima(pattern, grouping, full_budget)
    disagreements = []
    for o in result.outcomes:
        argmax = report.argmax_by_group[o.group]
        if o.found and o.selected not in argmax:
            disagreements.append(o.group)
        if not o.found and argmax:
            disagreements.append(o.group)
    if args.format == "json":
        print(json.dumps(_oracle_payload(grouping, report, disagreements), indent=2))
    elif args.format == "csv":
        print(_oracle_csv(grouping, report), end="")
    else:
        print(_oracle_text(grouping, report, disagreements), end="")
    return 2 if disagreements else 0


def _oracle_payload(grouping, report, disagreements) -> dict:
    return {
        "counts": {str(u + 1): c for u, c in enumerate(report.counts)},
        "groups": [
            {
                "group": g + 1,
                "max": report.max_by_group[g],
                "argmax": [u + 1 for u in report.argmax_by_group[g]],
            }
            for g in range(grouping.k)
        ],
        "identity_tuples": len(report.tuples),
        "truncated": report.truncated,
        "search_agrees": not disagreements,
    }


def _oracle_text(grouping, report, disagreements) -> str:
    out = StringIO()
    for u, c in enumerate(report.counts):
        out.write(f"unit {u + 1}: count={c}\n")
    for g in range(grouping.k):
        argmax = ", ".join(str(u + 1) for u in report.argmax_by_group[g])
        out.write(
            f"group {g + 1}: max={report.max_by_group[g]} argmax={{{argmax}}}\n"
        )
    out.write(f"identity tuples: {len(report.tuples)}")
    out.write(" (truncated)\n" if report.truncated else "\n")
    if disagreements:
        shown = ", ".join(str(g + 1) for g in disagreements)
        out.write(f"WARNING: search disagrees with oracle in groups {shown}\n")
    else:
        out.write("search agrees with oracle\n")
    return out.getvalue()


def _oracle_csv(grouping, report) -> str:
    out = StringIO()
    out.write("unit,group,count,is_argmax\n")
    for u, c in enumerate(report.counts):
        g = grouping.label(u)
        flag = "true" if u in report.argmax_by_group[g] else "false"
        out.write(f"{u + 1},{g + 1},{c},{flag}\n")
    return out.getvalue()


_CONFIG_KEYS = {
    "n": "n_values",
    "n_values": "n_values",
    "k": "k_values",
    "k_values": "k_values",
    "m_bar": "m_bar_values",
    "m_bar_values": "m_bar_values",
    "p": "p_values",
    "p_values": "p_values",
    "seed": "seed",
    "repetitions": "repetitions",
}


def parse_scenario_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse ``key = value`` lines; grid lists are comma-separated.

    Keys: n, k, m_bar, p (required grids), seed (default 0) and
    repetitions (default 1). ``#`` starts a comment.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, rest = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
        field = _CONFIG_KEYS[key]
        fields = [f.strip() for f in rest.split(",") if f.strip()]
        try:
            if field == "p_values":
                parsed: object = tuple(float(f) for f in fields)
            elif field in ("seed", "repetitions"):
                if len(fields) != 1:
                    raise ValueError("expected a single value")
                parsed = int(fields[0])
            else:
                parsed = tuple(int(f) for f in fields)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: invalid value for {key}: {exc}") from None
        values[field] = parsed
    for field in ("n_values", "k_values", "m_bar_values", "p_values"):
        if field not in values:
            raise ValueError(f"{source}: missing required key {field.split('_values')[0]!r}")
    try:
        return ScenarioConfig(**values)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def cmd_simulate(args) -> int:
    text = Path(args.config).read_text()
    cfg = parse_scenario_config(text, source=str(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run_scenario_grid(cfg)
    csv_path, md_path = report.write(args.out_dir)
    print(report.to_markdown())
    print(f"wrote {csv_path} and {md_path}", file=sys.stderr)
    return 0


def cmd_fixtures(args) -> int:
    if args.extract is None:
        for fixture in fixtures.FIXTURES.values():
            print(f"{fixture.name}: {fixture.description}")
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
    sys.exit(main())


if __name__ == "__main__":
    run_main()
