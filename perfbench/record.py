#!/usr/bin/env python3
"""Write ``expected.json``: per workload and seed 0-19, the sha256 of each
input file and the digest of the expected report, from ``reference.py``.

    python3 perfbench/record.py

``run.py`` checks every run whose seed is listed against this table, so a
change to the generator, to numpy's PCG64 stream or to the reference shows
up as an error instead of silently changing a workload.
"""

from __future__ import annotations

import json
from pathlib import Path

import reference
import workloads

SEEDS = range(20)


def main() -> None:
    table = {}
    for workload in workloads.WORKLOADS.values():
        table[workload.name] = {}
        for seed in SEEDS:
            instance = workloads.generate(workload, seed)
            fields = reference.expected_report(
                instance.ones, instance.labels, workload.k, workload.m_bar
            )
            table[workload.name][str(seed)] = {
                "inputs": {
                    "matrix": workloads.sha256(instance.matrix_text),
                    "groups": workloads.sha256(instance.groups_text),
                },
                "digest": reference.digest(fields),
            }
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
