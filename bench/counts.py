"""Print the reference table of harness counts and result digests.

    python3 bench/counts.py

Runs every harness operation of every workload once, untraced, and prints a
markdown table of each report's verdict, counts and result digest, followed
by any oracle problem.  The table is for reference only: the benchmark gates
on the closed-form oracles in workloads.py, not on these numbers, because
what the `gentle` family counts is expected to change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def flatten(counts, prefix=""):
    for key, value in counts.items():
        if isinstance(value, dict):
            yield from flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}={value}"


def main():
    run.load_program()
    print("| workload | operation | verdict | counts | digest |")
    print("|---|---|---|---|---|")
    problems = []
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 0):
            if op.walk:
                continue
            report = json.loads(run.invoke(op.argv))
            problems += [f"{op.name}: {p}" for p in op.check(report)]
            print(f"| {workload} | {' '.join(op.argv[1:-2])} | "
                  f"{report['verdict']} | "
                  f"{', '.join(flatten(report['counts']))} | "
                  f"`{run.report_digest(report)[:16]}` |")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
