#!/usr/bin/env python3
"""Capture a workload's reference cells from the program as it is now.

    python3 bench/capture_reference.py --workload study --first 0 --last 99

Writes bench/reference/<workload>.csv with every cell of plan seeds
first..last (for large-plan: traffic seeds on its one plan), and for large-plan also <workload>.tables.csv with the
SHA-256 of every node's route_table_csv. The benchmark compares cells by
column name, so columns added to the program's output later do not break
the comparison. Re-capture only when a change is meant to alter results,
and say why.
"""

from __future__ import annotations

import argparse
import csv
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES, required=True)
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    args = parser.parse_args()

    workloads = run._import_program()
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    # Shifting the base seed gives each plan seed every load in turn.
    bases = [args.first - i for i in range(len(wl.cfg.loads) if wl.load_per_unit else 1)]
    makers = [wl.prepare(wl, base) for base in bases]
    tracer = Tracer()
    tracer.install()
    cells, digests = [], []
    try:
        for seed in range(args.first, args.last + 1):
            for make in makers:
                unit_cells = wl.run_unit(wl, make(seed).payload)
                if wl.check_unit(wl, unit_cells, {}):
                    raise SystemExit(f"error: seed {seed} breaks an invariant; not capturing")
                cells.extend(unit_cells)
            for owner, sha in sorted(run.table_digests(tracer.tables).items()):
                digests.append({"unit": seed, "owner": owner, "sha256": sha})
            tracer.tables.clear()
            print(f"seed {seed}: done", file=sys.stderr)
    finally:
        tracer.uninstall()

    run.REFERENCE_DIR.mkdir(exist_ok=True)
    _write(run.REFERENCE_DIR / f"{wl.name}.csv", cells)
    if wl.table_digests:
        _write(run.REFERENCE_DIR / f"{wl.name}.tables.csv", digests)
    return 0


def _write(path, rows: list[dict]) -> None:
    with path.open("w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    sys.exit(main())
