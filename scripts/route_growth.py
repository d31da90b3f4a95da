#!/usr/bin/env python3
"""Print how route-table build time grows with the plan.

For each size NODESxSTATES it draws plans with the study's topology
(density 0.2, 10 packets per contact per state, 10 s states), one per
seed 1..N, and times `build_route_tables` on each: every node's k-best
routes toward the highest-numbered node, as a sweep builds them. Each plan
is timed fresh, so the plan's own caches are filled inside the timing.
Plan generation is not timed. Prints one line per size with the median
wall time over the seeds.

    python3 scripts/route_growth.py                       # 11x10 to 40x40
    python3 scripts/route_growth.py --sizes 11x10 --seeds 3
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cgrlab.contact_graph import build_route_tables
from cgrlab.contact_plan import StateGrid, TopologyConfig, generate_random_topology


def size(text: str) -> tuple[int, int]:
    nodes, _, states = text.partition("x")
    try:
        return int(nodes), int(states)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NODESxSTATES, got {text!r}") from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=size, nargs="+",
                        default=[(11, 10), (20, 20), (30, 30), (40, 40)],
                        help="plan sizes as NODESxSTATES")
    parser.add_argument("--seeds", type=int, default=5, help="plans per size (seeds 1..N)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    print("size,contacts_median,tables_s_median,tables_s_min,tables_s_max")
    for nodes, states in args.sizes:
        contacts, times = [], []
        for seed in range(1, args.seeds + 1):
            plan = generate_random_topology(
                TopologyConfig(nodes, 0.2, 10, StateGrid(states, 10.0), seed)
            )
            t0 = time.perf_counter()
            build_route_tables(plan, 4, {nodes})
            times.append(time.perf_counter() - t0)
            contacts.append(len(plan.contacts))
        print(
            f"{nodes}x{states},{statistics.median_low(contacts)},{statistics.median(times):.4f},"
            f"{min(times):.4f},{max(times):.4f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
