#!/usr/bin/env python3
"""Print how each layer's time grows with the plan.

For each size NODESxSTATES it draws plans with the study's topology
(density 0.2, 10 packets per contact per state, 10 s states), one per
seed 1..N, and the study's burst traffic at its top load: nodes 1-5 send
5 deadline-free packets each and nodes 6-10 send 5 packets with a 20 s
deadline, all to the highest-numbered node. On each plan it times, in
this order:

* `generate_random_topology`, which draws the plan;
* `parse_contact_plan` on the plan's serialized text; the parsed plan is
  the one the later layers use, so its caches start empty;
* `build_route_tables`: every node's k = 4 routes toward the destination,
  as a sweep builds them (the plan's caches fill here, the contact index
  the simulator reads among them);
* `run_simulation` for each policy, on those tables;
* `build_lp` of the hard model, then its cold `solve_lp`;
* `verify_solution` on the hard optimum, when the model has one; an
  optimum that does not certify stops the script with an error.

Serialization is not timed. Prints one line per size
with the median wall time per plan of each layer, in seconds; the verify
median is over the plans with a hard optimum, and reads nan when no plan
has one (`optimal` counts them).

    python3 scripts/growth.py                       # 11x10 to 40x40
    python3 scripts/growth.py --sizes 11x10 --seeds 3
"""

import argparse
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cgrlab.contact_graph import build_route_tables
from cgrlab.contact_plan import (
    StateGrid,
    TopologyConfig,
    generate_random_topology,
    parse_contact_plan,
    serialize_contact_plan,
)
from cgrlab.forwarding import Policy
from cgrlab.lp_oracle import build_lp, demands_to_commodities, solve_lp, verify_solution
from cgrlab.simulator import Demand, run_simulation

LOAD = 5


def size(text: str) -> tuple[int, int]:
    nodes, _, states = text.partition("x")
    try:
        nodes, states = int(nodes), int(states)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NODESxSTATES, got {text!r}") from None
    if nodes < 11 or states < 3:
        raise argparse.ArgumentTypeError(f"need at least 11 nodes and 3 states, got {text!r}")
    return nodes, states


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=size, nargs="+",
                        default=[(11, 10), (20, 20), (30, 30), (40, 40)],
                        help="plan sizes as NODESxSTATES")
    parser.add_argument("--seeds", type=int, default=5, help="plans per size (seeds 1..N)")
    args = parser.parse_args()
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    layers = ("generate_s", "parse_s", "tables_s", "deltime_s", "hops_s", "build_lp_s", "solve_lp_s", "verify_s")
    print(",".join(("size", "contacts_median", "optimal",
                    *(f"{name}_median" for name in layers))))
    for nodes, states in args.sizes:
        demands = [
            Demand(src, nodes, 0.0, math.inf if src <= 5 else 20.0, LOAD) for src in range(1, 11)
        ]
        commodities = demands_to_commodities(demands)
        contacts, times = [], {name: [] for name in layers}
        for seed in range(1, args.seeds + 1):
            drawn, elapsed = timed(generate_random_topology,
                                   TopologyConfig(nodes, 0.2, 10, StateGrid(states, 10.0), seed))
            times["generate_s"].append(elapsed)
            plan, elapsed = timed(parse_contact_plan, serialize_contact_plan(drawn))
            times["parse_s"].append(elapsed)
            contacts.append(len(plan.columns.contact_id))
            tables, elapsed = timed(build_route_tables, plan, 4, {nodes})
            times["tables_s"].append(elapsed)
            for policy in Policy:
                _, elapsed = timed(run_simulation, plan, demands, policy, 4, tables)
                times[f"{policy.value}_s"].append(elapsed)
            problem, elapsed = timed(build_lp, plan, commodities)
            times["build_lp_s"].append(elapsed)
            solution, elapsed = timed(solve_lp, problem)
            times["solve_lp_s"].append(elapsed)
            if solution.status == "optimal":
                violations, elapsed = timed(verify_solution, problem, solution)
                if violations:
                    raise SystemExit(f"{nodes}x{states} seed {seed}: {violations[0]}")
                times["verify_s"].append(elapsed)
        medians = (
            f"{statistics.median(times[name]):.4f}" if times[name] else "nan" for name in layers
        )
        print(",".join((f"{nodes}x{states}", str(statistics.median_low(contacts)),
                        str(len(times["verify_s"])), *medians)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
