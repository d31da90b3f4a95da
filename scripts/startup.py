#!/usr/bin/env python3
"""Print the wall time of each CLI command, start-up included.

Every command runs in a fresh Python process, as a user runs it, so each
time includes the interpreter start and cgrlab's imports. The commands
read the study's plan at seed 1 (11 nodes, 10 states of 10 s, density
0.2, 10 packets per contact per state) and its burst traffic at the top
load: nodes 1-5 send 5 deadline-free packets each and nodes 6-10 send 5
packets with a 20 s deadline, all to node 11. Timed, in this order:

* `import cgrlab`;
* `cgrlab gen`, `validate`, `routes` (node 1's tables), `sim` with each
  policy, `lp`, `lp --soft` and `verify` (of the hard optimum);
* `scripts/run_congestion_study.py --seeds 25`.

Prints the median wall time over --runs fresh processes per command, in
seconds, then the peak resident set size of a process that only imports
cgrlab (VmHWM in /proc/self/status, so Linux only).

    python3 scripts/startup.py            # 5 runs per command
    python3 scripts/startup.py --runs 1
"""

import argparse
import contextlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cgrlab.cli import main as cgrlab_main
from cgrlab.simulator import Demand, demands_to_json

PLAN = ["--nodes", "11", "--states", "10", "--dur", "10", "--density", "0.2",
        "--capacity", "10", "--seed", "1"]
LOAD = 5


def commands(work: Path) -> list[tuple[str, list[str]]]:
    """(label, argv after the interpreter) of each timed command."""
    plan, demands = str(work / "plan.cp"), str(work / "demands.json")
    inputs = ["--plan", plan, "--demands", demands]
    cli = ["-m", "cgrlab.cli"]
    return [
        ("import cgrlab", ["-c", "import cgrlab"]),
        ("gen", [*cli, "gen", *PLAN, "--out", plan]),
        ("validate", [*cli, "validate", "--plan", plan]),
        ("routes", [*cli, "routes", "--plan", plan, "--owner", "1"]),
        ("sim deltime", [*cli, "sim", *inputs, "--policy", "deltime"]),
        ("sim hops", [*cli, "sim", *inputs, "--policy", "hops"]),
        ("lp", [*cli, "lp", *inputs]),
        ("lp --soft", [*cli, "lp", *inputs, "--soft"]),
        ("verify", [*cli, "verify", *inputs, "--solution", str(work / "solution.json")]),
        ("run_congestion_study.py --seeds 25",
         [str(ROOT / "scripts" / "run_congestion_study.py"), "--seeds", "25",
          "--out", str(work / "study")]),
    ]


def prepare(work: Path) -> None:
    """Write the plan, the demands and the hard optimum the commands read."""
    demands = [Demand(src, 11, 0.0, float("inf") if src <= 5 else 20.0, LOAD)
               for src in range(1, 11)]
    (work / "demands.json").write_text(demands_to_json(demands))
    plan = str(work / "plan.cp")
    for argv in (["gen", *PLAN, "--out", plan],
                 ["lp", "--plan", plan, "--demands", str(work / "demands.json"),
                  "--save-solution", str(work / "solution.json")]):
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            code = cgrlab_main(argv)
        if code != 0:
            sys.exit(f"cgrlab {argv[0]} exited {code}")


def wall_time(argv: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per command")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        prepare(work)
        print(f"{'command':<36} median_s")
        for label, argv in commands(work):
            median = statistics.median(wall_time(argv, env) for _ in range(args.runs))
            print(f"{label:<36} {median:.3f}")
    # VmHWM, not ru_maxrss: a child's ru_maxrss keeps this process's peak
    # from before its exec.
    probe = ("import cgrlab, re; "
             "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])")
    rss = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    print(f"peak RSS of import cgrlab: {int(rss) / 1024:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
