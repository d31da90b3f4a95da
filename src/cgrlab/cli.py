"""Command-line front end.

Machine-readable results (metrics JSON, CSV dumps) go to standard output;
diagnostics and errors go to standard error. Exit codes: 0 success, 1
domain error, 2 usage error. Every command is a pure function of its
flags and input files, so replaying a command reproduces its output
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .contact_plan import (
    PlanError,
    StateGrid,
    TopologyConfig,
    generate_random_topology,
    parse_contact_plan,
    serialize_contact_plan,
    validate,
)
from .contact_graph import build_route_table, route_table_csv
from .forwarding import Policy
from .lp_oracle import (
    LpSolverError,
    build_lp,
    check_tol,
    demands_to_commodities,
    lp_metrics,
    problem_to_lp_text,
    solution_flows_csv,
    solution_from_json,
    solution_to_json,
    solve_lp,
    verify_solution,
)
from .experiments import (
    ConfigError,
    ScenarioConfig,
    SweepResult,
    rows_from_csv,
    run_sweep,
    summarize,
    write_sweep_outputs,
)
from .simulator import OUTCOMES, compute_metrics, demands_from_json, run_simulation

_DOMAIN_ERRORS = (
    PlanError,
    LpSolverError,
    ConfigError,
    ValueError,
    KeyError,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as e:
        message = str(e) if not isinstance(e, KeyError) else e.args[0]
        print(f"error: {message}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgrlab",
        description="Contact-plan routing laboratory",
    )
    parser.add_argument("--version", action="version", version=f"cgrlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random contact plan")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--dur", type=float, required=True, help="state duration in seconds")
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--capacity", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, default=None, help="plan file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check a plan file, printing diagnostics")
    p.add_argument("--plan", type=Path, required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("routes", help="dump a node's route table as CSV")
    p.add_argument("--plan", type=Path, required=True)
    p.add_argument("--owner", type=int, required=True)
    p.add_argument("--dest", type=int, action="append", default=None,
                   help="destination (repeatable; default: every other node)")
    p.add_argument("--t-now", type=float, default=0.0)
    p.add_argument("-k", "--k-routes", type=int, default=4)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_routes)

    p = sub.add_parser("sim", help="run one simulation and print metrics JSON")
    p.add_argument("--plan", type=Path, required=True)
    p.add_argument("--demands", type=Path, required=True)
    p.add_argument("--policy", choices=[pol.value for pol in Policy], required=True)
    p.add_argument("-k", "--k-routes", type=int, default=4)
    p.add_argument("--packets-csv", type=Path, default=None,
                   help="also write the per-packet records here")
    p.set_defaults(func=_cmd_sim)

    p = sub.add_parser("lp", help="build, solve, verify, and print metrics JSON")
    p.add_argument("--plan", type=Path, required=True)
    p.add_argument("--demands", type=Path, required=True)
    p.add_argument("--weight-exponent", type=float, default=1.0)
    p.add_argument("--soft", action="store_true",
                   help="allow per-commodity drops at a large penalty")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--export-lp", type=Path, default=None,
                   help="write the model in LP text format")
    p.add_argument("--flows-csv", type=Path, default=None,
                   help="write the nonzero flows as CSV")
    p.add_argument("--save-solution", type=Path, default=None,
                   help="write the full solution as JSON")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("verify", help="re-check a stored LP solution")
    p.add_argument("--plan", type=Path, required=True)
    p.add_argument("--demands", type=Path, required=True)
    p.add_argument("--solution", type=Path, required=True)
    p.add_argument("--soft", action="store_true")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="execute a scenario config")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="summarize a sweep directory")
    p.add_argument("--sweep-dir", type=Path, required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _metrics_json(metrics, extra: dict | None = None) -> str:
    doc = dict(metrics.as_dict())
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_gen(args) -> int:
    cfg = TopologyConfig(
        node_count=args.nodes,
        density=args.density,
        capacity=args.capacity,
        grid=StateGrid(args.states, args.dur),
        seed=args.seed,
    )
    plan = generate_random_topology(cfg)
    _emit(serialize_contact_plan(plan), args.out)
    return 0


def _cmd_validate(args) -> int:
    try:
        plan = parse_contact_plan(args.plan.read_text())
    except PlanError as e:
        print(str(e), file=sys.stdout)
        return 1
    diagnostics = validate(plan)
    for d in diagnostics:
        print(str(d))
    return 1 if diagnostics else 0


def _cmd_routes(args) -> int:
    plan = parse_contact_plan(args.plan.read_text())
    destinations = set(args.dest) if args.dest else plan.node_ids - {args.owner}
    table = build_route_table(plan, args.owner, args.t_now, args.k_routes, destinations)
    _emit(route_table_csv(table), args.out)
    return 0


def _cmd_sim(args) -> int:
    plan = parse_contact_plan(args.plan.read_text())
    demands = demands_from_json(args.demands.read_text())
    result = run_simulation(plan, demands, Policy(args.policy), args.k_routes)
    metrics = compute_metrics(result, demands)
    if args.packets_csv:
        args.packets_csv.write_text(result.to_csv())
    counts = {outcome: result.count(outcome) for outcome in OUTCOMES}
    sys.stdout.write(
        _metrics_json(
            metrics,
            {
                "generated": result.generated(),
                "transmissions": result.total_transmissions(),
                **counts,
            },
        )
    )
    return 0


def _cmd_lp(args) -> int:
    check_tol(args.tol)
    plan = parse_contact_plan(args.plan.read_text())
    demands = demands_from_json(args.demands.read_text())
    commodities = demands_to_commodities(demands)
    problem = build_lp(plan, commodities, args.weight_exponent, soft=args.soft)
    if args.export_lp:
        args.export_lp.write_text(problem_to_lp_text(problem))
    solution = solve_lp(problem)
    if solution.status != "optimal":
        sys.stdout.write(json.dumps({"status": solution.status}, indent=2) + "\n")
        return 0
    violations = verify_solution(problem, solution, tol=args.tol)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        print(f"error: solution failed verification ({len(violations)} violations)",
              file=sys.stderr)
        return 1
    if args.flows_csv:
        args.flows_csv.write_text(solution_flows_csv(problem, solution))
    if args.save_solution:
        args.save_solution.write_text(solution_to_json(solution))
    metrics = lp_metrics(plan, commodities, solution)
    sys.stdout.write(
        _metrics_json(
            metrics,
            {
                "status": "optimal",
                "objective": solution.objective,
                "generated": sum(c.amount for c in commodities),
                "transmissions": solution.total_flow(),
            },
        )
    )
    return 0


def _cmd_verify(args) -> int:
    check_tol(args.tol)
    plan = parse_contact_plan(args.plan.read_text())
    demands = demands_from_json(args.demands.read_text())
    commodities = demands_to_commodities(demands)
    problem = build_lp(plan, commodities, soft=args.soft)
    solution = solution_from_json(args.solution.read_text())
    violations = verify_solution(problem, solution, tol=args.tol)
    for v in violations:
        print(str(v), file=sys.stderr)
    sys.stdout.write(json.dumps({"violations": len(violations)}, indent=2) + "\n")
    return 1 if violations else 0


def _cmd_sweep(args) -> int:
    cfg = ScenarioConfig.from_json(args.config.read_text())
    result = run_sweep(cfg, jobs=args.jobs)
    paths = write_sweep_outputs(result, args.out)
    for path in paths:
        print(f"wrote {path}", file=sys.stderr)
    failures = [r for r in result.rows if r.status == "error"]
    for r in failures:
        print(f"cell error seed={r.seed} load={r.load} scheme={r.scheme}: {r.error}",
              file=sys.stderr)
    sys.stdout.write(
        json.dumps(
            {
                "cells": len(result.rows),
                "errors": len(failures),
                "infeasible": sum(1 for r in result.rows if r.status == "infeasible"),
                "out": str(args.out),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    return 0


def _cmd_report(args) -> int:
    sweep_dir = args.sweep_dir
    cfg = ScenarioConfig.from_json((sweep_dir / "config.json").read_text())
    rows = rows_from_csv((sweep_dir / "raw.csv").read_text())
    result = SweepResult(config=cfg, rows=rows)
    tables = summarize(result)
    for metric, text in tables.items():
        (sweep_dir / f"{metric}.csv").write_text(text)
    for metric in sorted(tables):
        sys.stdout.write(f"# {metric}\n{tables[metric]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
