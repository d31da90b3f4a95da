"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
congestion-study sweep (criteria 4 and 5) is computed once per session.

Known red: criterion 5's energy-ordering sub-check (c). Under the discrete
forwarding time model, doomed packets die mostly at their source with zero
transmissions spent while the flow bound spends extra arcs rescuing traffic
the policies cannot attempt, so the bound's efficiency lands below the
earliest-delivery policy instead of between the two policies. The check is
asserted as stated rather than loosened; see README for the full account.
"""

import json
import math
import random
import time

import pytest

from cgrlab.contact_plan import StateGrid, TopologyConfig, parse_contact_plan
from cgrlab.contact_graph import earliest_delivery_route, k_best_routes
from cgrlab.experiments import (
    LpConfig,
    RoutingConfig,
    ScenarioConfig,
    TrafficConfig,
    run_sweep,
)
from cgrlab.forwarding import Policy
from cgrlab.lp_oracle import (
    build_lp,
    demands_to_commodities,
    solution_from_json,
    solution_to_json,
    solve_lp,
    verify_solution,
)
from cgrlab.simulator import Demand, run_simulation
from cgrlab.cli import main

from conftest import THREE_NODE_PLAN, random_demands, random_small_plan
from oracles import enumerate_routes

TOL = 1e-6


def _report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")


@pytest.fixture(scope="module")
def study_sweep():
    """The 25-seed congestion study used by criteria 4 and 5."""
    cfg = ScenarioConfig(
        topology=TopologyConfig(11, 0.2, 10, StateGrid(10, 10.0), seed=0),
        traffic=TrafficConfig(
            destination=11,
            no_ttl_sources=(1, 2, 3, 4, 5),
            ttl_sources=(6, 7, 8, 9, 10),
            ttl_value=20.0,
        ),
        routing=RoutingConfig(k_routes=4),
        schemes=("DELTIME", "HOPS", "LP"),
        seeds=tuple(range(1, 26)),
        loads=(1, 2, 3, 4, 5),
        lp=LpConfig(weight_exponent=1.0, soft=False),
    )
    start = time.monotonic()
    result = run_sweep(cfg)
    elapsed = time.monotonic() - start
    return cfg, result, elapsed


def test_criterion_1_three_node_golden():
    started = time.monotonic()
    plan = parse_contact_plan(THREE_NODE_PLAN)
    demands = [Demand(1, 3, 0.0, 30.0, 10), Demand(2, 3, 0.0, 20.0, 10)]

    deltime = run_simulation(plan, demands, Policy.DELTIME, 2)
    hops = run_simulation(plan, demands, Policy.HOPS, 2)

    commodities = demands_to_commodities(demands)
    problem = build_lp(plan, commodities)
    solution = solve_lp(problem)
    flows = {k: v for k, v in solution.x_flows.items() if abs(v) > TOL}
    elapsed = time.monotonic() - started

    ok = (
        deltime.count("delivered_on_time") == 10
        and deltime.generated() == 20
        and hops.count("delivered_on_time") == 20
        and solution.status == "optimal"
        and flows == {(2, 2, 1): pytest.approx(10.0), (3, 3, 0): pytest.approx(10.0)}
        and elapsed < 1.0
    )
    _report(
        "criterion 1: three-node golden run",
        ok,
        f"deltime 10/20, hops 20/20, lp exact flows, {elapsed:.2f}s",
    )
    assert deltime.count("delivered_on_time") == 10
    assert hops.count("delivered_on_time") == 20
    assert solution.status == "optimal"
    assert flows == {(2, 2, 1): pytest.approx(10.0), (3, 3, 0): pytest.approx(10.0)}
    assert elapsed < 1.0


def test_criterion_2_route_search_matches_enumeration():
    started = time.monotonic()
    mismatches = 0
    for seed in range(100):
        rng = random.Random(seed)
        plan = random_small_plan(rng, max_contacts=8)
        nodes = sorted(plan.node_ids)
        src, dst = nodes[0], nodes[-1]
        expected = enumerate_routes(plan, src, dst, 0.0)

        best = earliest_delivery_route(plan, src, dst, 0.0)
        if expected:
            if best is None or best.contacts != expected[0][2] or plan.grid.state_end(best.states[-1]) != pytest.approx(expected[0][0]):
                mismatches += 1
        elif best is not None:
            mismatches += 1

        for k in (1, 2, 4):
            got = k_best_routes(plan, src, dst, 0.0, k)
            want = expected[:k]
            if [r.contacts for r in got] != [ids for _, _, ids in want]:
                mismatches += 1
            if [plan.grid.state_end(r.states[-1]) for r in got] != pytest.approx([d for d, _, _ in want]):
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 10.0
    _report(
        "criterion 2: search equals brute-force enumeration",
        ok,
        f"100 plans, K up to 4, {elapsed:.2f}s",
    )
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_3_verifier_certifies_and_catches_mutations():
    golden = parse_contact_plan(THREE_NODE_PLAN)
    instances = [
        (golden, [Demand(1, 3, 0.0, 30.0, 10), Demand(2, 3, 0.0, 20.0, 10)]),
        (golden, [Demand(1, 3, 0.0, math.inf, 7), Demand(2, 3, 10.0, 20.0, 3)]),
    ]
    for seed in range(10):
        plan_rng = random.Random(500 + seed)
        rplan = random_small_plan(plan_rng, max_contacts=12)
        instances.append((rplan, random_demands(plan_rng, rplan, max_demands=3)))
    for seed in (1, 2, 3):  # study-scale instances
        from cgrlab.contact_plan import generate_random_topology

        plan = generate_random_topology(
            TopologyConfig(11, 0.2, 10, StateGrid(10, 10.0), seed=seed)
        )
        demands = [Demand(s, 11, 0.0, math.inf, 5) for s in (1, 2, 3, 4, 5)]
        demands += [Demand(s, 11, 0.0, 20.0, 5) for s in (6, 7, 8, 9, 10)]
        instances.append((plan, demands))

    rng = random.Random(2024)
    certified = 0
    mutations_caught = 0
    mutations_total = 0
    problems = []
    for use_plan, demands in instances:
        problem = build_lp(use_plan, demands_to_commodities(demands))
        solution = solve_lp(problem)
        if solution.status != "optimal":
            continue
        assert verify_solution(problem, solution, TOL) == []
        certified += 1
        if sorted(solution.x_flows) + sorted(solution.buffers):
            problems.append((problem, solution))

    while mutations_total < 20:
        problem, solution = problems[mutations_total % len(problems)]
        keys = sorted(solution.x_flows) + sorted(solution.buffers)
        key = rng.choice(keys)
        mutated = solution_from_json(solution_to_json(solution))
        delta = rng.choice([1.0, -1.0])
        if key in mutated.x_flows:
            mutated.x_flows[key] += delta
        else:
            mutated.buffers[key] += delta
        mutations_total += 1
        if verify_solution(problem, mutated, TOL):
            mutations_caught += 1

    ok = certified >= 3 and mutations_caught == mutations_total == 20
    _report(
        "criterion 3: verifier certifies optima and rejects mutations",
        ok,
        f"{certified} optima certified, {mutations_caught}/20 mutations caught",
    )
    assert certified >= 3
    assert mutations_caught == 20


def test_criterion_4_lp_is_an_upper_bound(study_sweep):
    cfg, result, _ = study_sweep
    feasible = 0
    exceptions = []
    for seed in cfg.seeds:
        for load in cfg.loads:
            lp_row = result.cell(seed, load, "LP")
            if lp_row.status != "ok":
                continue
            feasible += 1
            if abs(lp_row.metrics.delivery_ratio - 1.0) > 1e-9:
                exceptions.append((seed, load, "ratio != 1"))
            for scheme in ("DELTIME", "HOPS"):
                other = result.cell(seed, load, scheme)
                if lp_row.metrics.delivery_ratio < other.metrics.delivery_ratio - 1e-9:
                    exceptions.append((seed, load, scheme))
    ok = feasible > 0 and not exceptions
    _report(
        "criterion 4: optimal flow bound dominates both policies",
        ok,
        f"{feasible} feasible cells, {len(exceptions)} exceptions",
    )
    assert feasible > 0
    assert exceptions == []


def _paired_mean_difference(result, load, scheme_a, metric_a, scheme_b, metric_b):
    values_a = {
        r.seed: r.metrics.as_dict()[metric_a]
        for r in result.rows
        if r.scheme == scheme_a and r.load == load and r.metrics
        and r.metrics.as_dict()[metric_a] is not None
    }
    values_b = {
        r.seed: r.metrics.as_dict()[metric_b]
        for r in result.rows
        if r.scheme == scheme_b and r.load == load and r.metrics
        and r.metrics.as_dict()[metric_b] is not None
    }
    common = sorted(set(values_a) & set(values_b))
    assert common, f"no paired seeds for {scheme_a}/{scheme_b} at load {load}"
    return sum(values_a[s] - values_b[s] for s in common) / len(common)


def test_criterion_5_trend_reproduction(study_sweep):
    cfg, result, elapsed = study_sweep
    top = cfg.loads[-1]

    # (a) delivery ratio non-increasing in load, 1 pp noise allowed per step
    ok_a = True
    for scheme in ("DELTIME", "HOPS"):
        means = []
        for load in cfg.loads:
            vals = result.metric_values(scheme, load, "delivery_ratio")
            means.append(sum(vals) / len(vals))
        for earlier, later in zip(means, means[1:]):
            if later > earlier + 0.01:
                ok_a = False

    # (b) at the highest load the fewest-hops policy delivers at least as much
    diff_b = _paired_mean_difference(
        result, top, "HOPS", "delivery_ratio", "DELTIME", "delivery_ratio"
    )
    ok_b = diff_b >= 0

    # (c) energy efficiency ordering HOPS >= LP >= DELTIME at the highest load
    diff_hl = _paired_mean_difference(
        result, top, "HOPS", "energy_efficiency", "LP", "energy_efficiency"
    )
    diff_ld = _paired_mean_difference(
        result, top, "LP", "energy_efficiency", "DELTIME", "energy_efficiency"
    )
    ok_c = diff_hl >= 0 and diff_ld >= 0

    # (d) delay ordering LP <= DELTIME <= HOPS among on-time deliveries
    diff_dl = _paired_mean_difference(result, top, "DELTIME", "mean_delay", "LP", "mean_delay")
    diff_hd = _paired_mean_difference(result, top, "HOPS", "mean_delay", "DELTIME", "mean_delay")
    ok_d = diff_dl >= 0 and diff_hd >= 0

    ok_time = elapsed < 600.0
    detail = (
        f"a={'ok' if ok_a else 'VIOLATED'}, "
        f"b={'ok' if ok_b else 'VIOLATED'}[H-D={diff_b:+.3f}], "
        f"c={'ok' if ok_c else 'VIOLATED'}[H-L={diff_hl:+.3f}, L-D={diff_ld:+.3f}], "
        f"d={'ok' if ok_d else 'VIOLATED'}[D-L={diff_dl:+.2f}, H-D={diff_hd:+.2f}], "
        f"sweep {elapsed:.0f}s"
    )
    _report("criterion 5: trend reproduction", ok_a and ok_b and ok_c and ok_d and ok_time, detail)
    assert ok_time, f"sweep took {elapsed:.0f}s"
    assert ok_a, "delivery ratio must be non-increasing in load (1 pp tolerance)"
    assert ok_b, f"fewest-hops must deliver at least as much at the top load, got {diff_b:+.3f}"
    assert ok_c, (
        f"energy ordering HOPS >= LP >= DELTIME violated: "
        f"HOPS-LP={diff_hl:+.3f}, LP-DELTIME={diff_ld:+.3f}"
    )
    assert ok_d, (
        f"delay ordering LP <= DELTIME <= HOPS violated: "
        f"DELTIME-LP={diff_dl:+.2f}, HOPS-DELTIME={diff_hd:+.2f}"
    )


def test_criterion_6_conservation_suite():
    started = time.monotonic()
    violations = 0
    runs = 0
    for seed in range(1000):
        rng = random.Random(seed)
        plan = random_small_plan(rng, max_contacts=12)
        demands = random_demands(rng, plan)
        policy = Policy.DELTIME if seed % 2 else Policy.HOPS
        result = run_simulation(plan, demands, policy, k_routes=1 + seed % 4)
        runs += 1
        generated = sum(d.count for d in demands)
        accounted = sum(
            result.count(o)
            for o in ("delivered_on_time", "delivered_late", "dropped", "stranded")
        )
        if accounted != generated or result.generated() != generated:
            violations += 1
        if any(
            used > plan.contact(cid).capacity
            for (cid, _), used in result.utilization.items()
        ):
            violations += 1
        if any(
            r.delay is None or r.delay > r.ttl
            for r in result.records
            if r.outcome == "delivered_on_time"
        ):
            violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0
    _report(
        "criterion 6: conservation, capacity, and deadline soundness",
        ok,
        f"{runs} randomized runs, {violations} violations, {elapsed:.1f}s",
    )
    assert violations == 0


def test_criterion_7_cli_determinism(tmp_path, capsys):
    plan_path = tmp_path / "plan.cp"
    demands_path = tmp_path / "demands.json"
    config_path = tmp_path / "config.json"
    demands_path.write_text(
        json.dumps(
            [
                {"src": 1, "dst": 3, "t_gen": 0.0, "ttl": 30.0, "count": 10},
                {"src": 2, "dst": 3, "t_gen": 0.0, "ttl": 20.0, "count": 10},
            ]
        )
    )
    plan_path.write_text(THREE_NODE_PLAN)
    config_path.write_text(
        json.dumps(
            {
                "topology": {"node_count": 6, "density": 0.3, "capacity": 5,
                             "states": 5, "state_duration": 10.0},
                "traffic": {"destination": 6, "no_ttl_sources": [1, 2],
                            "ttl_sources": [3], "ttl_value": 20.0},
                "routing": {"k_routes": 2},
                "schemes": ["DELTIME", "HOPS", "LP"],
                "seeds": [1, 2],
                "loads": [1, 2],
                "lp": {"weight_exponent": 1.0, "soft": False},
            }
        )
    )

    def snapshot(run: int) -> dict[str, bytes]:
        out: dict[str, bytes] = {}
        gen_path = tmp_path / f"gen{run}.cp"
        assert main(["gen", "--nodes", "8", "--states", "6", "--dur", "10",
                     "--density", "0.25", "--seed", "11", "--out", str(gen_path)]) == 0
        out["gen"] = gen_path.read_bytes()
        capsys.readouterr()
        assert main(["sim", "--plan", str(plan_path), "--demands", str(demands_path),
                     "--policy", "hops", "-k", "2"]) == 0
        out["sim"] = capsys.readouterr().out.encode()
        assert main(["lp", "--plan", str(plan_path), "--demands", str(demands_path)]) == 0
        out["lp"] = capsys.readouterr().out.encode()
        sweep_dir = tmp_path / f"sweep{run}"
        assert main(["sweep", "--config", str(config_path), "--out", str(sweep_dir)]) == 0
        capsys.readouterr()
        for name in ("raw.csv", "delivery_ratio.csv", "mean_hops.csv",
                     "mean_delay.csv", "energy_efficiency.csv", "manifest.json"):
            out[name] = (sweep_dir / name).read_bytes()
        assert main(["routes", "--plan", str(plan_path), "--owner", "1", "-k", "2"]) == 0
        out["routes"] = capsys.readouterr().out.encode()
        return out

    first = snapshot(1)
    second = snapshot(2)
    same = {key for key in first if first[key] == second[key]}
    ok = same == set(first)
    _report(
        "criterion 7: replayed commands are byte-identical",
        ok,
        f"{len(same)}/{len(first)} outputs identical",
    )
    assert first == second
