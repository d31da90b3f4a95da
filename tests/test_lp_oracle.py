import hashlib
import math
import random

import numpy as np
import pytest

from cgrlab.contact_plan import (
    Contact,
    ContactPlan,
    NodeSpec,
    StateGrid,
    TopologyConfig,
    generate_random_topology,
    parse_contact_plan,
)
from cgrlab.lp_oracle import (
    Commodity,
    build_lp,
    demands_to_commodities,
    lp_metrics,
    power_weights,
    problem_to_lp_text,
    solution_flows_csv,
    solution_from_json,
    solution_to_json,
    solve_lp,
    verify_solution,
)
from cgrlab.simulator import Demand

from conftest import THREE_NODE_PLAN

TOL = 1e-6


@pytest.fixture
def fig1_commodities(fig1_demands):
    return demands_to_commodities(fig1_demands)


@pytest.fixture
def fig1_solved(fig1_plan, fig1_commodities):
    problem = build_lp(fig1_plan, fig1_commodities)
    return problem, solve_lp(problem)


def test_demands_merge_into_commodities():
    demands = [
        Demand(1, 3, 0.0, 30.0, 4),
        Demand(1, 3, 0.0, 30.0, 6),
        Demand(2, 3, 0.0, 20.0, 10),
    ]
    commodities = demands_to_commodities(demands)
    assert commodities == [
        Commodity(1, 3, 0.0, 30.0, 10.0),
        Commodity(2, 3, 0.0, 20.0, 10.0),
    ]


def test_empty_demands_give_no_commodities():
    assert demands_to_commodities([]) == []


def test_commodity_rejects_self_traffic():
    with pytest.raises(ValueError):
        Commodity(1, 1, 0.0, 10.0, 5.0)


def test_three_node_problem_shape(fig1_plan, fig1_commodities):
    problem = build_lp(fig1_plan, fig1_commodities)
    assert len(problem.x_index) == 6  # 3 single-state arcs x 2 commodities
    assert len(problem.b_index) == 24  # 3 nodes x 4 timestamps x 2 commodities
    assert problem.slack_index == {}


def test_three_node_optimum(fig1_plan, fig1_commodities, fig1_solved):
    problem, solution = fig1_solved
    assert solution.status == "optimal"
    # cheapest on-time assignment: relay traffic in state 2, direct in state 3
    assert solution.objective == pytest.approx(10 * 2 + 10 * 3)
    flows = {k: v for k, v in solution.x_flows.items() if abs(v) > TOL}
    assert flows == {
        (2, 2, 1): pytest.approx(10.0),
        (3, 3, 0): pytest.approx(10.0),
    }


def test_three_node_solution_verifies(fig1_solved):
    problem, solution = fig1_solved
    assert verify_solution(problem, solution, TOL) == []


def test_three_node_lp_metrics(fig1_plan, fig1_commodities, fig1_solved):
    _, solution = fig1_solved
    metrics = lp_metrics(fig1_plan, fig1_commodities, solution)
    assert metrics.delivery_ratio == pytest.approx(1.0)
    assert metrics.mean_hops == pytest.approx(1.0)
    assert metrics.energy_efficiency == pytest.approx(1.0)
    assert metrics.mean_delay == pytest.approx(25.0)


def test_tight_deadlines_infeasible(fig1_plan):
    demands = [Demand(1, 3, 0.0, 10.0, 10), Demand(2, 3, 0.0, 10.0, 10)]
    solution = solve_lp(build_lp(fig1_plan, demands_to_commodities(demands)))
    assert solution.status == "infeasible"


def test_zero_amount_commodities(fig1_plan):
    commodities = [Commodity(1, 3, 0.0, math.inf, 0.0)]
    solution = solve_lp(build_lp(fig1_plan, commodities))
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(0.0)


def test_no_commodities(fig1_plan):
    solution = solve_lp(build_lp(fig1_plan, []))
    assert solution.status == "optimal"
    assert solution.objective == 0.0


def test_zero_buffer_relay_is_infeasible():
    # the only path needs to hold traffic at node 2 between states
    grid = StateGrid(2, 10.0)
    plan = ContactPlan(
        grid,
        [NodeSpec(1), NodeSpec(2, 0.0), NodeSpec(3)],
        [Contact(1, 1, 2, 0.0, 10.0, 10), Contact(2, 2, 3, 10.0, 20.0, 10)],
    )
    commodities = [Commodity(1, 3, 0.0, math.inf, 5.0)]
    assert solve_lp(build_lp(plan, commodities)).status == "infeasible"
    relaxed = ContactPlan(
        grid, [NodeSpec(1), NodeSpec(2, 5.0), NodeSpec(3)], list(plan.contacts)
    )
    assert solve_lp(build_lp(relaxed, commodities)).status == "optimal"


def test_generation_time_must_be_on_grid(fig1_plan):
    with pytest.raises(ValueError):
        build_lp(fig1_plan, [Commodity(1, 3, 5.0, 10.0, 1.0)])
    with pytest.raises(ValueError):
        build_lp(fig1_plan, [Commodity(1, 3, 30.0, 10.0, 1.0)])


def test_weights_must_increase(fig1_plan, fig1_commodities):
    with pytest.raises(ValueError):
        build_lp(fig1_plan, fig1_commodities, weight=lambda q: 1.0)
    with pytest.raises(ValueError):
        power_weights(0.0)


def test_no_flow_before_generation(fig1_plan):
    commodities = [Commodity(1, 3, 10.0, math.inf, 5.0)]
    problem = build_lp(fig1_plan, commodities)
    assert all(state >= 2 for (_, state, _) in problem.x_index)
    solution = solve_lp(problem)
    assert solution.status == "optimal"
    assert verify_solution(problem, solution, TOL) == []


def test_destination_never_reemits(fig1_plan, fig1_commodities):
    plan = ContactPlan(
        fig1_plan.grid,
        list(fig1_plan.nodes),
        list(fig1_plan.contacts) + [Contact(4, 3, 1, 10.0, 20.0, 10)],
    )
    problem = build_lp(plan, fig1_commodities)
    assert all(
        plan.contact(cid).from_node != problem.commodities[k].dst
        for (cid, _, k) in problem.x_index
    )


def test_deadline_forces_on_time_arrival(fig1_plan, fig1_commodities, fig1_solved):
    _, solution = fig1_solved
    # the 20 s commodity must fully reside at its destination by t=20
    assert solution.buffers[(2, 3, 1)] == pytest.approx(10.0)


def test_weight_scaling_leaves_flows_unchanged(fig1_plan, fig1_commodities):
    base = solve_lp(build_lp(fig1_plan, fig1_commodities, weight=lambda q: float(q)))
    doubled = solve_lp(build_lp(fig1_plan, fig1_commodities, weight=lambda q: 2.0 * q))
    assert doubled.objective == pytest.approx(2.0 * base.objective)
    for key, value in base.x_flows.items():
        assert doubled.x_flows[key] == pytest.approx(value, abs=1e-7)


def test_mutated_solutions_are_rejected(fig1_solved):
    problem, solution = fig1_solved
    rng = random.Random(7)
    keys = sorted(solution.x_flows) + sorted(solution.buffers)
    for trial in range(20):
        key = rng.choice(keys)
        delta = rng.choice([1.0, -1.0])
        mutated = solution_from_json(solution_to_json(solution))
        if isinstance(key[0], int) and key in mutated.x_flows:
            mutated.x_flows[key] += delta
        else:
            mutated.buffers[key] += delta
        assert verify_solution(problem, mutated, TOL), f"mutation {trial} not caught"


def test_all_zero_solution_violates_final_residence(fig1_plan, fig1_commodities):
    problem = build_lp(fig1_plan, fig1_commodities)
    empty = solution_from_json(
        solution_to_json(solve_lp(problem))
    )
    for key in empty.x_flows:
        empty.x_flows[key] = 0.0
    for key in empty.buffers:
        empty.buffers[key] = 0.0
    violations = verify_solution(problem, empty, TOL)
    assert any(v.constraint == "fin" for v in violations)


def test_verify_rejects_shape_mismatch(fig1_solved):
    problem, solution = fig1_solved
    alien = solution_from_json(solution_to_json(solution))
    alien.x_flows[(99, 1, 0)] = 1.0
    with pytest.raises(ValueError):
        verify_solution(problem, alien, TOL)


def test_soft_mode_reports_partial_delivery(fig1_plan):
    demands = [Demand(1, 3, 0.0, 30.0, 10), Demand(2, 3, 0.0, 10.0, 10)]
    commodities = demands_to_commodities(demands)
    problem = build_lp(fig1_plan, commodities, soft=True)
    solution = solve_lp(problem)
    assert solution.status == "optimal"
    assert sum(solution.slacks.values()) == pytest.approx(10.0)
    assert verify_solution(problem, solution, TOL) == []
    metrics = lp_metrics(fig1_plan, commodities, solution)
    assert metrics.delivery_ratio == pytest.approx(0.5)


def test_soft_mode_never_drops_when_feasible(fig1_plan, fig1_commodities):
    problem = build_lp(fig1_plan, fig1_commodities, soft=True)
    solution = solve_lp(problem)
    assert sum(solution.slacks.values()) == pytest.approx(0.0, abs=1e-6)


def test_lp_text_export(fig1_plan, fig1_commodities):
    problem = build_lp(fig1_plan, fig1_commodities)
    text = problem_to_lp_text(problem)
    assert text.startswith("Minimize")
    assert "Subject To" in text and text.rstrip().endswith("End")
    assert "X_c2_s2_k1" in text
    assert text == problem_to_lp_text(problem)


def test_flows_csv(fig1_plan, fig1_commodities, fig1_solved):
    problem, solution = fig1_solved
    lines = solution_flows_csv(problem, solution).strip().split("\n")
    assert lines[0] == "state,contact,from,to,commodity,src,dst,t_gen,ttl,value"
    assert len(lines) == 3
    assert lines[1].startswith("2,2,2,3,1,2,3,0.0,20.0,")


def test_solution_json_round_trip(fig1_solved):
    _, solution = fig1_solved
    again = solution_from_json(solution_to_json(solution))
    assert again.status == solution.status
    assert again.objective == pytest.approx(solution.objective)
    assert again.x_flows == solution.x_flows
    assert again.buffers == solution.buffers


def test_mean_hops_at_least_one_on_random_instances():
    for seed in range(25):
        rng = random.Random(seed)
        node_count = rng.randint(3, 5)
        grid = StateGrid(rng.randint(2, 5), 10.0)
        contacts = []
        for cid in range(1, rng.randint(4, 10) + 1):
            a, b = rng.sample(range(1, node_count + 1), 2)
            q = rng.randint(1, grid.state_count)
            contacts.append(Contact(cid, a, b, grid.state_start(q), grid.state_end(q), rng.randint(1, 8)))
        plan = ContactPlan(grid, [NodeSpec(i) for i in range(1, node_count + 1)], contacts)
        src, dst = rng.sample(sorted(plan.node_ids), 2)
        commodities = [Commodity(src, dst, 0.0, math.inf, float(rng.randint(1, 5)))]
        problem = build_lp(plan, commodities)
        solution = solve_lp(problem)
        if solution.status != "optimal":
            continue
        assert verify_solution(problem, solution, TOL) == []
        metrics = lp_metrics(plan, commodities, solution)
        assert metrics.mean_hops is not None and metrics.mean_hops >= 1.0 - TOL


def _study_inputs(seed: int, load: int, injection: str):
    """The congestion study's plan and commodities for one seed and load."""
    grid = StateGrid(10, 10.0)
    plan = generate_random_topology(TopologyConfig(11, 0.2, 10, grid, seed=seed))
    times = [0.0] if injection == "burst" else [grid.state_start(q) for q in range(1, 11)]
    demands = [
        Demand(src, 11, t, math.inf if src <= 5 else 20.0, load)
        for t in times
        for src in range(1, 11)
    ]
    return plan, demands_to_commodities(demands)


def _model_digests(problem) -> dict[str, str]:
    """Truncated SHA-256 of every array and name list the solver receives."""

    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    out = {
        name: digest("\n".join(getattr(problem, name)).encode())
        for name in ("var_names", "eq_names", "ub_names")
    }
    for name in ("objective", "b_eq", "b_ub"):
        out[name] = digest(np.asarray(getattr(problem, name), dtype=np.float64).tobytes())
    for name in ("a_eq", "a_ub"):
        matrix = getattr(problem, name)
        for part, dtype in (("indptr", np.int64), ("indices", np.int64), ("data", np.float64)):
            out[f"{name}.{part}"] = (
                None
                if matrix is None
                else digest(np.asarray(getattr(matrix, part), dtype=dtype).tobytes())
            )
    return out


def _buffered_three_node_plan():
    plan = parse_contact_plan(THREE_NODE_PLAN)
    nodes = [NodeSpec(1), NodeSpec(2, 15.0), NodeSpec(3)]
    return ContactPlan(plan.grid, nodes, list(plan.contacts))


# Digests of the models as the tuple-list assembler built them before rows
# came from index arrays. Any change to the order of variables, rows or
# coefficients shows here, and HiGHS would then see a different input.
_EMPTY = "e3b0c44298fc1c14"
PINNED_MODELS = {
    "study-seed1-load5-hard": (
        lambda: _study_inputs(1, 5, "burst"),
        False,
        {
            "var_names": "6dc8201b09b23162",
            "eq_names": "e016ea58d067820c",
            "ub_names": "5adbce9f292c936b",
            "objective": "4bc0e191644d2f9c",
            "b_eq": "b3fa879d8e896fc5",
            "b_ub": "b18d40c673011aa5",
            "a_eq.indptr": "d8593eb525974c60",
            "a_eq.indices": "767b365faca79543",
            "a_eq.data": "504d3a3a44095bb8",
            "a_ub.indptr": "366fe00b30450ee5",
            "a_ub.indices": "cf6be7d33c52281f",
            "a_ub.data": "549c99622b0e484d",
        },
    ),
    "perstate-seed2-load3-soft": (
        lambda: _study_inputs(2, 3, "per-state"),
        True,
        {
            "var_names": "c83c697cbb8364a0",
            "eq_names": "f9f592bb6c90487f",
            "ub_names": "588ac2bbf7e7cbde",
            "objective": "895e2ee7a4a9a3ef",
            "b_eq": "fdc760eea8235435",
            "b_ub": "99740046f175f17b",
            "a_eq.indptr": "cf4127c6e860ca8c",
            "a_eq.indices": "90d1ac32089edc6f",
            "a_eq.data": "859cb148da594772",
            "a_ub.indptr": "b155094c45b8ca89",
            "a_ub.indices": "82a22f5d437e9cb8",
            "a_ub.data": "c674b748c775378a",
        },
    ),
    "three-node-finite-buffer": (
        lambda: (
            _buffered_three_node_plan(),
            demands_to_commodities([Demand(1, 3, 0.0, 30.0, 10), Demand(2, 3, 0.0, 20.0, 10)]),
        ),
        False,
        {
            "var_names": "92ca9385a1796751",
            "eq_names": "62778c61d6d408a4",
            "ub_names": "6be68f23ab464937",
            "objective": "37174d35a97228c9",
            "b_eq": "f2fca933d8c2f62d",
            "b_ub": "3a99bc849a972b17",
            "a_eq.indptr": "2bdd59f6fccfe304",
            "a_eq.indices": "bde6721e5b36a2dd",
            "a_eq.data": "8f2baf27dcbc9e11",
            "a_ub.indptr": "94fb75552e893527",
            "a_ub.indices": "9213e6c3b0f98a58",
            "a_ub.data": "3e51651775f12c21",
        },
    ),
    "three-node-no-commodities": (
        lambda: (parse_contact_plan(THREE_NODE_PLAN), []),
        False,
        {
            **{name: _EMPTY for name in ("var_names", "eq_names", "ub_names")},
            **{name: _EMPTY for name in ("objective", "b_eq", "b_ub")},
            **{
                f"{m}.{part}": None
                for m in ("a_eq", "a_ub")
                for part in ("indptr", "indices", "data")
            },
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_MODELS))
def test_model_layout_is_pinned(name):
    inputs, soft, expected = PINNED_MODELS[name]
    plan, commodities = inputs()
    assert _model_digests(build_lp(plan, commodities, soft=soft)) == expected
