import dataclasses
import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

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
    LpSession,
    LpSolution,
    Violation,
    _within_bounds,
    build_lp,
    demands_to_commodities,
    lp_metrics,
    problem_to_lp_text,
    solution_flows_csv,
    solution_from_json,
    solution_to_json,
    solve_lp,
    state_weights,
    verify_solution,
)
from cgrlab.simulator import Demand

from conftest import THREE_NODE_PLAN, random_small_plan
from oracles import reference_lp_metrics, reference_verify_solution, solve_full_lp

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
        Commodity(3, 0.0, 30.0, ((1, 10.0),)),
        Commodity(3, 0.0, 20.0, ((2, 10.0),)),
    ]


def test_demands_of_one_class_share_a_commodity(fig1_plan):
    demands = [
        Demand(2, 3, 0.0, 20.0, 10),
        Demand(2, 3, 0.0, 30.0, 5),
        Demand(1, 3, 0.0, 30.0, 4),
        Demand(1, 3, 0.0, 30.0, 6),
    ]
    commodities = demands_to_commodities(demands)
    # classes in the order of their first (src, dst, t_gen, ttl) member
    assert commodities == [
        Commodity(3, 0.0, 30.0, ((1, 10.0), (2, 5.0))),
        Commodity(3, 0.0, 20.0, ((2, 10.0),)),
    ]
    assert commodities[0].amount == 15.0
    problem = build_lp(fig1_plan, commodities[:1])
    solution = solve_lp(problem)
    assert verify_solution(problem, solution, TOL) == []
    assert solution.buffers[(3, 3, 0)] == pytest.approx(15.0)
    lines = solution_flows_csv(problem, solution).strip().split("\n")
    assert all(line.split(",")[5] == "1;2" for line in lines[1:])


def test_empty_demands_give_no_commodities():
    assert demands_to_commodities([]) == []


def test_commodity_rejects_self_traffic():
    with pytest.raises(ValueError):
        Commodity(1, 0.0, 10.0, ((1, 5.0),))


@pytest.mark.parametrize(
    "supply",
    [
        (),  # no source
        ((1, -1.0),),  # negative amount
        ((1, 5.0), (3, 5.0)),  # a source equal to the destination
        ((1, 5.0), (1, 2.0)),  # a source listed twice
    ],
)
def test_commodity_rejects_malformed_supply(supply):
    with pytest.raises(ValueError):
        Commodity(3, 0.0, 10.0, supply)


def test_three_node_problem_shape(fig1_plan, fig1_commodities):
    problem = build_lp(fig1_plan, fig1_commodities)
    # 3 single-state arcs x 2 commodities, less the ttl-20 commodity's
    # state-3 arc, which ends after its deadline
    assert len(problem.x_index) == 5
    assert (3, 3, 1) not in problem.x_index
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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_verify_rejects_a_tol_that_is_not_finite_and_nonnegative(fig1_solved, tol):
    problem, solution = fig1_solved
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        verify_solution(problem, solution, tol)
    assert verify_solution(problem, solution, 0.0) == []


def test_three_node_lp_metrics(fig1_plan, fig1_commodities, fig1_solved):
    _, solution = fig1_solved
    metrics = lp_metrics(fig1_plan, fig1_commodities, solution)
    assert metrics.delivery_ratio == pytest.approx(1.0)
    assert metrics.mean_hops == pytest.approx(1.0)
    assert metrics.energy_efficiency == pytest.approx(1.0)
    assert metrics.mean_delay == pytest.approx(25.0)


def test_lp_metrics_reads_on_time_arrivals_by_the_grid_deadline_rule():
    # The deadline 0.002 - 1e-10 lies just before the end of state 2, so its
    # boundary is 1: the unit arriving in state 2 is late, as the simulator
    # and the model's ddl rows count it.
    plan = parse_contact_plan(
        "plan 3 0.001\nnode 1 inf\nnode 2 inf\n"
        "contact 1 1 2 0 0.001 1\ncontact 2 1 2 0.001 0.002 1\n"
    )
    commodities = [Commodity(2, 0.0, 0.002 - 1e-10, ((1, 2.0),))]
    assert plan.grid.floor_boundary_index(commodities[0].deadline) == 1
    solution = LpSolution("optimal", 3.0, x_flows={(1, 1, 0): 1.0, (2, 2, 0): 1.0})
    assert lp_metrics(plan, commodities, solution).mean_delay == pytest.approx(0.001)


def test_tight_deadlines_infeasible(fig1_plan):
    demands = [Demand(1, 3, 0.0, 10.0, 10), Demand(2, 3, 0.0, 10.0, 10)]
    solution = solve_lp(build_lp(fig1_plan, demands_to_commodities(demands)))
    assert solution.status == "infeasible"


def test_zero_amount_commodities(fig1_plan):
    commodities = [Commodity(3, 0.0, math.inf, ((1, 0.0),))]
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
    commodities = [Commodity(3, 0.0, math.inf, ((1, 5.0),))]
    assert solve_lp(build_lp(plan, commodities)).status == "infeasible"
    relaxed = ContactPlan(
        grid, [NodeSpec(1), NodeSpec(2, 5.0), NodeSpec(3)], list(plan.contacts)
    )
    assert solve_lp(build_lp(relaxed, commodities)).status == "optimal"


def test_generation_time_must_be_on_grid(fig1_plan):
    with pytest.raises(ValueError):
        build_lp(fig1_plan, [Commodity(3, 5.0, 10.0, ((1, 1.0),))])
    with pytest.raises(ValueError):
        build_lp(fig1_plan, [Commodity(3, 30.0, 10.0, ((1, 1.0),))])


def test_weights_must_increase(fig1_plan, fig1_commodities):
    assert state_weights(1.0, 3) == (1.0, 2.0, 3.0)
    assert state_weights(2.0, 3) == (1.0, 4.0, 9.0)
    # 400 overflows at q = 10 on a 10-state plan; at 1e-300 every weight
    # rounds to 1.0.
    plan, commodities = _study_inputs(1, 1, "burst")
    for exponent in (0.0, -1.0, math.nan, math.inf, 400.0, 1e-300):
        with pytest.raises(ValueError, match="weight exponent"):
            build_lp(plan, commodities, exponent)
    with pytest.raises(ValueError, match="weight exponent"):
        build_lp(fig1_plan, fig1_commodities, 0.0)


def test_no_flow_before_generation(fig1_plan):
    commodities = [Commodity(3, 10.0, math.inf, ((1, 5.0),))]
    problem = build_lp(fig1_plan, commodities)
    assert all(state >= 2 for (_, state, _) in problem.x_index)
    assert sorted({t for (t, _, _) in problem.b_index}) == [1, 2, 3]
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


# One mutation per constraint family on the buffered three-node optimum:
# (family, "x" for a flow, "b" for a buffer or "s" for a slack, key,
# delta). Slack mutations run on the soft model, the others on the hard
# one.
FAMILY_MUTATIONS = [
    ("nonnegative", "b", (1, 2, 0), -1.0),
    ("init", "b", (0, 1, 0), 1.0),
    ("bal", "x", (3, 3, 0), -1.0),
    ("ddl", "b", (2, 3, 1), -1.0),
    ("fin", "b", (3, 3, 0), -1.0),
    ("arccap", "x", (3, 3, 0), 1.0),
    ("bufcap", "b", (1, 2, 1), 10.0),
    ("nonnegative", "x", (3, 3, 0), -20.0),
    ("nonnegative", "s", 0, -0.5),
    # Class 1's deadline row counts its slack as dropped: a negative slack
    # asks for more than its amount at the destination.
    ("ddl", "s", 1, -1.0),
    ("fin", "s", 0, 1.0),
]


@pytest.mark.parametrize("family, kind, key, delta", FAMILY_MUTATIONS)
def test_each_constraint_family_reports_its_violations(fig1_demands, family, kind, key, delta):
    problem = build_lp(
        _buffered_three_node_plan(), demands_to_commodities(fig1_demands), soft=kind == "s"
    )
    solution = solve_lp(problem)
    assert verify_solution(problem, solution, TOL) == []
    name = {"x": "x_flows", "b": "buffers", "s": "slacks"}[kind]
    values = dict(getattr(solution, name))
    values[key] += delta
    mutated = dataclasses.replace(solution, **{name: values})
    assert family in {v.constraint for v in verify_solution(problem, mutated, TOL)}


def test_structural_violations_are_reported(fig1_plan):
    # The model has no variable for these flows, so the problem's index
    # map is widened to let the verifier see them.
    plan = ContactPlan(
        fig1_plan.grid,
        list(fig1_plan.nodes),
        list(fig1_plan.contacts) + [Contact(4, 3, 1, 10.0, 20.0, 10)],
    )
    problem = build_lp(plan, [Commodity(3, 10.0, math.inf, ((1, 5.0),))])
    solution = solve_lp(problem)
    for key, family in (((1, 1, 0), "no-early-send"), ((4, 2, 0), "dest-no-reemit")):
        widened = dataclasses.replace(problem, x_index={**problem.x_index, key: -1})
        mutated = solution_from_json(solution_to_json(solution))
        mutated.x_flows[key] = 1.0
        assert family in {v.constraint for v in verify_solution(widened, mutated, TOL)}


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


def _differential_inputs(rng):
    """A small plan, on a 10 s or a 0.001 s grid, with buffers inf, 0 or 8,
    and classes of one destination generated at several states with no
    deadline or one shared deadline (so some groups merge), plus a few
    random classes."""
    base = random_small_plan(rng, max_contacts=20)
    grid = StateGrid(base.grid.state_count, rng.choice([10.0, 0.001]))
    contacts = [
        dataclasses.replace(
            c,
            start=grid.state_start(round(c.start / 10.0) + 1),
            end=grid.state_end(round(c.end / 10.0)),
        )
        for c in base.contacts
    ]
    nodes = [NodeSpec(n.node_id, rng.choice([math.inf, math.inf, 0.0, 8.0])) for n in base.nodes]
    plan = ContactPlan(grid, nodes, contacts)
    dst = rng.choice(sorted(plan.node_ids))
    others = sorted(plan.node_ids - {dst})
    deadline = grid.state_start(rng.randint(1, grid.state_count)) + grid.state_duration * rng.choice(
        [0, 1, 3]
    )
    states = rng.sample(range(1, grid.state_count + 1), rng.randint(1, min(3, grid.state_count)))
    demands = [
        Demand(src, dst, t_gen, ttl, rng.randint(1, 3))
        for t_gen in map(grid.state_start, states)
        for ttl in (math.inf, deadline - t_gen)
        if ttl >= 0 and rng.random() < 0.8
        for src in rng.sample(others, rng.randint(1, len(others)))
    ]
    for _ in range(rng.randint(0, 2)):
        src, other = rng.sample(sorted(plan.node_ids), 2)
        t_gen = grid.state_start(rng.randint(1, grid.state_count))
        ttl = rng.choice([math.inf, 0.0, 1.0, 2.0]) * grid.state_duration
        demands.append(Demand(src, other, t_gen, ttl, rng.randint(1, 4)))
    return plan, demands_to_commodities(demands)


@given(seed=st.integers(0, 2**32 - 1), soft=st.booleans())
@settings(max_examples=300, deadline=None)
def test_array_verifier_matches_the_loop_verifier(seed, soft):
    # Both verifiers see the certified optimum, a random single-entry
    # mutation of it, an all-zero solution and one with missing keys. The
    # index maps are widened to every variable of the full model, so a
    # mutation may also send early or from a destination. A hard model
    # with no optimum starts from the soft model's, without its slacks,
    # and failing that from zeros: not certified, but read alike all the
    # same.
    rng = random.Random(seed)
    plan, commodities = _differential_inputs(rng)
    problem = build_lp(plan, commodities, soft=soft)
    solution = solve_lp(problem)
    event(f"{'soft' if soft else 'hard'} model: {solution.status}")
    if solution.status != "optimal" and not soft:
        solution = solve_lp(build_lp(plan, commodities, soft=True))
        solution.slacks = {}
    if solution.status != "optimal":
        solution = LpSolution("optimal", 0.0, dict.fromkeys(problem.x_index, 0.0),
                              dict.fromkeys(problem.b_index, 0.0),
                              dict.fromkeys(problem.slack_index, 0.0))
    n = len(commodities)
    widened = dataclasses.replace(
        problem,
        x_index=dict.fromkeys(
            (cid, q, k)
            for cid, q in zip(plan.arcs.contact_id.tolist(), plan.arcs.state.tolist())
            for k in range(n)
        ),
        b_index=dict.fromkeys(
            (t, v, k) for t in range(plan.grid.state_count + 1) for v in plan.node_ids
            for k in range(n)
        ),
    )

    def copy(sol):
        return LpSolution(sol.status, sol.objective, dict(sol.x_flows), dict(sol.buffers),
                          dict(sol.slacks))

    mutated = copy(solution)
    kind = rng.choice(["x", "b", "s"] if soft else ["x", "b"])
    values = {"x": mutated.x_flows, "b": mutated.buffers, "s": mutated.slacks}[kind]
    index = {"x": widened.x_index, "b": widened.b_index, "s": widened.slack_index}[kind]
    if index:
        key = rng.choice(list(index))
        values[key] = values.get(key, 0.0) + rng.choice([1.0, -1.0, 1e-7, -2.5, 3.0])
    zero = LpSolution("optimal", 0.0, dict.fromkeys(solution.x_flows, 0.0),
                      dict.fromkeys(solution.buffers, 0.0), dict.fromkeys(solution.slacks, 0.0))
    missing = copy(solution)
    for values in (missing.x_flows, missing.buffers, missing.slacks):
        for key in rng.sample(list(values), len(values) // 3):
            del values[key]
    nonfinite = copy(mutated)
    for values in (nonfinite.x_flows, nonfinite.buffers, nonfinite.slacks):
        for key in rng.sample(list(values), min(len(values), rng.randint(0, 2))):
            values[key] = rng.choice([math.nan, math.inf, -math.inf])

    for candidate in (solution, mutated, zero, missing, nonfinite):
        got = verify_solution(widened, candidate, TOL)
        want = reference_verify_solution(widened, candidate, TOL)
        assert [(v.constraint, v.location) for v in got] == [
            (v.constraint, v.location) for v in want
        ]
        for a, b in zip(got, want):
            assert math.isclose(a.amount, b.amount, rel_tol=1e-12)


def test_nonfinite_values_are_violations_in_both_verifiers(fig1_solved):
    # Every comparison with NaN is false, so a NaN solution used to pass
    # every check.
    problem, solution = fig1_solved
    nan = solution_from_json(solution_to_json(solution))
    nan.x_flows = dict.fromkeys(nan.x_flows, math.nan)
    nan.buffers = dict.fromkeys(nan.buffers, math.nan)
    got = verify_solution(problem, nan, TOL)
    assert got == reference_verify_solution(problem, nan, TOL)
    assert [v.location for v in got] == [str(key) for key in (*nan.x_flows, *nan.buffers)]
    assert {v.constraint for v in got} == {"finite"}

    one = solution_from_json(solution_to_json(solution))
    key = next(iter(one.buffers))
    one.buffers[key] = -math.inf
    got = verify_solution(problem, one, TOL)
    assert got == reference_verify_solution(problem, one, TOL) == [
        Violation("finite", str(key), math.inf)
    ]


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("field", ["objective", "x", "b"])
def test_solution_documents_with_nonfinite_numbers_are_malformed(fig1_solved, field, number):
    doc = json.loads(solution_to_json(fig1_solved[1]))
    if field == "objective":
        doc["objective"] = "NUMBER"
    else:
        doc[field][0][-1] = "NUMBER"
    text = json.dumps(doc).replace('"NUMBER"', number)
    with pytest.raises(ValueError, match="malformed solution document"):
        solution_from_json(text)


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
        commodities = [Commodity(dst, 0.0, math.inf, ((src, float(rng.randint(1, 5))),))]
        problem = build_lp(plan, commodities)
        solution = solve_lp(problem)
        if solution.status != "optimal":
            continue
        assert verify_solution(problem, solution, TOL) == []
        metrics = lp_metrics(plan, commodities, solution)
        assert metrics.mean_hops is not None and metrics.mean_hops >= 1.0 - TOL


def _one_source_classes(commodities):
    """The per-source model: one class per (src, dst, t_gen, ttl)."""
    return [Commodity(c.dst, c.t_gen, c.ttl, (entry,)) for c in commodities for entry in c.supply]


@given(seed=st.integers(0, 2**32 - 1), soft=st.booleans())
@settings(max_examples=200, deadline=None)
def test_class_commodities_match_the_per_source_model(seed, soft):
    # Random small plans with finite buffers and one to three
    # (t_gen, ttl) classes, each fed by several sources.
    rng = random.Random(seed)
    base = random_small_plan(rng, max_contacts=20)
    nodes = [NodeSpec(n.node_id, rng.choice([math.inf, math.inf, 0.0, 6.0])) for n in base.nodes]
    plan = ContactPlan(base.grid, nodes, list(base.contacts))
    dst = rng.choice(sorted(plan.node_ids))
    others = sorted(plan.node_ids - {dst})
    demands = [
        Demand(src, dst, t_gen, ttl, rng.randint(1, 3))
        for t_gen, ttl in sorted({
            (plan.grid.state_start(rng.randint(1, plan.grid.state_count)),
             rng.choice([math.inf, math.inf, 10.0, 20.0, 30.0]))
            for _ in range(rng.randint(1, 3))
        })
        for src in rng.sample(others, rng.randint(1, len(others)))
    ]
    classes = demands_to_commodities(demands)
    results = []
    for commodities in (classes, _one_source_classes(classes)):
        problem = build_lp(plan, commodities, soft=soft)
        solution = solve_lp(problem)
        if solution.status == "optimal":
            assert verify_solution(problem, solution, TOL) == []
        results.append(solution)
    aggregated, per_source = results
    assert aggregated.status == per_source.status
    if aggregated.status == "optimal":
        assert aggregated.objective == pytest.approx(per_source.objective, rel=1e-6, abs=1e-9)


def _assert_matches_the_full_model(plan, commodities, soft):
    """build_lp and the unwindowed oracle agree, and both optima certify."""
    problem = build_lp(plan, commodities, soft=soft)
    windowed = solve_lp(problem)
    full = solve_full_lp(plan, commodities, soft)
    assert windowed.status == full.status
    if windowed.status == "optimal":
        assert windowed.objective == pytest.approx(full.objective, rel=1e-6, abs=1e-9)
        assert verify_solution(problem, windowed, TOL) == []
        # The verifier checks the full model; widen the problem's index
        # maps so it accepts the oracle's extra variables.
        widened = dataclasses.replace(
            problem, x_index=dict.fromkeys(full.x_flows), b_index=dict.fromkeys(full.buffers)
        )
        assert verify_solution(widened, full, TOL) == []
    return windowed


@given(seed=st.integers(0, 2**32 - 1), soft=st.booleans())
@settings(max_examples=200, deadline=None)
def test_windowed_model_matches_the_full_model(seed, soft):
    # Random small plans with finite buffers (0 included), classes
    # generated after t = 0 too, mixed TTLs and several sources per class.
    rng = random.Random(seed)
    base = random_small_plan(rng, max_contacts=20)
    nodes = [NodeSpec(n.node_id, rng.choice([math.inf, 0.0, 4.0, 10.0])) for n in base.nodes]
    plan = ContactPlan(base.grid, nodes, list(base.contacts))
    demands = []
    for _ in range(rng.randint(1, 4)):
        dst = rng.choice(sorted(plan.node_ids))
        t_gen = plan.grid.state_start(rng.randint(1, plan.grid.state_count))
        ttl = rng.choice([math.inf, 0.0, 10.0, 20.0, 30.0])
        others = sorted(plan.node_ids - {dst})
        demands += [
            Demand(src, dst, t_gen, ttl, rng.randint(1, 4))
            for src in rng.sample(others, rng.randint(1, len(others)))
        ]
    _assert_matches_the_full_model(plan, demands_to_commodities(demands), soft)


@given(seed=st.integers(0, 2**32 - 1), soft=st.booleans())
@settings(max_examples=500, deadline=None)
def test_merged_commodities_match_one_commodity_per_class(seed, soft):
    # Random small plans with finite buffers (0 included), classes of one
    # destination generated at several states, with no deadline or with
    # one shared deadline, each fed by one or more sources. build_lp
    # merges each (dst, deadline) group; solve_full_lp keeps one commodity
    # per class. Run with --hypothesis-show-statistics for the share of
    # examples with each kind of merged group, and of optimal ones.
    rng = random.Random(seed)
    base = random_small_plan(rng, max_contacts=40)
    nodes = [NodeSpec(n.node_id, rng.choice([math.inf, math.inf, 0.0, 8.0, 30.0]))
             for n in base.nodes]
    plan = ContactPlan(base.grid, nodes, list(base.contacts))
    grid = plan.grid
    dst = rng.choice(sorted(plan.node_ids))
    others = sorted(plan.node_ids - {dst})
    deadline = grid.state_start(rng.randint(1, grid.state_count)) + rng.choice([0.0, 10.0, 30.0])
    states = rng.sample(range(1, grid.state_count + 1), rng.randint(2, min(3, grid.state_count)))
    demands = [
        Demand(src, dst, t_gen, ttl, rng.randint(1, 2))
        for t_gen in map(grid.state_start, states)
        for ttl in (math.inf, deadline - t_gen)
        if ttl >= 0 and rng.random() < 0.8
        for src in rng.sample(others, rng.randint(1, len(others)))
    ]
    if not demands:
        return
    commodities = demands_to_commodities(demands)
    problem = build_lp(plan, commodities, soft=soft)
    merged_ttls = [commodities[g[0]].ttl for g in problem.groups if len(g) > 1]
    event(f"merged no-deadline group: {any(map(math.isinf, merged_ttls))}")
    event(f"merged shared-deadline group: {any(map(math.isfinite, merged_ttls))}")
    solution = _assert_matches_the_full_model(plan, commodities, soft)
    event(f"{'soft' if soft else 'hard'} model: {solution.status}")


def test_merged_model_needs_the_injection_bound():
    # The class generated at t = 10 may not leave node 1 in state 1, the
    # only state with a contact: the per-class model delivers only the
    # class generated at t = 0. Without the lower bound on its buffer at
    # t = 1, the merged model would let it leave on the state-1 contact.
    plan = parse_contact_plan("plan 2 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 0 10 10\n")
    commodities = [
        Commodity(2, 0.0, math.inf, ((1, 1.0),)),
        Commodity(2, 10.0, math.inf, ((1, 5.0),)),
    ]
    assert build_lp(plan, commodities).groups == ((0, 1),)
    assert solve_lp(build_lp(plan, commodities)).status == "infeasible"
    solution = _assert_matches_the_full_model(plan, commodities, soft=True)
    assert solution.slacks == {0: pytest.approx(0.0, abs=TOL), 1: pytest.approx(5.0)}
    assert solution.objective == pytest.approx(1.0 + 5.0 * 20.0)


def test_the_split_sends_the_oldest_units_first():
    # Both classes wait at node 1 for the one state-2 contact, which
    # carries 3 of their 4 units: the class generated at t = 0 leaves
    # first, and the one generated at t = 10 drops the unit left over.
    plan = parse_contact_plan("plan 2 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 10 20 3\n")
    commodities = [
        Commodity(2, 0.0, math.inf, ((1, 2.0),)),
        Commodity(2, 10.0, math.inf, ((1, 2.0),)),
    ]
    solution = _assert_matches_the_full_model(plan, commodities, soft=True)
    assert solution.x_flows == {(1, 2, 0): pytest.approx(2.0), (1, 2, 1): pytest.approx(1.0)}
    assert solution.slacks == {0: pytest.approx(0.0, abs=TOL), 1: pytest.approx(1.0)}
    assert solution.buffers[(1, 1, 1)] == pytest.approx(2.0)


def test_soft_expired_class_still_moves_to_free_a_finite_buffer():
    # Class 0 cannot meet its deadline and stays stranded at node 1. When
    # class 1 appears there at t = 20, the 10-packet buffer only holds both
    # if 5 of class 0's packets move on in state 2, after their deadline.
    plan = parse_contact_plan(
        "plan 3 10\nnode 1 10\nnode 2 inf\nnode 3 inf\n"
        "contact 1 1 2 10 20 10\ncontact 2 1 3 20 30 10\n"
    )
    commodities = [
        Commodity(3, 0.0, 10.0, ((1, 10.0),)),
        Commodity(3, 20.0, math.inf, ((1, 5.0),)),
    ]
    solution = _assert_matches_the_full_model(plan, commodities, soft=True)
    assert solution.status == "optimal"
    assert solution.objective == pytest.approx(625.0)
    assert solution.slacks == {0: pytest.approx(10.0), 1: pytest.approx(0.0, abs=TOL)}
    assert solution.x_flows[(1, 2, 0)] == pytest.approx(5.0)


# Class 0 (1 -> 3) must arrive by t = 20, the boundary of state 2, and the
# 2 -> 3 contact carries only 3 units by then; class 1 appears at node 2
# at t = 10 with no deadline. Node 2 has a finite buffer.
_LATE_PLAN = (
    "plan 4 10\nnode 1 inf\nnode 2 15\nnode 3 inf\n"
    "contact 1 1 2 0 10 10\ncontact 2 2 3 10 20 3\ncontact 3 2 3 20 40 10\n"
)


def _late_classes(amount: float) -> list[Commodity]:
    return [Commodity(3, 0.0, 20.0, ((1, amount),)), Commodity(3, 10.0, math.inf, ((2, 2.0),))]


@pytest.mark.parametrize("soft, buffer, window_end", [
    (False, "15", 2),  # hard: the deadline class's window ends at its deadline
    (True, "inf", 2),  # soft, infinite buffers: the same
    (True, "15", 4),  # soft, finite buffer: the window runs to the horizon
])
def test_buffers_end_at_the_window_end(soft, buffer, window_end):
    plan = parse_contact_plan(_LATE_PLAN.replace("node 2 15", f"node 2 {buffer}"))
    problem = build_lp(plan, _late_classes(3.0), soft=soft)
    b_index, f = problem.b_index, plan.grid.state_count
    assert problem.groups == ((0,), (1,))
    # Distinct columns from generation to the window end; every later key
    # reads the window-end column.
    for v in (1, 2, 3):
        assert len({b_index[(t, v, 0)] for t in range(window_end + 1)}) == window_end + 1
        for t in range(window_end + 1, f + 1):
            assert b_index[(t, v, 0)] == b_index[(window_end, v, 0)]
        assert len({b_index[(t, v, 1)] for t in range(1, f + 1)}) == f
    bal = [name for name in problem.eq_names if name.startswith("bal_") and name.endswith("_k0")]
    assert bal == [f"bal_t{t}_n{v}_k0" for t in range(1, window_end + 1) for v in (1, 2, 3)]
    # The ddl row at the deadline stays only where the window runs past it.
    ddl = [name for name in problem.ub_names if name.startswith("ddl_")]
    assert ddl == (["ddl_t2_k0"] if window_end > 2 else [])
    assert len(problem.eq_names) == problem.a_eq.shape[0]
    assert len(problem.ub_names) == problem.a_ub.shape[0]
    # Node 2's storage past the window still holds the window-end buffer.
    if buffer != "inf":
        for t in range(f + 1):
            row = problem.ub_names.index(f"bufcap_t{t}_n2")
            assert problem.a_ub[row, b_index[(t, 2, 0)]] == 1.0
    # Five units of class 0 meet the 3-unit contact: the soft model drops
    # two, however late they could still reach node 3.
    for amount in (3.0, 5.0):
        _assert_matches_the_full_model(plan, _late_classes(amount), soft)


def test_a_self_loop_contact_gives_one_matrix_entry_per_row_and_column():
    # A contact from node 1 to itself, in a plan built without validation,
    # puts +1 and -1 for its flow into the same balance row. They sum to one
    # explicit zero, as scipy's sparse formats hold them; HiGHS rejects a
    # column that names a row twice.
    plan = ContactPlan(
        StateGrid(2, 10.0),
        [NodeSpec(1), NodeSpec(2)],
        [Contact(1, 1, 1, 0.0, 10.0, 5), Contact(2, 1, 2, 10.0, 20.0, 5)],
    )
    problem = build_lp(plan, [Commodity(2, 0.0, math.inf, ((1, 3.0),))])
    column = problem.a_eq.tocsc()[:, problem.x_index[(1, 1, 0)]]
    assert column.nnz == 1 and column.data.tolist() == [0.0]
    solution = solve_lp(problem)
    assert solution.objective == pytest.approx(6.0)
    assert verify_solution(problem, solution, TOL) == []


def test_build_lp_rejects_a_contact_with_an_undeclared_node():
    # Node 9 is not declared, so a contact to or from it has no balance row
    # at that end and would break mass conservation; the parser rejects
    # such plans too.
    grid = StateGrid(3, 10.0)
    commodities = [Commodity(2, 0.0, 10.0, ((1, 1.0),))]
    for contact in (Contact(1, 9, 2, 0.0, 10.0, 5), Contact(2, 1, 9, 10.0, 20.0, 5)):
        plan = ContactPlan(grid, [NodeSpec(1), NodeSpec(2)], [contact])
        for soft in (False, True):
            with pytest.raises(ValueError, match="undeclared node"):
                build_lp(plan, commodities, soft=soft)


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
    # Only a model with merged classes bounds columns below.
    if problem.col_lower.any():
        out["col_lower"] = digest(np.asarray(problem.col_lower, dtype=np.float64).tobytes())
    return out


def _buffered_three_node_plan():
    plan = parse_contact_plan(THREE_NODE_PLAN)
    nodes = [NodeSpec(1), NodeSpec(2, 15.0), NodeSpec(3)]
    return ContactPlan(plan.grid, nodes, list(plan.contacts))


# Digests of the models as the tuple-list assembler built them before rows
# came from index arrays. Any change to the order of variables, rows or
# coefficients shows here, and HiGHS would then see a different input.
# The two study models were re-captured when commodities became one per
# (dst, t_gen, ttl) class: 2 classes instead of 10 per-source commodities
# in the burst study, 20 instead of 100 per state. All three models with
# commodities were re-captured again when each class got its window: no
# buffers before its generation timestamp, and no flow after its deadline
# (the ttl-20 classes). The model without commodities did not move. The
# per-state model was re-captured once more when classes sharing
# (dst, deadline) became one model commodity: its ten no-deadline classes
# merge into one, so 11 commodities instead of 20, with lower bounds on the
# buffer columns of its later injections. The other models have one class
# per group and did not move. All three models with commodities were
# re-captured again when each window's buffers came to end at its window
# end and the implied ddl rows went; their optima did not change.
_EMPTY = "e3b0c44298fc1c14"
PINNED_MODELS = {
    "study-seed1-load5-hard": (
        lambda: _study_inputs(1, 5, "burst"),
        False,
        {
            "var_names": "ec68469d8e09eab2",
            "eq_names": "6b50716a82f2eed6",
            "ub_names": "daa60def555ef0bc",
            "objective": "22c69bbecc51699a",
            "b_eq": "d3cd197de2c6ebae",
            "b_ub": "1b1862d2215c137b",
            "a_eq.indptr": "1f0c864561a8b9dc",
            "a_eq.indices": "59e02ecca811ca37",
            "a_eq.data": "4bb7653f92363170",
            "a_ub.indptr": "605c1ac87e1ccd58",
            "a_ub.indices": "2d0357763afc885b",
            "a_ub.data": "d6b42572a063e997",
        },
    ),
    "perstate-seed2-load3-soft": (
        lambda: _study_inputs(2, 3, "per-state"),
        True,
        {
            "var_names": "a8ef62c23889830b",
            "eq_names": "15849fd978598992",
            "ub_names": "35cc597f2f0778a3",
            "objective": "45ee87ce29a4d783",
            "b_eq": "63c2a23193ade020",
            "b_ub": "868865d9dcbd36c1",
            "a_eq.indptr": "1f5d4bdecf4e4acf",
            "a_eq.indices": "8af3fa27cd6d5504",
            "a_eq.data": "c201d42bfb0655c9",
            "a_ub.indptr": "b7f9f4d47a393d39",
            "a_ub.indices": "a7a0c058c22cc0b8",
            "a_ub.data": "e42bcd73e509f86c",
            "col_lower": "ce06e8df84f6bdae",
        },
    ),
    "three-node-finite-buffer": (
        lambda: (
            _buffered_three_node_plan(),
            demands_to_commodities([Demand(1, 3, 0.0, 30.0, 10), Demand(2, 3, 0.0, 20.0, 10)]),
        ),
        False,
        {
            "var_names": "20775f3d7286c9b4",
            "eq_names": "33d00461c4be0a52",
            "ub_names": "464d574a128a8be0",
            "objective": "40f8873549bb7fb8",
            "b_eq": "f131bae6c4a4f97e",
            "b_ub": "6f15a3fb604c921e",
            "a_eq.indptr": "230dfd062e82a19e",
            "a_eq.indices": "c9e26f254ec16a18",
            "a_eq.data": "054c9f9ce6d38436",
            "a_ub.indptr": "653b3690efc6c3a1",
            "a_ub.indices": "eb4fbfff3ba6c1ce",
            "a_ub.data": "9ac8b44cf7a7a83a",
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


def test_session_matches_fresh_solves_from_feasible_to_infeasible_and_back():
    # Study seed 14's hard LP is feasible at loads 1-2 and infeasible from
    # load 3 on, so this order crosses the boundary both ways, repeatedly.
    # The plan is built once, as a sweep builds each seed's plan once.
    plan, _ = _study_inputs(14, 1, "burst")
    session = LpSession()
    statuses, solvers = [], []
    for load in (1, 3, 2, 5, 1, 4, 2):
        _, commodities = _study_inputs(14, load, "burst")
        problem = build_lp(plan, commodities)
        warm = solve_lp(problem, session)
        solvers.append(session._highs)
        cold = solve_lp(problem)
        assert warm.status == cold.status
        statuses.append(warm.status)
        if warm.status == "optimal":
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
            assert verify_solution(problem, warm, TOL) == []
    assert statuses == ["optimal", "infeasible"] * 3 + ["optimal"]
    # Only the right-hand sides changed, so every load reused one model.
    assert all(solver is solvers[0] for solver in solvers)


def test_session_changes_the_injection_bounds_of_a_merged_model_warm():
    # Per-state loads change the merged model's column bounds as well as
    # its right-hand sides; one loaded model serves them all.
    plan, _ = _study_inputs(4, 1, "per-state")
    session = LpSession()
    for load in (2, 5, 1, 3):
        _, commodities = _study_inputs(4, load, "per-state")
        problem = build_lp(plan, commodities, soft=True)
        assert problem.col_lower.max() == load
        warm = solve_lp(problem, session)
        if load == 2:
            loaded = session._highs
        cold = solve_lp(problem)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        assert verify_solution(problem, warm, TOL) == []
    assert session._highs is loaded


def _rewired(plan):
    """The plan with its first contact pointed at another receiver: the
    same windows and capacities, so the same objective and row count."""
    first, *rest = plan.contacts
    to_node = next(v for v in sorted(plan.node_ids) if v not in (first.from_node, first.to_node))
    return ContactPlan(plan.grid, list(plan.nodes), [dataclasses.replace(first, to_node=to_node), *rest])


@pytest.mark.parametrize("change", ["plan", "copy", "rewired", "classes", "soft", "weights"])
def test_session_rebuilds_on_a_new_structure_and_gives_the_cold_answer(change):
    plan, commodities = _study_inputs(1, 3, "burst")
    session = LpSession()
    solve_lp(build_lp(plan, commodities), session)
    loaded = session._highs
    exponent = 1.0
    if change == "plan":
        plan, commodities = _study_inputs(2, 3, "burst")
    elif change == "copy":
        # The same seed regenerated: equal arrays, but not the loaded ones.
        plan, commodities = _study_inputs(1, 3, "burst")
    elif change == "rewired":
        plan = _rewired(plan)
    elif change == "classes":
        commodities = commodities[:1]
    elif change == "weights":
        exponent = 2.0
    problem = build_lp(plan, commodities, exponent, soft=change == "soft")
    assert solve_lp(problem, session) == solve_lp(problem)
    assert session._highs is not loaded


def test_solve_without_a_session_does_not_depend_on_earlier_calls():
    problem = build_lp(*_study_inputs(1, 3, "burst"))
    first = solve_lp(problem)
    for load in (1, 5):
        solve_lp(build_lp(*_study_inputs(1, load, "burst")))
    assert solve_lp(problem) == first


def test_an_optimum_outside_its_bounds_is_rejected():
    lower, upper = np.array([1.0, -np.inf]), np.array([1.0, 4.0])
    assert _within_bounds([0.0, 2.0], [1.0, 4.0], lower, upper)
    assert _within_bounds([-1e-5, 2.0], [1.0 + 1e-5, 4.0 + 1e-5], lower, upper)
    assert not _within_bounds([-1e-3, 2.0], [1.0, 4.0], lower, upper)
    assert not _within_bounds([0.0, 2.0], [1.001, 4.0], lower, upper)
    assert not _within_bounds([0.0, 2.0], [1.0, 4.001], lower, upper)
    assert not _within_bounds([0.0, math.nan], [1.0, 4.0], lower, upper)
    assert not _within_bounds([0.0, 2.0], [math.nan, 4.0], lower, upper)


@pytest.mark.parametrize("injection, soft", [("burst", False), ("per-state", True)])
def test_loads_built_on_one_plan_match_builds_on_fresh_plans(injection, soft):
    # One plan keeps one layout per class set: later loads reuse it and
    # only fill new right-hand sides. In any load order, each model must
    # equal the model built on a freshly generated copy of the plan.
    plan, _ = _study_inputs(3, 1, injection)
    problems = []
    for load in (5, 1, 3, 1, 5):
        _, commodities = _study_inputs(3, load, injection)
        problem = build_lp(plan, commodities, soft=soft)
        fresh_plan, _ = _study_inputs(3, load, injection)
        assert _model_digests(problem) == _model_digests(
            build_lp(fresh_plan, commodities, soft=soft)
        )
        problems.append(problem)

    first = problems[0]
    for problem in problems[1:]:
        assert problem.objective is first.objective
        assert problem.a_eq is first.a_eq and problem.a_ub is first.a_ub
    for i, problem in enumerate(problems):
        for other in problems[i + 1:]:
            for name in ("b_eq", "b_ub"):
                assert not np.shares_memory(getattr(problem, name), getattr(other, name))

    for array in (first.objective, *(
        getattr(m, part) for m in (first.a_eq, first.a_ub) for part in ("data", "indices", "indptr")
    )):
        with pytest.raises(ValueError):
            array[0] = array[0]
    with pytest.raises(TypeError):
        first.x_index[(0, 0, 0)] = 0
    first.b_eq[:] = 0.0
    first.b_ub[:] = 0.0
    _, commodities = _study_inputs(3, 5, injection)
    assert _model_digests(build_lp(plan, commodities, soft=soft)) == _model_digests(problems[-1])


_BASE_CLASSES = (
    Commodity(11, 0.0, math.inf, ((1, 2.0), (2, 1.0))),
    Commodity(11, 0.0, 20.0, ((6, 1.0), (7, 3.0))),
)


@pytest.mark.parametrize(
    "change",
    [
        ("weights", _BASE_CLASSES, 2.0, False),
        ("soft", _BASE_CLASSES, 1.0, True),
        ("dst", tuple(dataclasses.replace(c, dst=10) for c in _BASE_CLASSES), 1.0, False),
        ("t_gen", tuple(dataclasses.replace(c, t_gen=10.0) for c in _BASE_CLASSES), 1.0, False),
        ("ttl", (_BASE_CLASSES[0], dataclasses.replace(_BASE_CLASSES[1], ttl=30.0)), 1.0, False),
        ("sources", (Commodity(11, 0.0, math.inf, ((1, 2.0), (3, 1.0))), _BASE_CLASSES[1]),
         1.0, False),
    ],
    ids=lambda change: change[0],
)
def test_a_layout_is_reused_only_for_the_same_weights_soft_flag_and_classes(change):
    _, commodities, exponent, soft = change
    plan, _ = _study_inputs(1, 1, "burst")
    build_lp(plan, list(_BASE_CLASSES))
    fresh_plan, _ = _study_inputs(1, 1, "burst")
    assert _model_digests(build_lp(plan, list(commodities), exponent, soft)) == _model_digests(
        build_lp(fresh_plan, list(commodities), exponent, soft)
    )


# Read-only array-backed maps: `solve_lp` fills the solution maps from
# arrays, and the index maps are views of the layout's key and column arrays.


@pytest.mark.parametrize("injection, soft", [("burst", False), ("per-state", True)])
def test_solver_maps_read_and_compare_like_dicts(injection, soft):
    problem = build_lp(*_study_inputs(2, 1, injection), soft=soft)
    solution = solve_lp(problem)
    assert solution.status == "optimal"
    copied = solution_from_json(solution_to_json(solution))
    assert solve_lp(problem) == copied and copied == solve_lp(problem)

    read = solve_lp(problem)
    for values in (read.x_flows, read.buffers, read.slacks):
        if values:
            key = next(iter(values))
            assert key in values and values[key] == values.get(key) == dict(values.items())[key]
    assert verify_solution(problem, read, TOL) == []
    assert read == copied
    for name in ("x_flows", "buffers", "slacks"):
        got, want = getattr(read, name), getattr(solution, name)
        assert list(got.items()) == list(want.items()) == list(zip(got, got.values()))
        assert len(got) == len(want) and dict(got) == getattr(copied, name)


@pytest.mark.parametrize("kind", ["x", "b", "s", "del"])
def test_a_change_to_a_copy_of_a_solver_solution_reaches_every_reader(fig1_demands, kind):
    # Solver maps are read-only; a dict copy of them is the editable form.
    plan = _buffered_three_node_plan()
    commodities = demands_to_commodities(fig1_demands)
    problem = build_lp(plan, commodities, soft=kind == "s")
    solved = solve_lp(problem)
    metrics = lp_metrics(plan, commodities, solved)
    total = solved.total_flow()
    assert verify_solution(problem, solved, TOL) == []
    solution = dataclasses.replace(
        solved, x_flows=dict(solved.x_flows), buffers=dict(solved.buffers),
        slacks=dict(solved.slacks),
    )
    if kind == "x":
        solution.x_flows[(2, 2, 1)] += 1.0
    elif kind == "b":
        solution.buffers[(1, 2, 1)] += 1.0
    elif kind == "s":
        solution.slacks[1] += 1.0
    else:
        del solution.x_flows[(2, 2, 1)]
    assert verify_solution(problem, solution, TOL)
    assert verify_solution(problem, solution, TOL) == reference_verify_solution(
        problem, solution, TOL
    )
    assert lp_metrics(plan, commodities, solution) == reference_lp_metrics(
        plan, commodities, solution
    )
    doc = json.loads(solution_to_json(solution))
    if kind == "x":
        assert solution.total_flow() == pytest.approx(total + 1.0)
        assert lp_metrics(plan, commodities, solution).mean_hops > metrics.mean_hops
        assert [2, 2, 1, solution.x_flows[(2, 2, 1)]] in doc["x"]
    elif kind == "b":
        assert [1, 2, 1, solution.buffers[(1, 2, 1)]] in doc["b"]
    elif kind == "s":
        assert lp_metrics(plan, commodities, solution).delivery_ratio < metrics.delivery_ratio
        assert [1, solution.slacks[1]] in doc["slack"]
    else:
        assert solution.total_flow() < total
        assert all(entry[:3] != [2, 2, 1] for entry in doc["x"])


def test_index_maps_are_shared_by_a_layout_and_read_only():
    # The solver maps of a solve are read-only too.
    plan, _ = _study_inputs(3, 1, "per-state")
    first, second = (
        build_lp(plan, _study_inputs(3, load, "per-state")[1], soft=True) for load in (1, 4)
    )
    solution = solve_lp(second)
    for name in ("x_index", "b_index", "slack_index"):
        assert getattr(second, name) is getattr(first, name)
    for values in (first.x_index, first.b_index, first.slack_index,
                   solution.x_flows, solution.buffers, solution.slacks):
        key = next(iter(values))
        value = values[key]
        with pytest.raises(TypeError):
            values[key] = value + 1
        with pytest.raises(TypeError):
            del values[key]
        assert values[key] == value
    assert verify_solution(second, solution, TOL) == []


@given(seed=st.integers(0, 2**32 - 1), per_state=st.booleans())
@settings(max_examples=200, deadline=None)
def test_lp_metrics_matches_the_reference_loop_exactly(seed, per_state):
    # Random small plans with burst traffic on the hard model or per-state
    # traffic on the soft one. Every class goes to one destination, with no
    # deadline or one ttl, so the no-deadline classes of a per-state plan
    # merge; sometimes a class to another node joins. Each metric must
    # equal the loop's bit for bit on the solver's solution, on its JSON
    # copy, and on an edited dict copy of it.
    rng = random.Random(seed)
    plan = random_small_plan(rng, max_contacts=24)
    grid = plan.grid
    dst = rng.choice(sorted(plan.node_ids))
    ttl = rng.choice([10.0, 20.0, 30.0])
    states = range(1, grid.state_count + 1) if per_state else [1]
    sources = rng.sample(sorted(plan.node_ids - {dst}), rng.randint(1, len(plan.node_ids) - 1))
    demands = [
        Demand(src, dst, grid.state_start(q), rng.choice([math.inf, ttl]), rng.randint(1, 3))
        for q in states
        for src in sources
    ]
    if rng.random() < 0.5:
        src, other = rng.sample(sorted(plan.node_ids), 2)
        demands.append(Demand(src, other, 0.0, rng.choice([math.inf, 20.0]), 2))
    commodities = demands_to_commodities(demands)
    problem = build_lp(plan, commodities, soft=per_state)
    solution = solve_lp(problem)
    event(f"{'per-state soft' if per_state else 'burst hard'}: {solution.status}")
    if solution.status != "optimal":
        return
    event(f"merged group: {any(len(group) > 1 for group in problem.groups)}")
    changed = dataclasses.replace(solution, x_flows=dict(solution.x_flows))
    if changed.x_flows:
        key = rng.choice(list(changed.x_flows))
        changed.x_flows[key] = changed.x_flows[key] + rng.choice([0.5, -0.25, 2.0])
    for candidate in (solution, solution_from_json(solution_to_json(solution)), changed):
        got = lp_metrics(plan, commodities, candidate)
        assert repr(got) == repr(reference_lp_metrics(plan, commodities, candidate))
