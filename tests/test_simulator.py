import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgrlab.contact_graph import build_route_table, build_route_tables
from cgrlab.contact_plan import Contact, ContactPlan, NodeSpec, StateGrid, parse_contact_plan
from cgrlab.forwarding import Policy
from cgrlab.lp_oracle import build_lp, demands_to_commodities, lp_metrics, solve_lp
from cgrlab.simulator import (
    OUTCOMES,
    Demand,
    PacketRecord,
    compute_metrics,
    demands_from_json,
    demands_to_json,
    run_simulation,
)

from conftest import random_demands, random_small_plan
from oracles import dense_simulation, enumerate_routes, reference_metrics


def test_three_node_deltime_congestion(fig1_plan, fig1_demands):
    result = run_simulation(fig1_plan, fig1_demands, Policy.DELTIME, 2)
    assert result.count("delivered_on_time") == 10
    assert result.count("dropped") == 10
    assert result.total_transmissions() == 20
    # node 2's own packets made it, node 1's died at the relay
    for r in result.records:
        if r.src == 2:
            assert r.outcome == "delivered_on_time" and r.delivery_time == 20.0
        else:
            assert r.outcome == "dropped" and r.path == (1,)


def test_three_node_hops_avoids_congestion(fig1_plan, fig1_demands):
    result = run_simulation(fig1_plan, fig1_demands, Policy.HOPS, 2)
    assert result.count("delivered_on_time") == 20
    for r in result.records:
        if r.src == 1:
            assert r.path == (3,) and r.delivery_time == 30.0
        else:
            assert r.path == (2,) and r.delivery_time == 20.0


def test_three_node_metrics(fig1_plan, fig1_demands):
    deltime = compute_metrics(
        run_simulation(fig1_plan, fig1_demands, Policy.DELTIME, 2), fig1_demands
    )
    assert deltime.delivery_ratio == 0.5
    assert deltime.mean_hops == 2.0
    assert deltime.mean_delay == 20.0
    assert deltime.energy_efficiency == 0.5

    hops = compute_metrics(
        run_simulation(fig1_plan, fig1_demands, Policy.HOPS, 2), fig1_demands
    )
    assert hops.delivery_ratio == 1.0
    assert hops.mean_hops == 1.0
    assert hops.mean_delay == 25.0
    assert hops.energy_efficiency == 1.0


def test_zero_demands(fig1_plan):
    result = run_simulation(fig1_plan, [], Policy.DELTIME, 2)
    assert result.records == []
    metrics = compute_metrics(result, [])
    assert metrics.as_dict() == {
        "delivery_ratio": None,
        "mean_hops": None,
        "mean_delay": None,
        "energy_efficiency": None,
    }


def test_metrics_rejects_mismatched_demands(fig1_plan, fig1_demands):
    result = run_simulation(fig1_plan, fig1_demands, Policy.HOPS, 2)
    with pytest.raises(ValueError):
        compute_metrics(result, fig1_demands[:1])


def test_metrics_take_constant_memory_in_the_packet_count():
    # One demand of a million packets over one contact: the run moves one
    # cohort, and the metrics sum its delays without storing one per packet.
    count = 1_000_000
    plan = parse_contact_plan(f"plan 2 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 0 10 {count}\n")
    demands = [Demand(1, 2, 0.0, math.inf, count)]
    result = run_simulation(plan, demands, Policy.HOPS, 1)
    tracemalloc.start()
    try:
        metrics = compute_metrics(result, demands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (metrics.delivery_ratio, metrics.mean_delay) == (1.0, 10.0)
    assert peak < 2**20


def test_invalid_demand_timestamps(fig1_plan):
    with pytest.raises(ValueError):
        run_simulation(fig1_plan, [Demand(1, 3, 5.0, 10.0, 1)], Policy.HOPS, 2)
    with pytest.raises(ValueError):
        run_simulation(fig1_plan, [Demand(1, 3, 30.0, 10.0, 1)], Policy.HOPS, 2)
    with pytest.raises(ValueError):
        run_simulation(fig1_plan, [Demand(1, 9, 0.0, 10.0, 1)], Policy.HOPS, 2)


def test_same_node_demand_delivers_immediately(fig1_plan):
    result = run_simulation(fig1_plan, [Demand(1, 1, 0.0, math.inf, 2)], Policy.HOPS, 2)
    assert result.count("delivered_on_time") == 2
    assert result.total_transmissions() == 0


def test_a_simulation_fills_no_plan_cache(fig1_plan, fig1_demands):
    # What a run reads of the plan is ready once its route tables are, so
    # the first run on a plan costs what the second does.
    tables = build_route_tables(fig1_plan, 2, {d.dst for d in fig1_demands})
    keys, index = set(vars(fig1_plan)), fig1_plan._routing
    for policy in Policy:
        run_simulation(fig1_plan, fig1_demands, policy, 2, tables)
        assert set(vars(fig1_plan)) == keys
        assert fig1_plan._routing is index


def test_determinism(fig1_plan, fig1_demands):
    a = run_simulation(fig1_plan, fig1_demands, Policy.DELTIME, 2)
    b = run_simulation(fig1_plan, fig1_demands, Policy.DELTIME, 2)
    assert a.records == b.records
    assert a.utilization == b.utilization


def test_csv_export(fig1_plan, fig1_demands):
    result = run_simulation(fig1_plan, fig1_demands, Policy.HOPS, 2)
    lines = result.to_csv().strip().split("\n")
    assert lines[0].startswith("packet_id,src,dst")
    assert len(lines) == 21
    assert lines[1] == "1,1,3,0.0,30.0,delivered_on_time,30.0,1,3"


def test_conservation_capacity_and_deadlines_on_random_runs():
    for seed in range(200):
        rng = random.Random(seed)
        plan = random_small_plan(rng, max_contacts=14)
        demands = random_demands(rng, plan)
        policy = Policy.DELTIME if seed % 2 else Policy.HOPS
        result = run_simulation(plan, demands, policy, k_routes=rng.randint(1, 4))
        generated = sum(d.count for d in demands)
        outcomes = {
            name: result.count(name)
            for name in ("delivered_on_time", "delivered_late", "dropped", "stranded")
        }
        assert sum(outcomes.values()) == generated == result.generated()
        for (cid, state), used in result.utilization.items():
            assert used <= plan.contact(cid).capacity
        for r in result.records:
            if r.outcome == "delivered_on_time":
                assert r.delay is not None and r.delay <= r.ttl


def test_no_drops_with_full_tables_and_ample_capacity():
    # With complete route tables, no deadlines, capacity beyond all traffic,
    # and single-state contact windows, a reachable destination means
    # guaranteed delivery. Multi-state windows void the guarantee: a stored
    # route's scheduled departure can pass while its first contact is still
    # open, and such routes are filtered as stale.
    checked = 0
    for seed in range(120):
        rng = random.Random(seed)
        plan = random_small_plan(rng, max_contacts=10)
        grid = plan.grid
        plan = ContactPlan(
            grid,
            list(plan.nodes),
            [
                Contact(
                    c.contact_id,
                    c.from_node,
                    c.to_node,
                    c.start,
                    c.start + grid.state_duration,
                    50,
                )
                for c in plan.contacts
            ],
        )
        nodes = sorted(plan.node_ids)
        dst = nodes[-1]
        sources = [n for n in nodes[:-1] if enumerate_routes(plan, n, dst, 0.0)]
        if not sources:
            continue
        checked += 1
        demands = [Demand(src, dst, 0.0, math.inf, 1) for src in sources]
        for policy in (Policy.DELTIME, Policy.HOPS):
            result = run_simulation(plan, demands, policy, k_routes=64)
            assert result.count("delivered_on_time") == len(sources)
    assert checked > 40


def test_demand_json_round_trip():
    demands = [Demand(1, 3, 0.0, 30.0, 10), Demand(2, 3, 10.0, math.inf, 4)]
    again = demands_from_json(demands_to_json(demands))
    assert again == demands


def test_demand_json_rejects_malformed():
    with pytest.raises(ValueError):
        demands_from_json('{"src": 1}')
    with pytest.raises(ValueError):
        demands_from_json('[{"dst": 3}]')


def test_packets_left_on_an_ended_contact_return_to_the_store():
    # Tables built at t = 10 schedule contact 1 from state 2, its last
    # state, but book it against its whole two-state volume. Both packets
    # generated at t = 10 are queued on it and one is sent; the other is
    # returned at state 3 and re-decided onto contact 2.
    plan = parse_contact_plan(
        "plan 4 10\nnode 1 inf\nnode 2 inf\n"
        "contact 1 1 2 0 20 1\ncontact 2 1 2 20 30 1\n"
    )
    demands = [Demand(1, 2, 10.0, math.inf, 2)]
    tables = {v: build_route_table(plan, v, 10.0, 2, {2}) for v in (1, 2)}
    assert [r.contacts for r in tables[1].routes_for(2)] == [(1,), (2,)]
    for policy in Policy:
        result = run_simulation(plan, demands, policy, 2, tables)
        first, second = result.records
        assert (first.outcome, first.path, first.delivery_time) == ("delivered_on_time", (1,), 20.0)
        assert (second.outcome, second.path, second.delivery_time) == ("delivered_on_time", (2,), 30.0)
        assert result.generated() == 2 == sum(result.count(o) for o in OUTCOMES)


def test_a_cohort_splits_by_residual_volume_then_by_per_state_capacity():
    # Seven packets 1 -> 2 with a 25 s deadline, so on time through state 2.
    # Contact 1 (state 1) has volume 2 and contact 2 (states 2-3) volume 4:
    # the decision books ids 1-2 on contact 1 and ids 3-6 on contact 2, and
    # drops id 7. Contact 2 sends 2 a state, so ids 5-6 arrive in state 3,
    # late.
    plan = parse_contact_plan(
        "plan 3 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 0 10 2\ncontact 2 1 2 10 30 2\n"
    )
    demand = Demand(1, 2, 0.0, 25.0, 7)

    def record(pid, outcome, delivery_time, path):
        return PacketRecord(pid, 1, 2, 0.0, 25.0, outcome, delivery_time, len(path), path)

    for policy in Policy:
        result = run_simulation(plan, [demand], policy, 2)
        assert result.records == [
            record(1, "delivered_on_time", 10.0, (1,)),
            record(2, "delivered_on_time", 10.0, (1,)),
            record(3, "delivered_on_time", 20.0, (2,)),
            record(4, "delivered_on_time", 20.0, (2,)),
            record(5, "delivered_late", 30.0, (2,)),
            record(6, "delivered_late", 30.0, (2,)),
            record(7, "dropped", None, ()),
        ]
        assert result.utilization == {(1, 1): 2, (2, 2): 2, (2, 3): 2}
        assert [(c.first, c.count) for c in result.cohorts] == [(1, 2), (3, 2), (5, 2), (7, 1)]


def test_deadline_on_an_inexact_grid_is_the_lps_boundary():
    # 3 * 0.1 is 0.30000000000000004, past the 0.3 s deadline as a float,
    # but state 3 ends on the deadline's grid boundary, so the packet is on
    # time for the policies as for the LP.
    plan = parse_contact_plan("plan 5 0.1\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 0.2 0.3 1\n")
    demands = [Demand(1, 2, 0.0, 0.3, 1)]
    for policy in Policy:
        (record,) = run_simulation(plan, demands, policy, 2).records
        assert (record.outcome, record.path) == ("delivered_on_time", (1,))
    commodities = demands_to_commodities(demands)
    solution = solve_lp(build_lp(plan, commodities))
    assert lp_metrics(plan, commodities, solution).delivery_ratio == 1.0


@st.composite
def simulations(draw):
    """A small plan with multi-state windows and contact ids in random
    order of start, mixed deadlines, burst or per-state injection, a
    policy, and route tables built at t = 0 or later (so packets can
    outlive the contact they were queued on and return to the store).
    Counts of up to 12 packets against capacities of 0 to 3 split cohorts
    both where they are booked and where they are sent.

    Half the plans are funnels: the sources' contacts all lead to one
    relay, which alone reaches the destination. Packets from contacts that
    opened in different states can then reach the relay in one state and
    compete for its contacts, where the order contacts transmit in shows.
    `_transmit_order_case` is one such plan, checked on every run.
    """
    duration = draw(st.sampled_from([10.0, 0.1, 2.5]))
    states = draw(st.integers(2, 6))
    grid = StateGrid(states, duration)
    nodes = list(range(1, draw(st.integers(3, 5)) + 1))
    funnel = draw(st.booleans())

    def window():
        q1 = draw(st.integers(1, states))
        return grid.state_start(q1), grid.state_end(draw(st.integers(q1, states)))

    links = []
    if funnel:
        relay, dst = nodes[-2:]
        for _ in range(draw(st.integers(2, 6))):
            links.append((draw(st.sampled_from(nodes[:-2])), relay, *window(), 1))
        for _ in range(draw(st.integers(1, 2))):
            links.append((relay, dst, *window(), draw(st.integers(1, 2))))
    else:
        for _ in range(draw(st.integers(0, 10))):
            a, b = draw(st.permutations(nodes))[:2]
            links.append((a, b, *window(), draw(st.integers(0, 3))))
    ids = draw(st.permutations(range(1, len(links) + 1)))
    plan = ContactPlan(
        grid, [NodeSpec(v) for v in nodes], [Contact(cid, *link) for cid, link in zip(ids, links)]
    )

    built_at = draw(st.integers(1, states))
    per_state = draw(st.booleans())
    demands = []
    for _ in range(draw(st.integers(1, 4))):
        if funnel:
            src, dst = draw(st.sampled_from(nodes[:-2])), nodes[-1]
        else:
            src, dst = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        ttl = draw(st.sampled_from([math.inf, 0.0, 1.0, 1.5, 2.0, 3.0])) * duration
        count = draw(st.integers(1, 12))
        starts = range(1, states + 1) if per_state else [draw(st.sampled_from([1, built_at]))]
        demands += [Demand(src, dst, grid.state_start(q), ttl, count) for q in starts]

    policy = draw(st.sampled_from(list(Policy)))
    k = draw(st.integers(1, 4))
    tables = None
    if built_at > 1:
        t_now = grid.state_start(built_at)
        dests = {d.dst for d in demands}
        tables = {v: build_route_table(plan, v, t_now, k, dests) for v in nodes}
    return plan, demands, policy, k, tables


def _transmit_order_case():
    """Contacts 2 (opened in state 1) and 1 (opened in state 2) both carry
    a packet to relay 3 in state 2, and the relay can forward only one:
    the packet on contact 2, first in plan order."""
    plan = parse_contact_plan(
        "plan 4 10\nnode 1 inf\nnode 2 inf\nnode 3 inf\nnode 4 inf\n"
        "contact 1 2 3 10 20 1\ncontact 2 1 3 0 30 1\ncontact 3 3 4 20 30 1\n"
    )
    demands = [Demand(1, 4, 10.0, math.inf, 1), Demand(2, 4, 10.0, math.inf, 1)]
    tables = {v: build_route_table(plan, v, 10.0, 2, {4}) for v in range(1, 5)}
    return plan, demands, Policy.DELTIME, 2, tables


@given(simulations())
@example(_transmit_order_case())
@settings(max_examples=400, deadline=None)
def test_stepping_only_queued_contacts_matches_the_dense_loop(case):
    plan, demands, policy, k, tables = case
    sparse = run_simulation(plan, demands, policy, k, tables)
    dense = dense_simulation(plan, demands, policy, k, tables)
    assert sparse.records == dense.records
    assert sparse.utilization == dense.utilization
    for outcome in OUTCOMES:
        assert sparse.count(outcome) == sum(1 for r in dense.records if r.outcome == outcome)
    assert sparse.generated() == len(dense.records)
    assert sparse.total_transmissions() == sum(r.transmissions for r in dense.records)
    assert compute_metrics(sparse, demands) == reference_metrics(dense.records)
