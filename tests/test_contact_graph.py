import random

import pytest

from cgrlab.contact_graph import (
    RouteError,
    build_route_table,
    earliest_delivery_route,
    k_best_routes,
    route_attributes,
    route_table_csv,
)
from cgrlab.contact_plan import Contact, ContactPlan, NodeSpec, StateGrid

from conftest import random_small_plan
from oracles import enumerate_routes


def test_route_attributes_two_hop(fig1_plan):
    r = route_attributes(fig1_plan, [1, 2], 0.0)
    assert r.delivery_time == 20.0
    assert r.hops == 2
    assert r.expiration == 10.0  # dies when its first contact ends
    assert r.max_volume == 10
    assert r.departure_time == 0.0
    assert (r.source, r.destination) == (1, 3)


def test_route_attributes_single_contact(fig1_plan):
    r = route_attributes(fig1_plan, [3], 0.0)
    assert r.delivery_time == 30.0
    assert r.hops == 1
    assert r.departure_time == 20.0
    assert r.max_volume == fig1_plan.contact(3).capacity


def test_route_attributes_broken_chain(fig1_plan):
    with pytest.raises(RouteError, match="broken chain"):
        route_attributes(fig1_plan, [1, 3], 0.0)


def test_route_attributes_contact_already_ended(fig1_plan):
    with pytest.raises(RouteError):
        route_attributes(fig1_plan, [1, 2], 15.0)  # first hop's window closed


def test_route_attributes_unschedulable_order():
    grid = StateGrid(3, 10.0)
    plan = ContactPlan(
        grid,
        [NodeSpec(1), NodeSpec(2), NodeSpec(3)],
        [Contact(1, 1, 2, 10.0, 20.0, 5), Contact(2, 2, 3, 0.0, 10.0, 5)],
    )
    with pytest.raises(RouteError):
        route_attributes(plan, [1, 2], 0.0)  # second contact ends before first begins


def test_earliest_route_prefers_delivery_time(fig1_plan):
    r = earliest_delivery_route(fig1_plan, 1, 3, 0.0)
    assert r.contacts == (1, 2)
    assert r.delivery_time == 20.0


def test_earliest_route_unreachable(fig1_plan):
    assert earliest_delivery_route(fig1_plan, 3, 1, 0.0) is None


def test_earliest_route_unknown_node(fig1_plan):
    with pytest.raises(KeyError):
        earliest_delivery_route(fig1_plan, 1, 99, 0.0)


def test_earliest_route_respects_suppressions(fig1_plan):
    r = earliest_delivery_route(fig1_plan, 1, 3, 0.0, suppressed_contacts={1})
    assert r.contacts == (3,)
    r = earliest_delivery_route(fig1_plan, 1, 3, 0.0, suppressed_nodes={2})
    assert r.contacts == (3,)
    assert (
        earliest_delivery_route(
            fig1_plan, 1, 3, 0.0, suppressed_contacts={3}, suppressed_nodes={2}
        )
        is None
    )


def test_k_best_three_node(fig1_plan):
    routes = k_best_routes(fig1_plan, 1, 3, 0.0, 2)
    assert [r.contacts for r in routes] == [(1, 2), (3,)]
    assert [r.delivery_time for r in routes] == [20.0, 30.0]
    assert [r.hops for r in routes] == [2, 1]


def test_k_best_k1_matches_earliest(fig1_plan):
    assert k_best_routes(fig1_plan, 1, 3, 0.0, 1)[0] == earliest_delivery_route(
        fig1_plan, 1, 3, 0.0
    )


def test_route_table_three_node(fig1_plan):
    table = build_route_table(fig1_plan, 2, 0.0, 2, {3})
    routes = table.routes_for(3)
    assert len(routes) == 1
    assert routes[0].contacts == (2,)
    assert routes[0].delivery_time == 20.0
    assert routes[0].hops == 1


def test_route_table_empty_destinations(fig1_plan):
    table = build_route_table(fig1_plan, 1, 0.0, 2, set())
    assert table.destinations() == []


def test_route_table_isolated_owner(fig1_plan):
    plan = ContactPlan(
        fig1_plan.grid,
        list(fig1_plan.nodes) + [NodeSpec(4)],
        list(fig1_plan.contacts),
    )
    table = build_route_table(plan, 4, 0.0, 3, {1, 3})
    assert table.routes_for(1) == [] and table.routes_for(3) == []


def test_route_table_csv(fig1_plan):
    table = build_route_table(fig1_plan, 1, 0.0, 2, {3})
    text = route_table_csv(table)
    lines = text.strip().split("\n")
    assert lines[0].startswith("route_id,owner,dest")
    assert lines[1] == "0,1,3,1|2,20.0,2,10.0,10"
    assert lines[2] == "1,1,3,3,30.0,1,30.0,10"


def test_earliest_route_matches_enumeration_on_seeded_plans():
    for seed in range(150):
        rng = random.Random(seed)
        plan = random_small_plan(rng)
        nodes = sorted(plan.node_ids)
        src, dst = nodes[0], nodes[-1]
        t_now = rng.choice([0.0, plan.grid.state_duration])
        expected = enumerate_routes(plan, src, dst, t_now)
        got = earliest_delivery_route(plan, src, dst, t_now)
        if not expected:
            assert got is None
        else:
            delivery, hops, ids = expected[0]
            assert got.contacts == ids
            assert got.delivery_time == pytest.approx(delivery)
            assert got.hops == hops


def test_earliest_route_with_suppressions_matches_enumeration():
    for seed in range(80):
        rng = random.Random(1000 + seed)
        plan = random_small_plan(rng)
        nodes = sorted(plan.node_ids)
        src, dst = nodes[0], nodes[-1]
        cids = [c.contact_id for c in plan.contacts]
        sup_c = set(rng.sample(cids, min(2, len(cids))))
        middle = [n for n in nodes if n not in (src, dst)]
        sup_n = set(rng.sample(middle, min(1, len(middle))))
        expected = enumerate_routes(plan, src, dst, 0.0, sup_c, sup_n)
        got = earliest_delivery_route(plan, src, dst, 0.0, sup_c, sup_n)
        if not expected:
            assert got is None
        else:
            assert got.contacts == expected[0][2]
            assert not set(got.contacts) & sup_c


def test_k_best_matches_enumeration_on_seeded_plans():
    for seed in range(150):
        rng = random.Random(2000 + seed)
        plan = random_small_plan(rng)
        nodes = sorted(plan.node_ids)
        src, dst = nodes[0], nodes[-1]
        expected = enumerate_routes(plan, src, dst, 0.0)
        got = k_best_routes(plan, src, dst, 0.0, 4)
        assert [r.contacts for r in got] == [ids for _, _, ids in expected[:4]]
        assert [r.delivery_time for r in got] == pytest.approx(
            [d for d, _, _ in expected[:4]]
        )


def test_k_best_prefix_property():
    for seed in range(40):
        rng = random.Random(3000 + seed)
        plan = random_small_plan(rng)
        nodes = sorted(plan.node_ids)
        src, dst = nodes[0], nodes[-1]
        shorter = k_best_routes(plan, src, dst, 0.0, 3)
        longer = k_best_routes(plan, src, dst, 0.0, 4)
        assert longer[: len(shorter)] == shorter


def test_routes_never_revisit_nodes_and_schedule_increases():
    for seed in range(60):
        rng = random.Random(4000 + seed)
        plan = random_small_plan(rng)
        nodes = sorted(plan.node_ids)
        src, dst = nodes[0], nodes[-1]
        for r in k_best_routes(plan, src, dst, 0.0, 4):
            visited = [src] + [plan.contact(c).to_node for c in r.contacts]
            assert len(set(visited)) == len(visited)
            # transmission states must strictly increase along the chain
            grid = plan.grid
            avail = 0
            for cid in r.contacts:
                first, last = plan.windows[cid]
                q = max(avail + 1, first)
                assert q <= last
                avail = q
            assert grid.state_end(avail) == r.delivery_time
