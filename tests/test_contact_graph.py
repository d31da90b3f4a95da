import csv
import hashlib
import heapq
import itertools
import random
from types import SimpleNamespace

import pytest

from cgrlab import contact_graph
from cgrlab.contact_graph import (
    RouteTable,
    build_route_table,
    build_route_tables,
    earliest_delivery_route,
    k_best_routes,
    route_table_csv,
)
from cgrlab.contact_plan import (
    Contact,
    ContactPlan,
    NodeSpec,
    StateGrid,
    TopologyConfig,
    generate_random_topology,
    parse_contact_plan,
)

from conftest import random_small_plan
from oracles import enumerate_routes, route_attributes, scalar_windows


def _printed(plan, route):
    """The route's row as `route_table_csv` prints it."""
    table = RouteTable(1, plan, {3: [route]})
    (row,) = csv.DictReader(route_table_csv(table).splitlines())
    return row


def test_route_attributes_two_hop(fig1_plan):
    r = route_attributes(fig1_plan, [1, 2], 0.0)
    assert fig1_plan.grid.state_end(r.states[-1]) == 20.0
    row = _printed(fig1_plan, r)
    assert row["hops"] == "2"
    assert row["expiration"] == "10.0"  # dies when its first contact ends
    assert row["max_volume"] == "10"
    assert fig1_plan.grid.state_start(r.states[0]) == 0.0
    assert (fig1_plan.contact(r.contacts[0]).from_node,
            fig1_plan.contact(r.contacts[-1]).to_node) == (1, 3)
    assert r == earliest_delivery_route(fig1_plan, 1, 3, 0.0)


def test_route_attributes_single_contact(fig1_plan):
    r = route_attributes(fig1_plan, [3], 0.0)
    assert fig1_plan.grid.state_end(r.states[-1]) == 30.0
    assert len(r.contacts) == 1
    assert fig1_plan.grid.state_start(r.states[0]) == 20.0
    row = _printed(fig1_plan, r)
    assert row["expiration"] == "30.0"
    assert row["max_volume"] == str(fig1_plan.contact(3).capacity)


def test_route_attributes_broken_chain(fig1_plan):
    with pytest.raises(ValueError, match="broken chain"):
        route_attributes(fig1_plan, [1, 3], 0.0)


def test_route_attributes_contact_already_ended(fig1_plan):
    with pytest.raises(ValueError):
        route_attributes(fig1_plan, [1, 2], 15.0)  # first hop's window closed


def test_route_attributes_unschedulable_order():
    grid = StateGrid(3, 10.0)
    plan = ContactPlan(
        grid,
        [NodeSpec(1), NodeSpec(2), NodeSpec(3)],
        [Contact(1, 1, 2, 10.0, 20.0, 5), Contact(2, 2, 3, 0.0, 10.0, 5)],
    )
    with pytest.raises(ValueError):
        route_attributes(plan, [1, 2], 0.0)  # second contact ends before first begins


def test_earliest_route_prefers_delivery_time(fig1_plan):
    r = earliest_delivery_route(fig1_plan, 1, 3, 0.0)
    assert r.contacts == (1, 2)
    assert fig1_plan.grid.state_end(r.states[-1]) == 20.0


def test_earliest_route_breaks_delivery_and_hop_ties_on_contact_ids():
    # (22, 9) reaches contact 9 two states before (6, 9) with the same hops,
    # yet both deliver at 60 in 3 hops, so the smaller ids must win.
    plan = parse_contact_plan(
        "plan 6 10\n"
        "node 2 inf\nnode 4 inf\nnode 5 inf\nnode 6 inf\n"
        "contact 22 5 6 0 20 1\n"
        "contact 6 5 6 20 50 1\n"
        "contact 9 6 4 10 60 1\n"
        "contact 16 4 2 50 60 1\n"
    )
    r = earliest_delivery_route(plan, 5, 2)
    assert r.contacts == (6, 9, 16)
    assert plan.grid.state_end(r.states[-1]) == 60.0
    # The same tie the other way round: from t = 10 the smaller ids (6)
    # leave in a state their contact covers after its first, the larger
    # (22) in their contact's first state.
    plan = parse_contact_plan(
        "plan 6 10\n"
        "node 2 inf\nnode 4 inf\nnode 5 inf\nnode 6 inf\n"
        "contact 6 5 6 0 30 1\n"
        "contact 22 5 6 30 50 1\n"
        "contact 9 6 4 10 60 1\n"
        "contact 16 4 2 50 60 1\n"
    )
    r = earliest_delivery_route(plan, 5, 2, 10.0)
    assert r.contacts == (6, 9, 16)
    assert plan.grid.state_end(r.states[-1]) == 60.0


def test_earliest_route_unreachable(fig1_plan):
    assert earliest_delivery_route(fig1_plan, 3, 1, 0.0) is None


def test_earliest_route_unknown_node(fig1_plan):
    with pytest.raises(KeyError):
        earliest_delivery_route(fig1_plan, 1, 99, 0.0)


@pytest.mark.parametrize("t_now", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("search", [
    lambda plan, t: earliest_delivery_route(plan, 1, 3, t),
    lambda plan, t: k_best_routes(plan, 1, 3, t, 2),
    lambda plan, t: build_route_table(plan, 1, t, 2, {2, 3}),
], ids=["earliest", "k_best", "table"])
def test_every_route_search_rejects_a_non_finite_t_now(fig1_plan, search, t_now):
    with pytest.raises(ValueError, match="t_now must be a finite number"):
        search(fig1_plan, t_now)


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
    assert [fig1_plan.grid.state_end(r.states[-1]) for r in routes] == [20.0, 30.0]
    assert [len(r.contacts) for r in routes] == [2, 1]


def test_k_best_k1_matches_earliest(fig1_plan):
    assert k_best_routes(fig1_plan, 1, 3, 0.0, 1)[0] == earliest_delivery_route(
        fig1_plan, 1, 3, 0.0
    )


def test_route_table_three_node(fig1_plan):
    table = build_route_table(fig1_plan, 2, 0.0, 2, {3})
    routes = table.routes_for(3)
    assert len(routes) == 1
    assert routes[0].contacts == (2,)
    assert fig1_plan.grid.state_end(routes[0].states[-1]) == 20.0
    assert len(routes[0].contacts) == 1


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
            assert plan.grid.state_end(got.states[-1]) == pytest.approx(delivery)
            assert len(got.contacts) == hops


def test_earliest_route_with_suppressions_matches_enumeration():
    for seed, max_contacts in itertools.product(range(80), (8, 16, 24)):
        rng = random.Random(1000 + seed)
        plan = random_small_plan(rng, max_contacts)
        nodes = sorted(plan.node_ids)
        src, dst = nodes[0], nodes[-1]
        cids = [c.contact_id for c in plan.contacts]
        sup_c = set(rng.sample(cids, min(2, len(cids))))
        # Yen suppresses contacts that leave the spur node.
        leaving = [c.contact_id for c in plan.contacts if c.from_node == src]
        sup_c |= set(rng.sample(leaving, rng.randint(0, len(leaving))))
        middle = [n for n in nodes if n not in (src, dst)]
        sup_n = set(rng.sample(middle, rng.randint(0, min(3, len(middle)))))
        # Start states before, at, inside and past the horizon, on a state
        # boundary and mid-state.
        d, horizon = plan.grid.state_duration, plan.grid.horizon
        for t_now in (-d, 0.0, 0.5 * d, d, 1.5 * d, horizon, horizon + d):
            expected = enumerate_routes(plan, src, dst, t_now, sup_c, sup_n)
            got = earliest_delivery_route(plan, src, dst, t_now, sup_c, sup_n)
            if not expected:
                assert got is None
            else:
                assert got.contacts == expected[0][2]
                assert plan.grid.state_end(got.states[-1]) == pytest.approx(expected[0][0])
                assert not set(got.contacts) & sup_c


def test_earliest_route_falls_back_to_a_second_child_past_a_suppressed_node():
    # From node 1 the best child is node 2 (contact 2), whose unconstrained
    # completion 3, 4 runs through node 4. With node 4 suppressed, node 2
    # can still deliver by contact 6, but node 3's route 1, 5 ties with it
    # on delivery and hops and has the smaller ids.
    plan = parse_contact_plan(
        "plan 4 10\n"
        "node 1 inf\nnode 2 inf\nnode 3 inf\nnode 4 inf\nnode 5 inf\n"
        "contact 1 1 3 0 10 1\n"
        "contact 2 1 2 0 10 1\n"
        "contact 3 2 4 10 20 1\n"
        "contact 4 4 5 20 30 1\n"
        "contact 5 3 5 30 40 1\n"
        "contact 6 2 5 30 40 1\n"
    )
    assert earliest_delivery_route(plan, 1, 5).contacts == (2, 3, 4)
    got = earliest_delivery_route(plan, 1, 5, suppressed_nodes={4})
    assert got.contacts == (1, 5) == enumerate_routes(plan, 1, 5, 0.0, set(), {4})[0][2]
    assert got.states == (1, 4)
    got = earliest_delivery_route(plan, 1, 5, suppressed_contacts={1}, suppressed_nodes={4})
    assert got.contacts == (2, 6)


def test_search_settles_each_node_and_state_once(monkeypatch):
    # S=1 reaches D=2 only by 1 -> X=3 -> Y=4 -> D. A clique C = 5..8 has
    # contacts among itself, with Y both ways and to X, all over the
    # horizon. The spur at Y (Y -> D and nodes S, X suppressed) has no
    # allowed route, yet every walk through C and Y has a completion, via
    # X or Y -> D. Settling (node, state) keeps its pops within nodes x
    # states instead of one per walk.
    states, clique = 8, range(5, 9)
    pairs = [(1, 3, 0, 10), (3, 4, 10, 20), (4, 2, 0, 80)]
    pairs += [(v, w, 0, 80) for v in clique for w in clique if v != w]
    pairs += [(v, w, 0, 80) for c in clique for v, w in ((c, 4), (4, c), (c, 3))]
    plan = parse_contact_plan(
        f"plan {states} 10\n"
        + "".join(f"node {n} inf\n" for n in range(1, 9))
        + "".join(
            f"contact {i} {v} {w} {a} {b} 1\n" for i, (v, w, a, b) in enumerate(pairs, 1)
        )
    )
    pops = [0]

    def heappop(heap):
        pops[0] += 1
        return heapq.heappop(heap)

    counting = SimpleNamespace(heappush=heapq.heappush, heappop=heappop)
    monkeypatch.setattr(contact_graph, "heapq", counting)
    assert earliest_delivery_route(plan, 4, 2, 20.0, {3}, {1, 3}) is None
    assert pops[0] <= len(plan.node_ids) * (states + 1)
    assert [r.contacts for r in k_best_routes(plan, 1, 2, 0.0, 2)] == [(1, 2, 3)]


def test_k_best_matches_enumeration_on_seeded_plans():
    for seed, max_contacts in itertools.product(range(150), (8, 16)):
        rng = random.Random(2000 + seed)
        plan = random_small_plan(rng, max_contacts)
        nodes = sorted(plan.node_ids)
        src, dst = nodes[0], nodes[-1]
        d = plan.grid.state_duration
        for t_now in (0.0, 0.5 * d, d, 2.5 * d):
            expected = enumerate_routes(plan, src, dst, t_now)
            for k in (1, 4, 6):
                got = k_best_routes(plan, src, dst, t_now, k)
                assert [r.contacts for r in got] == [ids for _, _, ids in expected[:k]]
                assert [plan.grid.state_end(r.states[-1]) for r in got] == pytest.approx(
                    [t for t, _, _ in expected[:k]]
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
    for seed, max_contacts, k in itertools.product(range(60), (8, 16), (1, 4, 6)):
        rng = random.Random(4000 + seed)
        plan = random_small_plan(rng, max_contacts)
        nodes = sorted(plan.node_ids)
        src, dst = nodes[0], nodes[-1]
        windows = scalar_windows(plan)
        for r in k_best_routes(plan, src, dst, 0.0, k):
            visited = [src] + [plan.contact(c).to_node for c in r.contacts]
            assert len(set(visited)) == len(visited)
            # transmission states must strictly increase along the chain
            grid = plan.grid
            avail = 0
            states = []
            for cid in r.contacts:
                first, last = windows[cid].first, windows[cid].last
                q = max(avail + 1, first)
                assert q <= last
                avail = q
                states.append(q)
            assert grid.state_end(avail) == grid.state_end(r.states[-1])
            # The composed schedule is the greedy one, as route_attributes
            # schedules the chain from scratch.
            assert r.states == tuple(states)
            assert route_attributes(plan, list(r.contacts), 0.0).states == r.states


def test_interleaved_searches_on_plans_differing_in_one_window():
    # Each plan keeps its own completion tables: searches alternating between
    # two plans that differ only in one contact's window must each see
    # their own plan.
    differing = 0
    for seed in range(60):
        rng = random.Random(7000 + seed)
        base = random_small_plan(rng, 12)
        if not base.contacts:
            continue
        grid = base.grid
        moved = rng.choice(base.contacts)
        q1 = rng.randint(1, grid.state_count)
        q2 = rng.randint(q1, grid.state_count)
        other = ContactPlan(
            grid,
            list(base.nodes),
            [
                Contact(c.contact_id, c.from_node, c.to_node, grid.state_start(q1),
                        grid.state_end(q2), c.capacity)
                if c is moved else c
                for c in base.contacts
            ],
        )
        pairs = list(itertools.permutations(sorted(base.node_ids), 2))
        for t_now in (0.0, grid.state_duration):
            answers = {}
            for plan in (base, other, base, other):
                for src, dst in pairs:
                    got = [r.contacts for r in k_best_routes(plan, src, dst, t_now, 4)]
                    expected = enumerate_routes(plan, src, dst, t_now)[:4]
                    assert got == [ids for _, _, ids in expected]
                    answers[id(plan), src, dst] = got
            differing += sum(
                answers[id(base), src, dst] != answers[id(other), src, dst] for src, dst in pairs
            )
    assert differing > 0


# sha256 over the route_table_csv of every owner, in owner order, taken
# before the route search expanded its successors lazily.
PINNED_TABLES = {
    (11, 10, 1): "7f5b828b1270289d8fbb7674511543c2adf017cd90f16ff58d328553d850c0ce",
    (11, 10, 2): "717ba170522574c75f59d017a35233b0121ebb60e4bd4850cf0c3222c06dadfc",
    (11, 10, 3): "d68ffc91058ddeae95402990444d6fe6f5a4ce1464488845f06eef95608fc6a7",
    (20, 20, 1): "0d1f5cc0e2a959aec60132b6e5c73257d1b5e4d737f2377da5e64298f2e2e622",
}


@pytest.mark.parametrize("nodes,states,seed", sorted(PINNED_TABLES))
def test_route_tables_are_pinned(nodes, states, seed):
    # The study's topology at this size: density 0.2, capacity 10, 10 s
    # states, destination the highest node, k = 4.
    plan = generate_random_topology(
        TopologyConfig(nodes, 0.2, 10, StateGrid(states, 10.0), seed)
    )
    tables = build_route_tables(plan, 4, {nodes})
    text = "".join(route_table_csv(tables[owner]) for owner in sorted(tables))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TABLES[(nodes, states, seed)]
