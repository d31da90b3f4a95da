import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrlab.contact_graph import Route, RouteTable, build_route_table
from cgrlab.contact_plan import Contact, ContactPlan, NodeSpec, StateGrid
from cgrlab.forwarding import (
    CapacityError,
    CapacityLedger,
    Packet,
    Policy,
    forward_or_drop,
)

from oracles import reference_forward_or_drop


@pytest.fixture
def n1_table(fig1_plan):
    return build_route_table(fig1_plan, 1, 0.0, 2, {3})


@pytest.fixture
def ledger(fig1_plan):
    return CapacityLedger.for_plan(fig1_plan)


def _choices(table, pkt, t_now, ledger):
    """The route each policy books for pkt, each on its own copy of ledger."""
    return {
        policy: forward_or_drop(pkt, table, t_now, copy.deepcopy(ledger), policy)
        for policy in Policy
    }


def test_filter_keeps_both_routes_for_lenient_deadline(n1_table, ledger):
    # Both routes are usable, so each policy books the one it ranks first.
    choices = _choices(n1_table, Packet(1, 1, 3, 0.0, 30.0), 0.0, ledger)
    assert choices[Policy.DELTIME].contacts == (1, 2)
    assert choices[Policy.HOPS].contacts == (3,)


def test_filter_applies_deadline(n1_table, ledger):
    choices = _choices(n1_table, Packet(1, 1, 3, 0.0, 20.0), 0.0, ledger)
    assert {route.contacts for route in choices.values()} == {(1, 2)}


def test_filter_excludes_exhausted_capacity(n1_table, ledger):
    ledger.book(n1_table.routes_for(3)[0].contacts, 10)  # drains contacts 1 and 2
    choices = _choices(n1_table, Packet(1, 1, 3, 0.0, 30.0), 0.0, ledger)
    assert {route.contacts for route in choices.values()} == {(3,)}


def test_filter_excludes_expired_and_departed_routes(n1_table, ledger):
    # the two-hop route expired at 10 s and its departure has passed
    choices = _choices(n1_table, Packet(1, 1, 3, 10.0, math.inf), 10.0, ledger)
    assert {route.contacts for route in choices.values()} == {(3,)}


def test_select_route_policies(n1_table, ledger):
    routes = n1_table.routes_for(3)
    # The order the table lists its routes in does not matter.
    for listed in (routes, routes[::-1]):
        table = RouteTable(1, n1_table.grid, {3: list(listed)})
        choices = _choices(table, Packet(1, 1, 3, 0.0, math.inf), 0.0, ledger)
        assert choices[Policy.DELTIME].contacts == (1, 2)
        assert choices[Policy.HOPS].contacts == (3,)
    empty = RouteTable(1, n1_table.grid, {3: []})
    assert forward_or_drop(Packet(1, 1, 3, 0.0), empty, 0.0, ledger, Policy.DELTIME) is None


def test_select_route_singleton_agreement(n1_table, ledger):
    for r in n1_table.routes_for(3):
        table = RouteTable(1, n1_table.grid, {3: [r]})
        choices = _choices(table, Packet(1, 1, 3, 0.0, math.inf), 0.0, ledger)
        assert choices[Policy.DELTIME] == choices[Policy.HOPS] == r


def _route(contacts, delivery, hops):
    return Route(
        contacts=tuple(contacts),
        source=1,
        destination=3,
        departure_time=0.0,
        delivery_time=delivery,
        hops=hops,
        expiration=100.0,
        max_volume=10,
    )


@given(
    st.lists(
        st.tuples(st.floats(10.0, 90.0), st.integers(1, 5)),
        min_size=1,
        max_size=6,
        unique=True,
    )
)
@settings(max_examples=50, deadline=None)
def test_hops_choice_never_uses_more_hops(pairs):
    routes = [
        _route((i + 1,), delivery, hops) for i, (delivery, hops) in enumerate(pairs)
    ]
    table = RouteTable(1, StateGrid(10, 10.0), {3: routes})
    ledger = CapacityLedger({i + 1: 10 for i in range(len(routes))})
    choices = _choices(table, Packet(1, 1, 3, 0.0), 0.0, ledger)
    assert choices[Policy.HOPS].hops <= choices[Policy.DELTIME].hops


def test_book_capacity_decrements_all_contacts(fig1_plan, n1_table, ledger):
    route = n1_table.routes_for(3)[0]
    ledger.book(route.contacts, 10)
    assert ledger.residual(1) == 0
    assert ledger.residual(2) == 0
    assert ledger.residual(3) == 10


def test_book_zero_is_noop(n1_table, ledger):
    ledger.book(n1_table.routes_for(3)[0].contacts, 0)
    assert ledger.residual(1) == 10


def test_overbooking_rejected_atomically(fig1_plan, ledger):
    route = build_route_table(fig1_plan, 2, 0.0, 1, {3}).routes_for(3)[0]
    with pytest.raises(CapacityError):
        ledger.book(route.contacts, 11)
    assert ledger.residual(2) == 10  # untouched after the failed booking


def test_booking_requires_all_contacts(fig1_plan, n1_table, ledger):
    ledger.book((2,), 10)  # someone else drained the relay contact
    with pytest.raises(CapacityError):
        ledger.book(n1_table.routes_for(3)[0].contacts, 1)
    assert ledger.residual(1) == 10


def test_forward_or_drop_hops_books_direct_contact(n1_table, ledger):
    pkt = Packet(1, 1, 3, 0.0, 30.0)
    route = forward_or_drop(pkt, n1_table, 0.0, ledger, Policy.HOPS)
    assert route.contacts == (3,)
    assert ledger.residual(3) == 9


def test_forward_or_drop_expired_deadline(n1_table, ledger):
    pkt = Packet(1, 1, 3, 0.0, 5.0)  # nothing delivers within 5 s
    assert forward_or_drop(pkt, n1_table, 0.0, ledger, Policy.DELTIME) is None


def test_forward_or_drop_congested_relay(fig1_plan):
    # the relay's own traffic has consumed its delivering contact
    table = build_route_table(fig1_plan, 2, 0.0, 2, {3})
    ledger = CapacityLedger.for_plan(fig1_plan)
    for i in range(10):
        assert forward_or_drop(Packet(i, 2, 3, 0.0, 20.0), table, 0.0, ledger, Policy.DELTIME)
    late = Packet(99, 1, 3, 0.0, 20.0)
    assert forward_or_drop(late, table, 10.0, ledger, Policy.DELTIME) is None


def test_ledger_never_negative(fig1_plan, n1_table):
    ledger = CapacityLedger.for_plan(fig1_plan)
    booked = 0
    pkt = Packet(1, 1, 3, 0.0, 30.0)
    while True:
        route = forward_or_drop(pkt, n1_table, 0.0, ledger, Policy.DELTIME)
        if route is None:
            break
        booked += 1
    assert booked == 20  # 10 on the two-hop route, then 10 direct
    for cid in (1, 2, 3):
        assert ledger.residual(cid) >= 0


@st.composite
def decisions(draw):
    """A node's route table on a small random plan, a partly drained
    ledger, and packets to decide on, each with a decision time and policy.

    The table is built at t = 0 or at a later state start, and its route
    lists are shuffled, as a table built by hand may list them in any order.
    """
    states = draw(st.integers(3, 5))
    duration = draw(st.sampled_from([10.0, 0.1]))
    grid = StateGrid(states, duration)
    nodes = list(range(1, draw(st.integers(3, 4)) + 1))
    contacts = []
    for cid in range(1, draw(st.integers(4, 12)) + 1):
        a, b = draw(st.permutations(nodes))[:2]
        q1 = draw(st.integers(1, states))
        q2 = draw(st.integers(q1, states))
        contacts.append(
            Contact(cid, a, b, grid.state_start(q1), grid.state_end(q2), draw(st.integers(1, 3)))
        )
    plan = ContactPlan(grid, [NodeSpec(v) for v in nodes], contacts)

    owner = nodes[0]
    dests = nodes[1:]
    built_at = draw(st.integers(1, states))
    k = draw(st.integers(2, 4))
    table = build_route_table(plan, owner, grid.state_start(built_at), k, set(dests))
    for dst in dests:
        table.routes[dst] = draw(st.permutations(table.routes_for(dst)))
    ledger = CapacityLedger(
        {cid: volume - draw(st.integers(0, volume)) for cid, volume in sorted(plan.volumes.items())}
    )

    packets = []
    for pid in range(1, draw(st.integers(1, 8)) + 1):
        q_gen = draw(st.sampled_from([1, built_at]))
        ttl = draw(st.sampled_from([math.inf, 0.0, 1.0, 1.5, 2.0, 3.0, 4.0])) * duration
        pkt = Packet(pid, owner, draw(st.sampled_from(dests)), grid.state_start(q_gen), ttl)
        t_now = grid.state_start(draw(st.integers(q_gen, min(q_gen + 1, states))))
        packets.append((pkt, t_now, draw(st.sampled_from(list(Policy)))))
    return plan, table, ledger, packets


@given(decisions())
@settings(max_examples=200, deadline=None)
def test_forwarding_matches_the_filter_then_select_reference(case):
    plan, table, ledger, packets = case
    reference = copy.deepcopy(ledger)
    for pkt, t_now, policy in packets:
        route = forward_or_drop(pkt, table, t_now, ledger, policy)
        assert route == reference_forward_or_drop(pkt, table, t_now, reference, policy)
        assert [ledger.residual(cid) for cid in plan.volumes] == [
            reference.residual(cid) for cid in plan.volumes
        ]
