import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrlab.contact_graph import Route, RouteTable, build_route_table, contact_index
from cgrlab.contact_plan import Contact, ContactPlan, NodeSpec, StateGrid
from cgrlab.forwarding import CapacityLedger, Policy, book_cohort

from oracles import Packet, reference_forward_or_drop


@pytest.fixture
def n1_table(fig1_plan):
    return build_route_table(fig1_plan, 1, 0.0, 2, {3})


@pytest.fixture
def ledger(fig1_plan):
    return CapacityLedger(contact_index(fig1_plan).volumes)


def _book(table, policy, n, q, deadline, ledger, dst=3):
    """book_cohort on the table's routes to dst, in the policy's order."""
    return book_cohort(policy.order(table.routes_for(dst)), n, q, deadline, ledger)


def _choices(table, q, deadline, ledger):
    """The route each policy books for one packet decided in state q with
    deadline state `deadline`, each on its own copy of ledger; None for a
    drop."""
    choices = {}
    for policy in Policy:
        booked = _book(table, policy, 1, q, deadline, copy.deepcopy(ledger))
        choices[policy] = booked[0][0] if booked else None
    return choices


def test_filter_keeps_both_routes_for_lenient_deadline(n1_table, ledger):
    # Both routes are usable, so each policy books the one it ranks first.
    # The two-hop route first transmits in state 1, the decision state.
    choices = _choices(n1_table, 1, 3, ledger)
    assert choices[Policy.DELTIME].contacts == (1, 2)
    assert choices[Policy.HOPS].contacts == (3,)


def test_filter_applies_deadline(n1_table, ledger):
    # The two-hop route delivers in state 2, the deadline state itself.
    choices = _choices(n1_table, 1, 2, ledger)
    assert {route.contacts for route in choices.values()} == {(1, 2)}


def test_filter_excludes_exhausted_capacity(n1_table, ledger):
    assert ledger.book_up_to(n1_table.routes_for(3)[0].contacts, 10) == 10  # drains 1 and 2
    choices = _choices(n1_table, 1, 3, ledger)
    assert {route.contacts for route in choices.values()} == {(3,)}


def test_filter_excludes_expired_and_departed_routes(n1_table, ledger):
    # In state 2 the two-hop route has expired (its first contact ended at
    # 10 s), which shows as a first transmission state before the decision.
    choices = _choices(n1_table, 2, 3, ledger)
    assert {route.contacts for route in choices.values()} == {(3,)}


def test_select_route_policies(n1_table, ledger):
    routes = n1_table.routes_for(3)
    # The order the table lists its routes in does not matter.
    for listed in (routes, routes[::-1]):
        table = RouteTable(1, n1_table.plan, {3: list(listed)})
        choices = _choices(table, 1, 3, ledger)
        assert choices[Policy.DELTIME].contacts == (1, 2)
        assert choices[Policy.HOPS].contacts == (3,)
    assert book_cohort([], 1, 1, 3, ledger) == []


def test_select_route_singleton_agreement(n1_table, ledger):
    for r in n1_table.routes_for(3):
        table = RouteTable(1, n1_table.plan, {3: [r]})
        choices = _choices(table, 1, 3, ledger)
        assert choices[Policy.DELTIME] == choices[Policy.HOPS] == r


def _route(first_contact, delivery, hops):
    """A route over hops distinct contacts, from first_contact on, that
    delivers in state delivery."""
    return Route(tuple(range(first_contact, first_contact + hops)), (delivery,) * hops)


@given(
    st.lists(
        st.tuples(st.integers(1, 9), st.integers(1, 5)),
        min_size=1,
        max_size=6,
        unique=True,
    )
)
@settings(max_examples=50, deadline=None)
def test_hops_choice_never_uses_more_hops(pairs):
    routes = [
        _route(10 * i + 1, delivery, hops) for i, (delivery, hops) in enumerate(pairs)
    ]
    table = RouteTable(1, ContactPlan(StateGrid(10, 10.0), [], []), {3: routes})
    ledger = CapacityLedger({cid: 10 for r in routes for cid in r.contacts})
    choices = _choices(table, 1, 10, ledger)
    assert len(choices[Policy.HOPS].contacts) <= len(choices[Policy.DELTIME].contacts)


def test_book_capacity_decrements_all_contacts(fig1_plan, n1_table, ledger):
    route = n1_table.routes_for(3)[0]
    assert ledger.book_up_to(route.contacts, 10) == 10
    assert ledger.residual(1) == 0
    assert ledger.residual(2) == 0
    assert ledger.residual(3) == 10


def test_book_zero_is_noop(n1_table, ledger):
    assert ledger.book_up_to(n1_table.routes_for(3)[0].contacts, 0) == 0
    assert ledger.residual(1) == 10


def test_overbooking_books_only_the_least_residual(fig1_plan, n1_table, ledger):
    assert ledger.book_up_to((1,), 4) == 4
    # Contact 1 has 6 left and contact 2 has 10: 6 go on both.
    assert ledger.book_up_to(n1_table.routes_for(3)[0].contacts, 11) == 6
    assert (ledger.residual(1), ledger.residual(2)) == (0, 4)


def test_booking_requires_all_contacts(fig1_plan, n1_table, ledger):
    assert ledger.book_up_to((2,), 10) == 10  # someone else drained the relay contact
    assert ledger.book_up_to(n1_table.routes_for(3)[0].contacts, 1) == 0
    assert ledger.residual(1) == 10


def test_book_cohort_hops_books_direct_contact(n1_table, ledger):
    booked = _book(n1_table, Policy.HOPS, 1, 1, 3, ledger)
    assert [(route.contacts, n) for route, n in booked] == [((3,), 1)]
    assert ledger.residual(3) == 9


def test_book_cohort_drops_what_no_route_delivers_by_its_deadline(n1_table, ledger):
    # A 5 s ttl from t = 0 has deadline state 0: nothing delivers by then.
    assert _book(n1_table, Policy.DELTIME, 1, 1, 0, ledger) == []
    assert [ledger.residual(cid) for cid in (1, 2, 3)] == [10, 10, 10]


def test_book_cohort_congested_relay(fig1_plan):
    # the relay's own traffic has consumed its delivering contact
    table = build_route_table(fig1_plan, 2, 0.0, 2, {3})
    ledger = CapacityLedger(contact_index(fig1_plan).volumes)
    (direct,) = table.routes_for(3)
    assert _book(table, Policy.DELTIME, 12, 1, 2, ledger) == [(direct, 10)]
    assert _book(table, Policy.DELTIME, 1, 2, 2, ledger) == []


def test_ledger_never_negative(fig1_plan, n1_table):
    ledger = CapacityLedger(contact_index(fig1_plan).volumes)
    booked = 0
    while _book(n1_table, Policy.DELTIME, 1, 1, 3, ledger):
        booked += 1
    assert booked == 20  # 10 on the two-hop route, then 10 direct
    for cid in (1, 2, 3):
        assert ledger.residual(cid) >= 0
    # One cohort of 25 books the same 20 and drops 5.
    cohort = CapacityLedger(contact_index(fig1_plan).volumes)
    two_hop, direct = n1_table.routes_for(3)
    assert _book(n1_table, Policy.DELTIME, 25, 1, 3, cohort) == [(two_hop, 10), (direct, 10)]
    assert [cohort.residual(cid) for cid in (1, 2, 3)] == [0, 0, 0]


def _as_text(t):
    """t written with 12 significant digits and read back, as a contact
    plan file may round it."""
    return float(f"{t:.12g}")


@st.composite
def decisions(draw):
    """A node's route table on a small random plan, a partly drained
    ledger, and cohorts to decide on, each with a decision state, size and
    policy.

    State durations include inexact ones, and contact times are sometimes
    rounded through text. The table is built at t = 0 or at a later state
    start, and its route lists are shuffled, as a table built by hand may
    list them in any order.
    """
    states = draw(st.integers(3, 5))
    duration = draw(st.sampled_from([10.0, 0.1, 1 / 3, 0.001]))
    grid = StateGrid(states, duration)
    nodes = list(range(1, draw(st.integers(3, 4)) + 1))
    contacts = []
    for cid in range(1, draw(st.integers(4, 12)) + 1):
        a, b = draw(st.permutations(nodes))[:2]
        q1 = draw(st.integers(1, states))
        q2 = draw(st.integers(q1, states))
        start, end = grid.state_start(q1), grid.state_end(q2)
        if draw(st.booleans()):
            start, end = _as_text(start), _as_text(end)
        contacts.append(Contact(cid, a, b, start, end, draw(st.integers(1, 3))))
    plan = ContactPlan(grid, [NodeSpec(v) for v in nodes], contacts)

    owner = nodes[0]
    dests = nodes[1:]
    built_at = draw(st.integers(1, states))
    k = draw(st.integers(2, 4))
    table = build_route_table(plan, owner, grid.state_start(built_at), k, set(dests))
    for dst in dests:
        table.routes[dst] = draw(st.permutations(table.routes_for(dst)))
    ledger = CapacityLedger(
        {cid: volume - draw(st.integers(0, volume)) for cid, volume in sorted(contact_index(plan).volumes.items())}
    )

    cohorts = []
    for pid in range(1, draw(st.integers(1, 8)) + 1):
        q_gen = draw(st.sampled_from([1, built_at]))
        ttl = draw(st.sampled_from([math.inf, 0.0, 1.0, 1.5, 2.0, 3.0, 4.0])) * duration
        pkt = Packet(pid, owner, draw(st.sampled_from(dests)), grid.state_start(q_gen), ttl)
        q = draw(st.integers(q_gen, min(q_gen + 1, states)))
        cohorts.append((pkt, q, draw(st.integers(1, 4)), draw(st.sampled_from(list(Policy)))))
    return plan, table, ledger, cohorts


@given(decisions())
@settings(max_examples=300, deadline=None)
def test_forwarding_matches_the_filter_then_select_reference(case):
    # A cohort of n books what n packets decided one by one by the float
    # reference book, route for route and ledger for ledger.
    plan, table, ledger, cohorts = case
    grid = table.plan.grid
    reference = copy.deepcopy(ledger)
    for pkt, q, n, policy in cohorts:
        deadline = grid.floor_boundary_index(pkt.deadline)
        booked = book_cohort(policy.order(table.routes_for(pkt.dst)), n, q, deadline, ledger)
        got = [route for route, m in booked for _ in range(m)]
        got += [None] * (n - len(got))
        t_now = grid.state_start(q)
        assert got == [
            reference_forward_or_drop(pkt, table, t_now, reference, policy) for _ in range(n)
        ]
        assert [ledger.residual(cid) for cid in contact_index(plan).volumes] == [
            reference.residual(cid) for cid in contact_index(plan).volumes
        ]
