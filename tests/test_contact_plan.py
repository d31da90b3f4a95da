import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrlab.contact_graph import build_route_table, contact_index, route_table_csv
from cgrlab.contact_plan import (
    Contact,
    ContactPlan,
    NodeSpec,
    PlanError,
    PlanSemanticError,
    PlanSyntaxError,
    StateGrid,
    TopologyConfig,
    generate_random_topology,
    parse_contact_plan,
    serialize_contact_plan,
    validate,
)

from conftest import THREE_NODE_PLAN


def test_parse_three_node_plan(fig1_plan):
    assert fig1_plan.grid == StateGrid(3, 10.0)
    assert sorted(fig1_plan.node_ids) == [1, 2, 3]
    assert len(fig1_plan.contacts) == 3
    c1 = fig1_plan.contact(1)
    assert (c1.from_node, c1.to_node, c1.start, c1.end, c1.capacity) == (1, 2, 0.0, 10.0, 10)
    window = contact_index(fig1_plan).contacts[1]
    assert (window.first, window.last) == (1, 1)


def test_parse_header_only_gives_empty_plan():
    plan = parse_contact_plan("plan 3 10\n")
    assert plan.contacts == []
    assert plan.nodes == []
    assert serialize_contact_plan(plan) == "plan 3 10\n"


def test_parse_ignores_comments_and_blank_lines():
    text = "# a plan\n\nplan 2 5\nnode 1 inf  # the only node\n"
    plan = parse_contact_plan(text)
    assert plan.grid == StateGrid(2, 5.0)
    assert len(plan.nodes) == 1


def test_serialize_is_canonical(fig1_plan):
    assert serialize_contact_plan(fig1_plan) == THREE_NODE_PLAN


def test_parse_serialize_round_trip_over_seeded_plans():
    for seed in range(100):
        grid = StateGrid(6, 10.0 if seed % 2 else 0.001)
        cfg = TopologyConfig(node_count=6, density=0.3, capacity=5, grid=grid, seed=seed)
        plan = generate_random_topology(cfg)
        again = parse_contact_plan(serialize_contact_plan(plan))
        assert again == plan


def test_missing_header_is_syntax_error():
    with pytest.raises(PlanSyntaxError):
        parse_contact_plan("node 1 inf\n")


def test_duplicate_header_is_syntax_error():
    with pytest.raises(PlanSyntaxError):
        parse_contact_plan("plan 2 10\nplan 2 10\n")


def test_syntax_error_reports_line_and_column():
    with pytest.raises(PlanSyntaxError) as err:
        parse_contact_plan("plan 2 10\nnode one inf\n")
    assert err.value.line == 2
    assert err.value.column == 6


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("plan 3 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 nan 10 5\n", 4, 15),
        ("plan 3 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 0 inf 5\n", 4, 17),
        ("plan 3 inf\n", 1, 8),
    ],
)
def test_non_finite_numbers_are_syntax_errors(text, line, column):
    with pytest.raises(PlanSyntaxError, match="finite") as err:
        parse_contact_plan(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_underflowing_state_duration_gives_an_off_grid_diagnostic():
    # 10 / 1e-320 overflows to inf, so the contact end is on no boundary.
    assert StateGrid(3, 1e-320).boundary_index(10.0) is None
    with pytest.raises(PlanSemanticError) as err:
        parse_contact_plan("plan 3 1e-320\ncontact 1 1 2 0 10 5\n")
    assert "off-grid-timestamp" in {d.code for d in err.value.diagnostics}


def test_overflowing_ratios_clamp_to_the_grid():
    # 20 / 1e-320 overflows to inf: past the grid's end, not an error.
    grid = StateGrid(3, 1e-320)
    assert grid.floor_boundary_index(20.0) == 3
    assert grid.floor_boundary_index(-20.0) == 0
    assert grid.floor_boundary_index(1e-320) == 1
    assert grid.first_state_starting_at_or_after(20.0) == 4
    assert grid.first_state_starting_at_or_after(-20.0) == 1
    assert grid.first_state_starting_at_or_after(0.0) == 1


def test_overflowing_buffer_capacity_is_a_syntax_error():
    with pytest.raises(PlanSyntaxError) as err:
        parse_contact_plan("plan 3 10\nnode 1 1" + "0" * 400 + "\n")
    assert (err.value.line, err.value.column) == (2, 8)


_H = "plan 3 10\nnode 1 inf\nnode 2 inf\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("node 1 inf\n", "line 1, column 1: missing plan header"),
        ("plan 3 10\n  plan 3 10\n", "line 2, column 3: duplicate plan header"),
        ("plan 3 10\n\tlink 1 2 # a comment\n", "line 2, column 2: unknown record type 'link'"),
        ("plan 3 # 10\n", "line 1, column 1: expected `plan <state_count> <state_duration_s>`"),
        ("  plan three 10\n", "line 1, column 8: state_count must be an integer, got 'three'"),
        ("plan 3\tten\n", "line 1, column 8: state_duration must be a number, got 'ten'"),
        ("plan 3 nan # not a number\n",
         "line 1, column 8: state_duration must be a finite number, got 'nan'"),
        ("plan 0 10\n", "line 1, column 1: state_count must be >= 1, got 0"),
        (_H + "node 3\n", "line 4, column 1: expected `node <id> <buffer_capacity|inf>`"),
        (_H + "node  x inf\n", "line 4, column 7: node id must be an integer, got 'x'"),
        (_H + "node 3 1.5\n", "line 4, column 8: buffer_capacity must be an integer, got '1.5'"),
        (_H + "node 3 1" + "0" * 400 + "\n", "line 4, column 8: buffer_capacity is too large"),
        (_H + "contact 1 1 2 0 10 5 7\n",
         "line 4, column 1: expected `contact <id> <from> <to> <start_s> <end_s> <capacity>`"),
        (_H + "\t contact one 1 2 0 10 5\n",
         "line 4, column 11: contact id must be an integer, got 'one'"),
        (_H + "contact 1 a 2 0 10 5\n", "line 4, column 11: from must be an integer, got 'a'"),
        (_H + "contact 1 1 b 0 10 5\n", "line 4, column 13: to must be an integer, got 'b'"),
        (_H + "contact 1 1 2 zero 10 5\n", "line 4, column 15: start must be a number, got 'zero'"),
        (_H + "contact 1 1 2 0 -inf 5  # comment\n",
         "line 4, column 17: end must be a finite number, got '-inf'"),
        (_H + "contact 1 1 2 0 10 5.0\n",
         "line 4, column 20: capacity must be an integer, got '5.0'"),
        # The first malformed token, in record order, is the one reported.
        (_H + "contact x 1 2 nan 10 y\n",
         "line 4, column 9: contact id must be an integer, got 'x'"),
        # Integer fields are bounded at 2**53 in magnitude.
        ("plan 9007199254740993 10\n", "line 1, column 1: state_count must be at most 2**53"),
        (_H + "node 9007199254740993 inf\n", "line 4, column 6: node id is too large"),
        (_H + "contact 9007199254740993 1 2 0 10 5\n",
         "line 4, column 9: contact id is too large"),
        (_H + "contact 1 -9007199254740993 2 0 10 5\n", "line 4, column 11: from is too large"),
        (_H + "contact 1 1 " + "1" * 30 + " 0 10 5\n", "line 4, column 13: to is too large"),
        (_H + "contact 1 1 2 0 10 -" + "9" * 30 + "\n",
         "line 4, column 20: capacity is too large"),
        # Contact fields are checked after the other records are read; the
        # first malformed record in line order is still the one reported.
        (_H + "contact 1 1 2 0 inf 5\nlink 1 2\n",
         "line 4, column 17: end must be a finite number, got 'inf'"),
        (_H + "link 1 2\ncontact 1 1 2 0 inf 5\n",
         "line 4, column 1: unknown record type 'link'"),
        (_H + "contact 1" + "0" * 30 + " 1 2 0 10 5\ncontact x 1 2 0 10 5\n",
         "line 4, column 9: contact id is too large"),
        (_H + "contact 1 1 2 0 10 5\ncontact 2 1 2 0 10 5 6\ncontact 3 1 2 0 1e400 5\n",
         "line 5, column 1: expected `contact <id> <from> <to> <start_s> <end_s> <capacity>`"),
    ],
)
def test_each_syntax_error_names_its_line_column_and_cause(text, message):
    with pytest.raises(PlanSyntaxError) as err:
        parse_contact_plan(text)
    assert str(err.value) == message


def test_integer_fields_of_2_pow_53_are_accepted_and_volumes_stay_exact():
    big = 2**53
    text = f"plan 3 10\nnode {big - 1} inf\nnode {big} inf\ncontact {big} {big} {big - 1} 0 30 {big}\n"
    plan = parse_contact_plan(text)
    assert plan.contact(big) == Contact(big, big, big - 1, 0.0, 30.0, big)
    assert contact_index(plan).volumes == {big: 3 * big}
    assert serialize_contact_plan(plan) == text
    routes = route_table_csv(build_route_table(plan, big, 0.0, 1, {big - 1}))
    assert routes.splitlines()[1].split(",")[-1] == "27021597764222976"


def test_unknown_record_type_rejected():
    with pytest.raises(PlanSyntaxError):
        parse_contact_plan("plan 1 10\nlink 1 2\n")


@pytest.mark.parametrize(
    "line",
    [
        "contact 9 1 99 0 10 5",  # undeclared node
        "contact 9 1 2 10 10 5",  # empty window
        "contact 9 1 2 0 7 5",  # off-grid end
        "contact 9 1 2 0 40 5",  # beyond the horizon
    ],
)
def test_semantic_errors_rejected(line):
    text = f"plan 3 10\nnode 1 inf\nnode 2 inf\n{line}\n"
    with pytest.raises(PlanSemanticError):
        parse_contact_plan(text)


def test_validate_accepts_good_plan(fig1_plan):
    assert validate(fig1_plan) == []


def test_validate_flags_empty_window(fig1_plan):
    bad = ContactPlan(
        fig1_plan.grid,
        list(fig1_plan.nodes),
        list(fig1_plan.contacts) + [Contact(9, 1, 2, 10.0, 10.0, 5)],
    )
    codes = [d.code for d in validate(bad)]
    assert "empty-contact-window" in codes


def test_validate_flags_unknown_node(fig1_plan):
    bad = ContactPlan(
        fig1_plan.grid,
        list(fig1_plan.nodes),
        list(fig1_plan.contacts) + [Contact(9, 1, 99, 0.0, 10.0, 5)],
    )
    diags = validate(bad)
    assert any(d.code == "unknown-node" and "99" in d.message for d in diags)


def test_validate_flags_duplicates_and_self_loops():
    grid = StateGrid(2, 10.0)
    plan = ContactPlan(
        grid,
        [NodeSpec(1), NodeSpec(1), NodeSpec(2)],
        [Contact(1, 1, 2, 0.0, 10.0, 5), Contact(1, 2, 2, 0.0, 10.0, 5)],
    )
    codes = {d.code for d in validate(plan)}
    assert {"duplicate-node-id", "duplicate-contact-id", "self-loop"} <= codes


def test_generator_density_zero_and_one():
    grid = StateGrid(4, 10.0)
    empty = generate_random_topology(TopologyConfig(5, 0.0, 10, grid, seed=3))
    assert empty.contacts == []
    full = generate_random_topology(TopologyConfig(5, 1.0, 10, grid, seed=3))
    assert len(full.contacts) == 2 * 10 * 4  # both directions, every pair, every state


def test_generator_is_deterministic():
    grid = StateGrid(10, 10.0)
    cfg = TopologyConfig(11, 0.2, 10, grid, seed=42)
    a = serialize_contact_plan(generate_random_topology(cfg))
    b = serialize_contact_plan(generate_random_topology(cfg))
    assert a == b


def test_generator_mean_contact_count_matches_expectation():
    # 55 pairs x 10 states x Bernoulli(0.2) x 2 directions = 220 expected
    grid = StateGrid(10, 10.0)
    total = 0
    for seed in range(100):
        cfg = TopologyConfig(11, 0.2, 10, grid, seed=seed)
        total += len(generate_random_topology(cfg).contacts)
    mean = total / 100
    assert abs(mean - 220) / 220 < 0.05


def test_generated_plans_are_bidirectional_and_state_aligned():
    grid = StateGrid(5, 10.0)
    plan = generate_random_topology(TopologyConfig(6, 0.4, 7, grid, seed=9))
    directed = {(c.from_node, c.to_node, c.start) for c in plan.contacts}
    for a, b, start in directed:
        assert (b, a, start) in directed
    for c in plan.contacts:
        assert grid.boundary_index(c.start) is not None
        assert grid.boundary_index(c.end) is not None
        assert c.end - c.start == grid.state_duration


@st.composite
def plans(draw):
    node_count = draw(st.integers(2, 5))
    states = draw(st.integers(1, 5))
    duration = draw(st.sampled_from([0.1, 1.0, 2.5, 10.0]))
    grid = StateGrid(states, duration)
    contacts = []
    n_contacts = draw(st.integers(0, 8))
    for cid in range(1, n_contacts + 1):
        a = draw(st.integers(1, node_count))
        b = draw(st.integers(1, node_count).filter(lambda x: x != a))
        q1 = draw(st.integers(1, states))
        q2 = draw(st.integers(q1, states))
        cap = draw(st.integers(0, 20))
        contacts.append(Contact(cid, a, b, grid.state_start(q1), grid.state_end(q2), cap))
    buffers = [
        draw(st.sampled_from([math.inf, 0.0, 5.0, 100.0])) for _ in range(node_count)
    ]
    nodes = [NodeSpec(i + 1, buffers[i]) for i in range(node_count)]
    return ContactPlan(grid, nodes, contacts)


@given(plans())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(plan):
    assert validate(plan) == []
    assert parse_contact_plan(serialize_contact_plan(plan)) == plan


@given(plans())
@settings(max_examples=100, deadline=None)
def test_windows_are_the_grid_boundaries_of_each_contact(plan):
    grid = plan.grid
    index = contact_index(plan)
    for c in plan.contacts:
        _, _, _, first, last, _ = index.contacts[c.contact_id]
        assert first == grid.floor_boundary_index(c.start) + 1
        assert last == grid.floor_boundary_index(c.end)
        assert 1 <= first <= last <= grid.state_count
        assert index.volumes[c.contact_id] == c.capacity * (last - first + 1)
    # The simulator transmits in plan position order, (start, contact_id).
    positions = {cid: c.position for cid, c in index.contacts.items()}
    assert sorted(positions.values()) == list(range(len(plan.contacts)))
    assert sorted(positions, key=positions.__getitem__) == [
        c.contact_id for c in sorted(plan.contacts, key=lambda c: (c.start, c.contact_id))
    ]
    assert list(zip(plan.arcs.state.tolist(), plan.arcs.contact_id.tolist())) == sorted(
        (q, cid) for cid, c in index.contacts.items() for q in range(c.first, c.last + 1)
    )


# Numbers at the edges of float range, which must parse or be rejected
# with a PlanError, never raise anything else.
_EDGE_NUMBERS = ["1e-320", "1e308", "-0", "nan", "inf", "-inf", "1" + "0" * 400]
_TOKENS = st.one_of(
    st.sampled_from(_EDGE_NUMBERS),
    st.integers(-1, 50).map(str),
    st.floats().map(repr),
    st.sampled_from(["plan", "node", "contact", "link", "x", "1.2.3", "0x10", "#", "--"]),
)


_USUALLY = st.sampled_from([True] * 19 + [False])
_RARELY = st.sampled_from([False] * 19 + [True])


def _mostly(valid):
    """A record field: a value of the right kind 19 times in 20, else any token."""
    return _USUALLY.flatmap(lambda ok: valid if ok else _TOKENS)


# state_count stays at most 10**6; parsing allocates nothing per state.
_STATE_COUNT = st.one_of(st.integers(1, 5), st.integers(1, 5), st.integers(-1, 10**6)).map(str)
_BUFFER = _mostly(st.sampled_from(["inf", "0", "5", "-0"]))


def _line(draw, kind, fields):
    args = [draw(f) for f in fields]
    if draw(_RARELY):
        args = args[:-1] if draw(st.booleans()) else args + [draw(_TOKENS)]
    return " ".join([kind] + args)


@st.composite
def plan_texts(draw):
    """Plan text that is mostly well formed, with stray tokens, wrong
    arities, duplicate or missing headers and unknown records mixed in.
    Contact times favour 0, -0 and one state duration, so that plans with
    edge durations (1e-320, 1e308) are often accepted."""
    duration = draw(st.sampled_from(["10", "1e-320", "1e308", "2.5", "0.1"]))
    lines = []
    if not draw(_RARELY):
        lines.append(_line(draw, "plan", [_STATE_COUNT, _mostly(st.just(duration))]))
    for node_id in draw(st.permutations(["1", "2", "3"]))[: draw(st.sampled_from([3, 3, 2, 1, 0]))]:
        lines.append(_line(draw, "node", [_mostly(st.just(node_id)), _BUFFER]))
    for cid in range(1, draw(st.sampled_from([1, 1, 2, 2, 3, 0])) + 1):
        ends = draw(st.permutations(["1", "2", "3"]))
        contact = [
            _mostly(st.just(str(cid))),
            _mostly(st.just(ends[0])),
            _mostly(st.just(ends[1])),
            _mostly(st.sampled_from(["0", "-0", "10", duration])),
            _mostly(st.sampled_from(["10", "20", duration, "1e-320", "1e308"])),
            _mostly(st.integers(0, 20).map(str)),
        ]
        lines.append(_line(draw, "contact", contact))
    if draw(_RARELY):
        kind = draw(st.sampled_from(["plan", "link"]))
        lines.insert(draw(st.integers(0, len(lines))), _line(draw, kind, [_TOKENS, _TOKENS]))
    return "\n".join(lines) + "\n"


@given(plan_texts())
@settings(max_examples=400, deadline=None)
def test_parser_accepts_round_trips_or_raises_plan_error(text):
    # Nothing here may read plan.arcs or the contact index: a plan
    # may have up to 10**6 states.
    try:
        plan = parse_contact_plan(text)
    except PlanError:
        return
    assert parse_contact_plan(serialize_contact_plan(plan)) == plan


def test_grid_helpers():
    grid = StateGrid(4, 10.0)
    assert grid.horizon == 40.0
    assert grid.state_start(1) == 0.0 and grid.state_end(1) == 10.0
    assert grid.boundary_index(20.0) == 2
    assert grid.boundary_index(25.0) is None
    assert grid.boundary_index(50.0) is None
    assert grid.floor_boundary_index(25.0) == 2
    assert grid.first_state_starting_at_or_after(0.0) == 1
    assert grid.first_state_starting_at_or_after(10.0) == 2
    assert grid.first_state_starting_at_or_after(15.0) == 3


def test_bad_grid_rejected():
    with pytest.raises(ValueError):
        StateGrid(0, 10.0)
    with pytest.raises(ValueError):
        StateGrid(3, 0.0)
    with pytest.raises(ValueError):
        TopologyConfig(4, 1.5, 10, StateGrid(2, 10.0), seed=0)
