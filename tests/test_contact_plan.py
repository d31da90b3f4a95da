import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrlab.contact_plan import (
    Contact,
    ContactPlan,
    NodeSpec,
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
    assert fig1_plan.windows[1].states == range(1, 2)


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
    grid = StateGrid(6, 10.0)
    for seed in range(100):
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
    for c in plan.contacts:
        first, last = plan.windows[c.contact_id]
        assert first == grid.floor_boundary_index(c.start) + 1
        assert last == grid.floor_boundary_index(c.end)
        assert 1 <= first <= last <= grid.state_count
        assert plan.volumes[c.contact_id] == c.capacity * (last - first + 1)
    assert plan.state_contacts[0] == []
    for q in range(1, grid.state_count + 1):
        assert plan.state_contacts[q] == [
            c for c in plan.contacts if q in plan.windows[c.contact_id].states
        ]


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
