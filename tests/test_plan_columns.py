"""The plan's columns, arcs and contact index against the scalar grid rule,
and the bench paths' freedom from `Contact` objects."""

import random
from dataclasses import replace

import pytest

from cgrlab import experiments, lp_oracle
from cgrlab.contact_graph import contact_index
from cgrlab.contact_plan import (
    Contact,
    ContactPlan,
    NodeSpec,
    StateGrid,
    TopologyConfig,
    generate_random_topology,
    parse_contact_plan,
    serialize_contact_plan,
)

from oracles import scalar_windows
from test_experiments import study_config


def _assert_views_match(plan: ContactPlan) -> None:
    """The window columns, the contact index and the arcs against the
    windows, volumes and plan positions worked out contact by contact."""
    scalar = scalar_windows(plan)
    cols = plan.columns
    assert list(zip(cols.first.tolist(), cols.last.tolist())) == [
        (w.first, w.last) for w in scalar.values()
    ]
    index = contact_index(plan)
    assert index.contacts == {
        cid: (w.contact.from_node, w.contact.to_node, w.contact.capacity, w.first, w.last, i)
        for i, (cid, w) in enumerate(scalar.items())
    }
    assert index.volumes == {cid: w.volume for cid, w in scalar.items()}
    a = plan.arcs
    assert list(zip(*(column.tolist() for column in (
        a.state, a.contact_id, a.from_node, a.to_node, a.capacity)))) == sorted(
        (q, cid, w.contact.from_node, w.contact.to_node, w.contact.capacity)
        for cid, w in scalar.items() for q in w.states
    )


def _times(rng: random.Random, grid: StateGrid) -> list[float]:
    d, f = grid.state_duration, grid.state_count
    q = rng.randint(-2, f + 2)
    return [q * d, q * d + d / 3, q * d - d * 1e-12, q * d + d * 1e-10, -d, 0.0, -0.0,
            grid.horizon, 2 * grid.horizon, -1e300, 1e300, 5e-324]


@pytest.mark.parametrize("grid", [
    StateGrid(5, 0.1), StateGrid(7, 0.001), StateGrid(6, 1 / 3), StateGrid(4, 10.0),
    StateGrid(3, 1e-320), StateGrid(3, 1e308),
])
def test_hand_built_windows_and_arcs_follow_the_scalar_rule(grid):
    # Unvalidated plans: off-grid, negative, past-horizon and overflowing
    # times, and windows that are empty.
    rng = random.Random(grid.state_count)
    for _ in range(20):
        contacts = [
            Contact(cid, rng.randint(1, 3), rng.randint(1, 3), rng.choice(_times(rng, grid)),
                    rng.choice(_times(rng, grid)), rng.randint(0, 9))
            for cid in rng.sample(range(1, 50), rng.randint(0, 8))
        ]
        _assert_views_match(ContactPlan(grid, [NodeSpec(v) for v in (1, 2, 3)], contacts))


@pytest.mark.parametrize("duration", [10.0, 0.001])
def test_generated_and_parsed_plans_follow_the_scalar_rule(duration):
    for seed in range(200):
        cfg = TopologyConfig(6, 0.3, 1 + seed % 4, StateGrid(6, duration), seed)
        plan = generate_random_topology(cfg)
        _assert_views_match(plan)
        again = parse_contact_plan(serialize_contact_plan(plan))
        assert again == plan
        assert again.columns.first.tolist() == plan.columns.first.tolist()
        assert again.columns.last.tolist() == plan.columns.last.tolist()


@pytest.mark.parametrize("duration", [1e308, 1e-320])
def test_generated_plans_on_degenerate_grids_follow_the_scalar_rule(duration):
    # State ends that overflow to inf, and ratios that overflow: a generated
    # plan's windows come from its times, as a parsed plan's do.
    for seed in range(20):
        cfg = TopologyConfig(6, 0.3, 1, StateGrid(6, duration), seed)
        _assert_views_match(generate_random_topology(cfg))


def test_equality_compares_grid_nodes_and_columns(fig1_plan):
    same = ContactPlan(fig1_plan.grid, list(reversed(fig1_plan.nodes)),
                       list(reversed(fig1_plan.contacts)))
    assert same == fig1_plan
    widened = ContactPlan(fig1_plan.grid, fig1_plan.nodes,
                          [replace(c, capacity=c.capacity + 1) for c in fig1_plan.contacts])
    assert widened != fig1_plan
    assert ContactPlan(StateGrid(3, 5.0), fig1_plan.nodes, fig1_plan.contacts) != fig1_plan


@pytest.mark.parametrize("field, value", [
    ("capacity", 2.5), ("contact_id", 2**63), ("from_node", "1"),
])
def test_hand_built_integer_fields_must_fit_int64(fig1_plan, field, value):
    first, *rest = fig1_plan.contacts
    with pytest.raises(TypeError, match="must be int64 integers"):
        ContactPlan(fig1_plan.grid, fig1_plan.nodes, [replace(first, **{field: value}), *rest])


@pytest.fixture
def contact_count(monkeypatch):
    """How many `Contact` objects have been built since the fixture began."""
    built = [0]
    init = Contact.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Contact, "__init__", counting_init)
    return built


def test_counting_sees_lazy_contacts(fig1_plan, contact_count):
    assert len(fig1_plan.contacts) == 3
    assert contact_count == [3]


def test_the_lp_path_builds_no_contact_objects(contact_count):
    # One `cgrlab lp --soft` call on a per-state plan: parse, build, solve,
    # verify, metrics.
    cfg = study_config(traffic=replace(study_config().traffic, injection="per-state"),
                       lp=experiments.LpConfig(soft=True), seeds=(1,))
    plan, demands = experiments.build_scenario(cfg, seed=1, load=2)
    text = serialize_contact_plan(plan)
    contact_count[0] = 0
    plan = parse_contact_plan(text)
    commodities = lp_oracle.demands_to_commodities(demands)
    problem = lp_oracle.build_lp(plan, commodities, soft=True)
    solution = lp_oracle.solve_lp(problem)
    assert solution.status == "optimal"
    assert lp_oracle.verify_solution(problem, solution) == []
    lp_oracle.lp_metrics(plan, commodities, solution)
    assert contact_count == [0]


def test_the_study_sweep_builds_no_contact_objects(contact_count):
    # Generate, route, simulate both policies and bound with the LP.
    result = experiments.run_sweep(study_config(seeds=(1,), loads=(1, 5)), jobs=1)
    assert {row.status for row in result.rows} <= {"ok", "infeasible"}
    assert len(result.rows) == 6
    assert contact_count == [0]
