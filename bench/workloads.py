"""The three benchmark workloads: their inputs, their unit of work, and their checks.

Every workload is a closed loop run by one caller in one process with
jobs=1. A unit is all the cells of one plan seed; units take plan seeds
base, base + 1, ... so the default base seed 1 reproduces the paper's
seeds 1..N. A cell is one (seed, load, scheme) sweep row, or one
certified LP bound in bound-perstate.

Each unit returns its cells as dicts keyed by column name. `check_unit`
compares them with the reference captured from the seed commit (when the
reference holds the seed) and with invariants that hold on any seed;
`check_sample` re-derives one unit's cells through the layers directly,
after the timed loop.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Callable

from cgrlab import contact_plan, experiments, lp_oracle, simulator
from cgrlab.contact_plan import StateGrid, TopologyConfig
from cgrlab.experiments import LpConfig, RoutingConfig, ScenarioConfig, TrafficConfig
from cgrlab.forwarding import Policy

REL_TOL = 1e-6
POLICIES = ("DELTIME", "HOPS")


def scenario(nodes: int, states: int, schemes: tuple[str, ...], *, injection: str = "burst",
             soft: bool = False) -> ScenarioConfig:
    """The congestion study's scenario at a given plan size.

    Nodes 1-5 send deadline-free packets and nodes 6-10 send packets with a
    20 s latency bound, all to the highest-numbered node; density 0.2,
    capacity 10 packets per contact per state, 10 s states, k=4 routes.
    """
    return ScenarioConfig(
        topology=TopologyConfig(nodes, 0.2, 10, StateGrid(states, 10.0), seed=0),
        traffic=TrafficConfig(
            destination=nodes,
            no_ttl_sources=(1, 2, 3, 4, 5),
            ttl_sources=(6, 7, 8, 9, 10),
            ttl_value=20.0,
            injection=injection,
        ),
        routing=RoutingConfig(k_routes=4),
        schemes=schemes,
        seeds=(1,),
        loads=(1, 2, 3, 4, 5),
        lp=LpConfig(weight_exponent=1.0, soft=soft),
    )


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def cell_key(cell: dict) -> tuple:
    return (int(cell["unit"]), int(cell["load"]), cell["scheme"])


def sweep_cells(result: experiments.SweepResult) -> list[dict]:
    """Sweep rows as dicts keyed by the raw.csv column names."""
    return list(csv.DictReader(io.StringIO(result.raw_csv())))


@dataclass(frozen=True)
class Unit:
    """One timed unit: its plan seed, the cell keys it must produce, its input."""

    seed: int
    keys: frozenset
    payload: object


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `prepare(wl, base_seed)` makes the inputs that exist before the timed
    loop and returns a function from plan seed to Unit; `run_unit` is the
    timed work on a unit's payload. With `load_per_unit`, a unit is one
    load of one plan, the loads taking turns along the plan seeds. With
    `plan_seed`, every unit sweeps that one plan and the unit seed picks
    the traffic sources instead.
    """

    name: str
    cfg: ScenarioConfig
    prepare: Callable[["Workload", int], Callable[[int], Unit]]
    run_unit: Callable[["Workload", object], list[dict]]
    check_unit: Callable[["Workload", list[dict], dict], set]
    check_sample: Callable[["Workload", Unit, list[dict]], set]
    load_per_unit: bool = False
    plan_seed: int | None = None
    table_digests: bool = False

    def expected_generated(self, load: int) -> float:
        sources = len(self.cfg.traffic.no_ttl_sources) + len(self.cfg.traffic.ttl_sources)
        injections = 1 if self.cfg.traffic.injection == "burst" else self.cfg.topology.grid.state_count
        return float(sources * injections * load)


# --- study and large-plan: whole sweeps through experiments.run_sweep ---------


def rotated_traffic(cfg: ScenarioConfig, seed: int) -> TrafficConfig:
    """The study's ten sources shifted by seed - 1 around the non-destination
    nodes: seed 1 keeps sources 1-5 without and 6-10 with a deadline."""
    traffic = cfg.traffic
    others = [n for n in range(1, cfg.topology.node_count + 1) if n != traffic.destination]
    count = len(traffic.no_ttl_sources) + len(traffic.ttl_sources)
    chosen = [others[(seed - 1 + i) % len(others)] for i in range(count)]
    split = len(traffic.no_ttl_sources)
    return replace(traffic, no_ttl_sources=tuple(chosen[:split]), ttl_sources=tuple(chosen[split:]))


def _prepare_sweep(wl: Workload, base_seed: int) -> Callable[[int], Unit]:
    def make(seed: int) -> Unit:
        if wl.plan_seed is None:
            cfg = replace(wl.cfg, seeds=(seed,))
        else:
            cfg = replace(wl.cfg, seeds=(wl.plan_seed,), traffic=rotated_traffic(wl.cfg, seed))
        keys = frozenset((seed, load, s) for load in cfg.loads for s in cfg.ordered_schemes())
        return Unit(seed, keys, (seed, cfg))

    return make


def _run_sweep_unit(wl: Workload, payload) -> list[dict]:
    seed, cfg = payload
    return [{"unit": str(seed), **cell} for cell in sweep_cells(experiments.run_sweep(cfg, jobs=1))]


def _check_sweep_unit(wl: Workload, cells: list[dict], reference: dict) -> set:
    """Failed cell keys: errors, reference mismatches and broken invariants.

    Policy cells must match the reference exactly on every reference
    column. LP cells must match on status and delivered amount; their hops,
    delay and energy may move between alternative optima.
    """
    failed = set()
    delivered = {}
    for cell in cells:
        key = cell_key(cell)
        seed, load, scheme = key
        ok = cell["status"] in ("ok", "infeasible")
        generated = float(cell["generated"])
        on_time = float(cell["delivered_on_time"])
        if cell["status"] == "ok":
            ok = ok and generated == wl.expected_generated(load) and 0 <= on_time <= generated + 1e-9
            delivered[key] = on_time
        ref = reference.get("cells", {}).get(key)
        if ref is not None:
            if scheme == "LP":
                ok = ok and cell["status"] == ref["status"]
                if ref["status"] == "ok":
                    ok = ok and close(on_time, float(ref["delivered_on_time"]))
            else:
                ok = ok and all(cell.get(col) == value for col, value in ref.items())
        if not ok:
            failed.add(key)
    # The flow bound is an upper bound on every policy's on-time delivery.
    for (seed, load, scheme), lp_amount in delivered.items():
        if scheme != "LP":
            continue
        for policy in POLICIES:
            got = delivered.get((seed, load, policy))
            if got is not None and lp_amount < got - REL_TOL * max(1.0, got):
                failed.add((seed, load, "LP"))
    return failed


def lp_delivered(commodities: list, solution: lp_oracle.LpSolution) -> float:
    """Amount delivered by an optimal LP: generated minus drop slack."""
    return sum(c.amount for c in commodities) - sum(solution.slacks.values())


def _conserved(result: simulator.SimResult, expected: float) -> bool:
    """Every generated packet ends in exactly one outcome."""
    return result.generated() == expected == sum(result.count(o) for o in simulator.OUTCOMES)


def _round_trips(plan: contact_plan.ContactPlan) -> bool:
    text = contact_plan.serialize_contact_plan(plan)
    return contact_plan.parse_contact_plan(text) == plan


def _check_study_sample(wl: Workload, unit: Unit, cells: list[dict]) -> set:
    """Re-derive one seed's top-load cells through the layers directly.

    Checks the plan round-trips through the text format, the hard LP
    certifies under the independent verifier and agrees with the sweep,
    and each policy's simulation conserves packets and agrees with the
    sweep.
    """
    (seed, cfg), load = unit.payload, max(wl.cfg.loads)
    by_key = {cell_key(c): c for c in cells}
    failed = set()
    plan, demands = experiments.build_scenario(cfg, cfg.seeds[0], load)
    if not _round_trips(plan):
        failed.update((seed, load, s) for s in wl.cfg.schemes)
    commodities = lp_oracle.demands_to_commodities(demands)
    problem = lp_oracle.build_lp(plan, commodities, soft=wl.cfg.lp.soft)
    solution = lp_oracle.solve_lp(problem)
    lp_cell = by_key[(seed, load, "LP")]
    if solution.status == "optimal":
        metrics = lp_oracle.lp_metrics(plan, commodities, solution)
        ok = (
            not lp_oracle.verify_solution(problem, solution)
            and lp_cell["status"] == "ok"
            and close(float(lp_cell["delivery_ratio"]), metrics.delivery_ratio)
        )
    else:
        ok = lp_cell["status"] == "infeasible"
    if not ok:
        failed.add((seed, load, "LP"))
    for policy in POLICIES:
        result = simulator.run_simulation(plan, demands, Policy[policy], wl.cfg.routing.k_routes)
        metrics = simulator.compute_metrics(result, demands)
        cell = by_key[(seed, load, policy)]
        ok = (
            _conserved(result, wl.expected_generated(load))
            and float(cell["delivered_on_time"]) == result.count("delivered_on_time")
            and close(float(cell["delivery_ratio"]), metrics.delivery_ratio)
        )
        if not ok:
            failed.add((seed, load, policy))
    return failed


def _check_large_sample(wl: Workload, unit: Unit, cells: list[dict]) -> set:
    """Round-trip the plan, and bound each policy with the soft LP.

    At the lowest and highest load the soft LP must certify and deliver at
    least what each policy delivered on time. Re-simulating would rebuild
    every route table, so conservation on this plan is checked in the
    traced run, where every simulation's outcomes are counted.
    """
    seed, cfg = unit.payload
    by_key = {cell_key(c): c for c in cells}
    failed = set()
    plan, _ = experiments.build_scenario(cfg, cfg.seeds[0], 0)
    if not _round_trips(plan):
        failed.update(by_key)
    for load in (min(cfg.loads), max(cfg.loads)):
        _, demands = experiments.build_scenario(cfg, cfg.seeds[0], load)
        commodities = lp_oracle.demands_to_commodities(demands)
        problem = lp_oracle.build_lp(plan, commodities, soft=True)
        solution = lp_oracle.solve_lp(problem)
        if solution.status != "optimal" or lp_oracle.verify_solution(problem, solution):
            failed.update((seed, load, p) for p in POLICIES)
            continue
        lp_oracle.lp_metrics(plan, commodities, solution)
        bound = lp_delivered(commodities, solution)
        for policy in POLICIES:
            got = float(by_key[(seed, load, policy)]["delivered_on_time"])
            if bound < got - REL_TOL * max(1.0, got):
                failed.add((seed, load, policy))
    return failed


# --- bound-perstate: the `cgrlab lp` path, once per cell ----------------------


POOL = 128


def _prepare_bound(wl: Workload, base_seed: int) -> Callable[[int], Unit]:
    """Serialize a pool of plans and the demand lists before the timed loop.

    Past the pool the loop reuses it from the start, so set-up time does
    not grow with how fast the loop runs.
    """
    loads = wl.cfg.loads
    demands = {load: experiments.build_scenario(wl.cfg, base_seed, load)[1] for load in loads}
    texts = [
        contact_plan.serialize_contact_plan(
            contact_plan.generate_random_topology(replace(wl.cfg.topology, seed=base_seed + i))
        )
        for i in range(POOL)
    ]

    def make(seed: int) -> Unit:
        i = seed - base_seed
        load = loads[i % len(loads)]
        return Unit(seed, frozenset({(seed, load, "LP")}), (seed, load, texts[i % POOL], demands[load]))

    return make


def bound_cell(plan_text: str, demands: list) -> dict:
    """One in-process `cgrlab lp --soft` call: parse, build, solve, verify, metrics."""
    plan = contact_plan.parse_contact_plan(plan_text)
    commodities = lp_oracle.demands_to_commodities(demands)
    problem = lp_oracle.build_lp(plan, commodities, soft=True)
    solution = lp_oracle.solve_lp(problem)
    if solution.status != "optimal":
        return {"status": solution.status, "violations": 0}
    violations = lp_oracle.verify_solution(problem, solution)
    lp_oracle.lp_metrics(plan, commodities, solution)
    return {
        "status": "ok",
        "violations": len(violations),
        "objective": repr(solution.objective),
        "delivered": repr(lp_delivered(commodities, solution)),
    }


def _run_bound_unit(wl: Workload, payload) -> list[dict]:
    seed, load, text, demands = payload
    cell = {"unit": str(seed), "seed": str(seed), "load": str(load), "scheme": "LP"}
    return [{**cell, **bound_cell(text, demands)}]


def _check_bound_unit(wl: Workload, cells: list[dict], reference: dict) -> set:
    """Every soft LP must be optimal, certified, and match the reference objective."""
    failed = set()
    for cell in cells:
        key = cell_key(cell)
        ok = cell["status"] == "ok" and cell["violations"] == 0
        if ok:
            delivered = float(cell["delivered"])
            ok = -1e-9 <= delivered <= wl.expected_generated(key[1]) * (1 + REL_TOL)
        ref = reference.get("cells", {}).get(key)
        if ok and ref is not None:
            ok = close(float(cell["objective"]), float(ref["objective"])) and close(
                float(cell["delivered"]), float(ref["delivered"])
            )
        if not ok:
            failed.add(key)
    return failed


def _check_bound_sample(wl: Workload, unit: Unit, cells: list[dict]) -> set:
    """Cross-check one cell against the other paths.

    The generator must reproduce the serialized plan; each policy must
    conserve packets and deliver no more than the soft LP bound; and the
    sweep's LP cell on the same inputs must agree with the `lp` path.
    """
    seed, load, text, demands = unit.payload
    key = (seed, load, "LP")
    cfg = replace(wl.cfg, seeds=(seed,), loads=(load,))
    plan = experiments.build_scenario(cfg, seed, load)[0]
    if contact_plan.serialize_contact_plan(plan) != text or not _round_trips(plan):
        return {key}
    bound = float({cell_key(c): c for c in cells}[key]["delivered"])
    for policy in POLICIES:
        result = simulator.run_simulation(plan, demands, Policy[policy], cfg.routing.k_routes)
        simulator.compute_metrics(result, demands)
        on_time = result.count("delivered_on_time")
        if not _conserved(result, wl.expected_generated(load)) or bound < on_time - REL_TOL * on_time:
            return {key}
    sweep_lp = next(c for c in sweep_cells(experiments.run_sweep(cfg, jobs=1)) if c["scheme"] == "LP")
    if not close(float(sweep_lp["delivered_on_time"]), bound):
        return {key}
    return set()


WORKLOADS = {
    "study": Workload(
        name="study",
        cfg=scenario(11, 10, ("DELTIME", "HOPS", "LP")),
        prepare=_prepare_sweep,
        run_unit=_run_sweep_unit,
        check_unit=_check_sweep_unit,
        check_sample=_check_study_sample,
    ),
    "large-plan": Workload(
        name="large-plan",
        cfg=scenario(30, 30, ("DELTIME", "HOPS")),
        prepare=_prepare_sweep,
        run_unit=_run_sweep_unit,
        check_unit=_check_sweep_unit,
        check_sample=_check_large_sample,
        plan_seed=1,
        table_digests=True,
    ),
    "bound-perstate": Workload(
        name="bound-perstate",
        cfg=scenario(11, 10, ("DELTIME", "HOPS", "LP"), injection="per-state", soft=True),
        prepare=_prepare_bound,
        run_unit=_run_bound_unit,
        check_unit=_check_bound_unit,
        check_sample=_check_bound_sample,
        load_per_unit=True,
    ),
}
