"""Optimal multi-commodity flow over the state-expanded contact plan.

This is the global-knowledge upper bound the distributed forwarding
policies are compared against. Traffic is aggregated into commodities
keyed by (source, destination, generation time, ttl); for each state the
plan's contacts become capacitated arcs, and the model chooses fractional
per-arc flows X and per-timestamp buffer occupancies B that minimize a
weighted transmission cost, with the weight strictly increasing in the
state index so that later transmissions cost more.

Constraint families (names used in row tags and verifier reports):

* init     -- buffers at the first timestamp hold exactly the traffic
              generated there, all other buffers start empty;
* bal      -- buffer recursion: occupancy at a timestamp equals the
              previous occupancy plus inflow minus outflow during the
              state, plus traffic generated at that timestamp;
* bufcap   -- total occupancy at a node never exceeds its storage;
* arccap   -- total flow on an arc never exceeds the contact's per-state
              capacity;
* no-early-send (structural) -- a commodity has no flow variables on arcs
              in states that end at or before its generation time, nor on
              arcs leaving its own destination;
* ddl      -- for deadline traffic, the destination buffer holds the full
              amount at every timestamp from the deadline onward;
* fin      -- at the horizon all traffic resides at its destination.

Solving is delegated to scipy's HiGHS backend behind `solve_lp`;
`verify_solution` independently re-derives every constraint from the raw
plan and commodity data, so a certified solution never depends on the
solver being right.

The optional soft mode adds one nonnegative drop slack per commodity with
a large penalty (horizon times arc count), turning infeasible instances
into "deliver as much as possible" instances. It is an extension beyond
the hard model and is off by default.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from .contact_plan import ContactPlan
from .simulator import Demand, Metrics

__all__ = [
    "Commodity",
    "LpProblem",
    "LpSolution",
    "Violation",
    "LpSolverError",
    "power_weights",
    "linear_weights",
    "demands_to_commodities",
    "build_lp",
    "solve_lp",
    "verify_solution",
    "lp_metrics",
    "problem_to_lp_text",
    "solution_flows_csv",
    "solution_to_json",
    "solution_from_json",
]

WeightFn = Callable[[int], float]

_EPS = 1e-9


class LpSolverError(RuntimeError):
    """The backend failed numerically; surfaced instead of a wrong answer."""


@dataclass(frozen=True)
class Commodity:
    """Aggregated traffic: amount packets from src to dst, generated at
    t_gen, to be delivered within ttl seconds (math.inf = no deadline)."""

    src: int
    dst: int
    t_gen: float
    ttl: float
    amount: float

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError("commodity source and destination must differ")
        if self.amount < 0:
            raise ValueError(f"commodity amount must be >= 0, got {self.amount}")
        if self.ttl < 0:
            raise ValueError(f"commodity ttl must be >= 0, got {self.ttl}")

    @property
    def deadline(self) -> float:
        return self.t_gen + self.ttl


@dataclass(frozen=True)
class _Arc:
    """One contact in one covered state."""

    contact_id: int
    state: int
    from_node: int
    to_node: int
    capacity: int


@dataclass(eq=False)
class LpProblem:
    """Assembled model: variable index maps, sparse rows, and row tags.

    Variable layout: flows X keyed by (contact_id, state, commodity index),
    buffers B keyed by (timestamp index, node, commodity index), then one
    slack per commodity in soft mode.
    """

    plan: ContactPlan
    commodities: tuple[Commodity, ...]
    weights: tuple[float, ...]
    soft: bool
    big_m: float
    arcs: tuple[_Arc, ...]
    x_index: dict[tuple[int, int, int], int]
    b_index: dict[tuple[int, int, int], int]
    slack_index: dict[int, int]
    var_names: list[str]
    objective: np.ndarray
    a_eq: csr_matrix | None
    b_eq: np.ndarray
    eq_names: list[str]
    a_ub: csr_matrix | None
    b_ub: np.ndarray
    ub_names: list[str]

    @property
    def n_vars(self) -> int:
        return len(self.var_names)


@dataclass
class LpSolution:
    """Solver output: variable values keyed like the problem's index maps."""

    status: str  # "optimal" | "infeasible"
    objective: float | None
    x_flows: dict[tuple[int, int, int], float] = field(default_factory=dict)
    buffers: dict[tuple[int, int, int], float] = field(default_factory=dict)
    slacks: dict[int, float] = field(default_factory=dict)

    def total_flow(self) -> float:
        return sum(self.x_flows.values())


@dataclass(frozen=True)
class Violation:
    """One constraint violated beyond tolerance."""

    constraint: str
    location: str
    amount: float

    def __str__(self) -> str:
        return f"{self.constraint} at {self.location}: off by {self.amount:.3e}"


def linear_weights(q: int) -> float:
    """Default state weight: the 1-based state index itself."""
    return float(q)


def power_weights(exponent: float) -> WeightFn:
    """Weight family q**exponent; strictly increasing for exponent > 0."""
    if exponent <= 0:
        raise ValueError(f"weight exponent must be > 0, got {exponent}")

    def w(q: int) -> float:
        return float(q) ** exponent

    return w


def demands_to_commodities(demands: list[Demand]) -> list[Commodity]:
    """Merge demands sharing (src, dst, t_gen, ttl) into commodities,
    summing amounts; output is sorted by that key."""
    merged: dict[tuple[int, int, float, float], float] = {}
    for d in demands:
        key = (d.src, d.dst, d.t_gen, d.ttl)
        merged[key] = merged.get(key, 0.0) + d.count
    return [
        Commodity(src, dst, t_gen, ttl, amount)
        for (src, dst, t_gen, ttl), amount in sorted(merged.items())
    ]


def _plan_arcs(plan: ContactPlan) -> list[_Arc]:
    windows = plan.windows
    arcs = [
        _Arc(c.contact_id, q, c.from_node, c.to_node, c.capacity)
        for c in plan.contacts
        for q in windows[c.contact_id].states
    ]
    arcs.sort(key=lambda a: (a.state, a.contact_id))
    return arcs


def _generation_index(plan: ContactPlan, com: Commodity) -> int:
    idx = plan.grid.boundary_index(com.t_gen)
    if idx is None or idx >= plan.grid.state_count:
        raise ValueError(
            f"commodity t_gen {com.t_gen} is not a state start within the horizon"
        )
    return idx


def _deadline_index(plan: ContactPlan, com: Commodity) -> int | None:
    """Timestamp index of the last grid boundary at or before the deadline,
    or None when the commodity has no deadline."""
    if math.isinf(com.ttl):
        return None
    return plan.grid.floor_boundary_index(com.deadline)


def build_lp(
    plan: ContactPlan,
    commodities: list[Commodity],
    weight: WeightFn | None = None,
    soft: bool = False,
) -> LpProblem:
    """Assemble the flow model for a plan and commodity set.

    Flow variables are created only where a commodity may actually send:
    arcs in states ending after its generation time and not leaving its
    destination. Raises ValueError for unknown nodes, generation times off
    the grid or at/after the horizon, and non-increasing weights.

    Rows and columns come from integer arc x commodity arrays. Columns are
    numbered X (arc-major, then commodity), then B (timestamp, node,
    commodity), then one slack per commodity in soft mode. Equality rows
    run per commodity: init and bal share one row per (timestamp, node),
    then fin. Inequality rows are ddl per commodity, then arccap per arc
    with at least one flow variable, then bufcap per finite-buffer node
    and timestamp.
    """
    grid = plan.grid
    f = grid.state_count
    weight = weight or linear_weights
    ws = tuple(float(weight(q)) for q in range(1, f + 1))
    if any(w <= 0 for w in ws) or any(b <= a for a, b in zip(ws, ws[1:])):
        raise ValueError("state weights must be positive and strictly increasing")

    known = plan.node_ids
    coms = tuple(commodities)
    gen_idx = []
    for com in coms:
        if com.src not in known or com.dst not in known:
            raise ValueError(f"commodity references unknown node: {com}")
        gen_idx.append(_generation_index(plan, com))

    node_ids = sorted(known)
    n_nodes, n_coms = len(node_ids), len(coms)
    pos = {v: i for i, v in enumerate(node_ids)}
    arcs = _plan_arcs(plan)

    # Node positions are -1 for arc endpoints the plan does not declare:
    # such an arc has no balance row at that end.
    arc_state = np.array([a.state for a in arcs], dtype=np.int64)
    arc_from = np.array([pos.get(a.from_node, -1) for a in arcs], dtype=np.int64)
    arc_to = np.array([pos.get(a.to_node, -1) for a in arcs], dtype=np.int64)
    gen = np.array(gen_idx, dtype=np.int64)
    src = np.array([pos[com.src] for com in coms], dtype=np.int64)
    dst = np.array([pos[com.dst] for com in coms], dtype=np.int64)
    amount = np.array([com.amount for com in coms], dtype=np.float64)

    # A commodity sends on an arc in a state ending after its generation
    # time, unless the arc leaves its destination.
    sends = (arc_state[:, None] > gen[None, :]) & (arc_from[:, None] != dst[None, :])
    x_arc, x_com = np.nonzero(sends)
    x_state = arc_state[x_arc]
    n_x = len(x_arc)
    x_keys = list(
        zip([arcs[i].contact_id for i in x_arc.tolist()], x_state.tolist(), x_com.tolist())
    )

    def b_col(t, v, k):
        return n_x + (t * n_nodes + v) * n_coms + k

    b_keys = [(t, v, k) for t in range(f + 1) for v in node_ids for k in range(n_coms)]
    s_base = n_x + len(b_keys)
    x_index = dict(zip(x_keys, range(n_x)))
    b_index = dict(zip(b_keys, range(n_x, s_base)))
    slack_index = {k: s_base + k for k in range(n_coms)} if soft else {}
    var_names = [f"X_c{cid}_s{q}_k{k}" for cid, q, k in x_keys]
    var_names += [f"B_t{t}_n{v}_k{k}" for t, v, k in b_keys]
    var_names += [f"S_k{k}" for k in slack_index]

    big_m = grid.horizon * max(1, len(arcs))
    objective = np.zeros(len(var_names))
    objective[:n_x] = np.asarray(ws)[x_state - 1]
    objective[s_base:] = big_m

    # Equality rows: commodity k owns rows k * per_com onward, with the
    # init (t = 0) and bal (t >= 1) row of (t, node v) at t * n_nodes + v,
    # then its fin rows. bk, bt, bv list every (commodity, timestamp, node).
    n_fin = 1 if soft else n_nodes
    per_com = (f + 1) * n_nodes + n_fin
    ks = np.arange(n_coms)
    eq: list[tuple[np.ndarray, np.ndarray, float]] = []
    bk, bt, bv = (a.ravel() for a in np.indices((n_coms, f + 1, n_nodes)))
    bal_row = bk * per_com + bt * n_nodes + bv
    eq.append((bal_row, b_col(bt, bv, bk), 1.0))
    later = bt >= 1
    eq.append((bal_row[later], b_col(bt[later] - 1, bv[later], bk[later]), -1.0))
    x_row = x_com * per_com + x_state * n_nodes
    into, out_of = arc_to[x_arc], arc_from[x_arc]
    eq.append(((x_row + into)[into >= 0], np.flatnonzero(into >= 0), -1.0))
    eq.append(((x_row + out_of)[out_of >= 0], np.flatnonzero(out_of >= 0), 1.0))
    fin_row = ks * per_com + (f + 1) * n_nodes
    if soft:
        eq.append((fin_row, b_col(f, dst, ks), 1.0))
        eq.append((fin_row, s_base + ks, 1.0))
    else:
        fk, fv = (a.ravel() for a in np.indices((n_coms, n_nodes)))
        eq.append((fin_row[fk] + fv, b_col(f, fv, fk), 1.0))
    b_eq = np.zeros(n_coms * per_com)
    b_eq[ks * per_com + gen * n_nodes + src] = amount
    b_eq[fin_row + (0 if soft else dst)] = amount
    eq_names = []
    for k in range(n_coms):
        eq_names += [f"init_n{v}_k{k}" for v in node_ids]
        eq_names += [f"bal_t{t}_n{v}_k{k}" for t in range(1, f + 1) for v in node_ids]
        eq_names += [f"fin_k{k}"] if soft else [f"fin_n{v}_k{k}" for v in node_ids]

    # Inequality rows: for each commodity with a deadline, one ddl row per
    # timestamp from its deadline index to f (f + 1 stands in for "no
    # deadline", giving no rows); then arccap, then bufcap.
    ub: list[tuple[np.ndarray, np.ndarray, float]] = []
    deadlines = [_deadline_index(plan, com) for com in coms]
    dl = np.array([f + 1 if d is None else d for d in deadlines], dtype=np.int64)
    counts = f + 1 - dl
    ddl_com = np.repeat(ks, counts)
    ddl_row = np.arange(len(ddl_com))
    ddl_t = ddl_row + np.repeat(dl - (np.cumsum(counts) - counts), counts)
    ub.append((ddl_row, b_col(ddl_t, dst[ddl_com], ddl_com), -1.0))
    if soft:
        ub.append((ddl_row, s_base + ddl_com, -1.0))
    ub_rhs = [-amount[ddl_com]]
    ub_names = [f"ddl_t{t}_k{k}" for t, k in zip(ddl_t.tolist(), ddl_com.tolist())]

    capped = sends.any(axis=1)
    arccap_row = len(ub_names) + np.cumsum(capped) - 1
    ub.append((arccap_row[x_arc], np.arange(n_x), 1.0))
    ub_rhs.append(np.array([float(a.capacity) for a in arcs], dtype=np.float64)[capped])
    ub_names += [
        f"arccap_c{a.contact_id}_s{a.state}" for a, has in zip(arcs, capped.tolist()) if has
    ]

    if coms:
        ct, ck = (a.ravel() for a in np.indices((f + 1, n_coms)))
        for spec in plan.nodes:
            if math.isinf(spec.buffer_capacity):
                continue
            ub.append((len(ub_names) + ct, b_col(ct, pos[spec.node_id], ck), 1.0))
            ub_rhs.append(np.full(f + 1, spec.buffer_capacity))
            ub_names += [f"bufcap_t{t}_n{spec.node_id}" for t in range(f + 1)]

    n_vars = len(var_names)
    return LpProblem(
        plan=plan,
        commodities=coms,
        weights=ws,
        soft=soft,
        big_m=big_m,
        arcs=tuple(arcs),
        x_index=x_index,
        b_index=b_index,
        slack_index=slack_index,
        var_names=var_names,
        objective=objective,
        a_eq=_matrix(eq, len(eq_names), n_vars),
        b_eq=b_eq,
        eq_names=eq_names,
        a_ub=_matrix(ub, len(ub_names), n_vars),
        b_ub=np.concatenate(ub_rhs),
        ub_names=ub_names,
    )


def _matrix(
    blocks: list[tuple[np.ndarray, np.ndarray, float]], n_rows: int, n_vars: int
) -> csr_matrix | None:
    """Sparse rows from (row indices, column indices, coefficient) blocks."""
    if n_rows == 0:
        return None
    rows, cols, coefs = zip(*blocks)
    data = np.concatenate([np.full(len(r), coef) for r, coef in zip(rows, coefs)])
    return csr_matrix((data, (np.concatenate(rows), np.concatenate(cols))), shape=(n_rows, n_vars))


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the assembled model with the HiGHS backend.

    Returns an optimal solution or an explicit infeasible status; any
    other backend outcome raises LpSolverError.
    """
    if problem.n_vars == 0:
        return LpSolution(status="optimal", objective=0.0)
    res = linprog(
        problem.objective,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub if problem.a_ub is not None else None,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq if problem.a_eq is not None else None,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        return LpSolution(status="infeasible", objective=None)
    if res.status != 0:
        raise LpSolverError(f"solver failure (status {res.status}): {res.message}")
    x = res.x
    return LpSolution(
        status="optimal",
        objective=float(res.fun),
        x_flows={key: float(x[col]) for key, col in problem.x_index.items()},
        buffers={key: float(x[col]) for key, col in problem.b_index.items()},
        slacks={k: float(x[col]) for k, col in problem.slack_index.items()},
    )


def verify_solution(
    problem: LpProblem, solution: LpSolution, tol: float = 1e-6
) -> list[Violation]:
    """Re-check every model constraint directly from the plan and
    commodities, independently of the assembled rows.

    Returns one Violation per constraint off by more than tol; an empty
    list certifies the solution. Raises ValueError on status or shape
    mismatches (unknown variable keys).
    """
    if solution.status != "optimal":
        raise ValueError("only optimal solutions can be verified")
    unknown_x = set(solution.x_flows) - set(problem.x_index)
    unknown_b = set(solution.buffers) - set(problem.b_index)
    unknown_s = set(solution.slacks) - set(problem.slack_index)
    if unknown_x or unknown_b or unknown_s:
        raise ValueError(
            f"solution shape mismatch: {len(unknown_x)} flow, {len(unknown_b)} buffer, "
            f"{len(unknown_s)} slack keys not in the problem"
        )

    plan = problem.plan
    grid = plan.grid
    f = grid.state_count
    coms = problem.commodities
    node_ids = sorted(plan.node_ids)
    arcs = _plan_arcs(plan)
    arcs_into: dict[tuple[int, int], list[_Arc]] = {}
    arcs_from: dict[tuple[int, int], list[_Arc]] = {}
    for a in arcs:
        arcs_into.setdefault((a.to_node, a.state), []).append(a)
        arcs_from.setdefault((a.from_node, a.state), []).append(a)

    X = solution.x_flows
    B = solution.buffers
    out: list[Violation] = []

    for key, val in list(X.items()) + list(B.items()):
        if val < -tol:
            out.append(Violation("nonnegative", str(key), -val))
    for k, val in solution.slacks.items():
        if val < -tol:
            out.append(Violation("nonnegative", f"slack k{k}", -val))

    for k, com in enumerate(coms):
        gen = _generation_index(plan, com)
        slack = solution.slacks.get(k, 0.0)

        for a in arcs:
            flow = X.get((a.contact_id, a.state, k), 0.0)
            if a.state <= gen and abs(flow) > tol:
                out.append(
                    Violation(
                        "no-early-send",
                        f"contact {a.contact_id} state {a.state} k{k}",
                        abs(flow),
                    )
                )
            if a.from_node == com.dst and abs(flow) > tol:
                out.append(
                    Violation(
                        "dest-no-reemit",
                        f"contact {a.contact_id} state {a.state} k{k}",
                        abs(flow),
                    )
                )

        for v in node_ids:
            want = com.amount if (v == com.src and gen == 0) else 0.0
            have = B.get((0, v, k), 0.0)
            if abs(have - want) > tol:
                out.append(Violation("init", f"node {v} k{k}", abs(have - want)))

        for t in range(1, f + 1):
            for v in node_ids:
                inflow = sum(
                    X.get((a.contact_id, t, k), 0.0) for a in arcs_into.get((v, t), [])
                )
                outflow = sum(
                    X.get((a.contact_id, t, k), 0.0) for a in arcs_from.get((v, t), [])
                )
                injected = com.amount if (v == com.src and t == gen) else 0.0
                residual = (
                    B.get((t, v, k), 0.0)
                    - B.get((t - 1, v, k), 0.0)
                    - inflow
                    + outflow
                    - injected
                )
                if abs(residual) > tol:
                    out.append(Violation("bal", f"t{t} node {v} k{k}", abs(residual)))

        dl = _deadline_index(plan, com)
        if dl is not None:
            for t in range(dl, f + 1):
                short = (com.amount - slack) - B.get((t, com.dst, k), 0.0)
                if short > tol:
                    out.append(Violation("ddl", f"t{t} k{k}", short))

        if problem.soft:
            residual = B.get((f, com.dst, k), 0.0) + slack - com.amount
            if abs(residual) > tol:
                out.append(Violation("fin", f"node {com.dst} k{k}", abs(residual)))
        else:
            for v in node_ids:
                want = com.amount if v == com.dst else 0.0
                have = B.get((f, v, k), 0.0)
                if abs(have - want) > tol:
                    out.append(Violation("fin", f"node {v} k{k}", abs(have - want)))

    for a in arcs:
        total = sum(X.get((a.contact_id, a.state, k), 0.0) for k in range(len(coms)))
        if total > a.capacity + tol:
            out.append(
                Violation(
                    "arccap",
                    f"contact {a.contact_id} state {a.state}",
                    total - a.capacity,
                )
            )

    for spec in plan.nodes:
        if math.isinf(spec.buffer_capacity):
            continue
        for t in range(f + 1):
            total = sum(B.get((t, spec.node_id, k), 0.0) for k in range(len(coms)))
            if total > spec.buffer_capacity + tol:
                out.append(
                    Violation(
                        "bufcap",
                        f"t{t} node {spec.node_id}",
                        total - spec.buffer_capacity,
                    )
                )

    return out


def lp_metrics(
    plan: ContactPlan, commodities: list[Commodity], solution: LpSolution
) -> Metrics:
    """Metrics comparable to the simulator's, computed on fractional flows.

    Delivered amounts come from the final destination buffers (amount minus
    drop slack); transmissions are the total flow; delay weights each
    on-time arrival state's destination inflow by its lateness.
    """
    if solution.status != "optimal":
        raise ValueError("lp_metrics requires an optimal solution")
    total_amount = sum(c.amount for c in commodities)
    if total_amount == 0:
        return Metrics(None, None, None, None)

    grid = plan.grid
    windows = plan.windows
    delivered = sum(
        com.amount - solution.slacks.get(k, 0.0) for k, com in enumerate(commodities)
    )
    total_tx = solution.total_flow()

    delay_sum = 0.0
    delay_weight = 0.0
    for k, com in enumerate(commodities):
        for c in plan.contacts:
            if c.to_node != com.dst:
                continue
            for q in windows[c.contact_id].states:
                t_q = grid.state_end(q)
                if math.isinf(com.ttl):
                    on_time = True
                else:
                    on_time = t_q <= com.deadline + _EPS * max(1.0, abs(com.deadline))
                if on_time:
                    flow = solution.x_flows.get((c.contact_id, q, k), 0.0)
                    delay_sum += (t_q - com.t_gen) * flow
                    delay_weight += flow

    return Metrics(
        delivery_ratio=delivered / total_amount,
        mean_hops=total_tx / delivered if delivered > _EPS else None,
        mean_delay=delay_sum / delay_weight if delay_weight > _EPS else None,
        energy_efficiency=delivered / total_tx if total_tx > _EPS else None,
    )


def _fmt_coef(coef: float) -> str:
    return f"{coef:.12g}"


def problem_to_lp_text(problem: LpProblem) -> str:
    """Render the model in CPLEX LP text format for external cross-checks."""
    lines = ["Minimize"]
    terms = []
    for col, coef in enumerate(problem.objective):
        if coef != 0.0:
            terms.append((col, float(coef)))
    if not terms and problem.n_vars:
        terms = [(0, 0.0)]
    lines.append(" obj: " + _lp_expr(terms, problem.var_names))
    lines.append("Subject To")
    for matrix, rhs, names, sense in (
        (problem.a_eq, problem.b_eq, problem.eq_names, "="),
        (problem.a_ub, problem.b_ub, problem.ub_names, "<="),
    ):
        if matrix is None:
            continue
        for i, name in enumerate(names):
            row = matrix.getrow(i)
            coefs = list(zip(row.indices.tolist(), row.data.tolist()))
            lines.append(f" {name}: " + _lp_expr(coefs, problem.var_names) + f" {sense} {_fmt_coef(rhs[i])}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _lp_expr(coefs: list[tuple[int, float]], names: list[str]) -> str:
    if not coefs:
        return "0"
    parts = []
    for i, (col, coef) in enumerate(sorted(coefs)):
        mag = _fmt_coef(abs(coef))
        if i == 0:
            sign = "-" if coef < 0 else ""
            parts.append(f"{sign}{mag} {names[col]}")
        else:
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {mag} {names[col]}")
    return " ".join(parts)


def solution_flows_csv(problem: LpProblem, solution: LpSolution) -> str:
    """Nonzero flows as CSV: one row per (state, contact, commodity)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["state", "contact", "from", "to", "commodity", "src", "dst", "t_gen", "ttl", "value"])
    rows = []
    for (cid, q, k), value in solution.x_flows.items():
        if abs(value) <= _EPS:
            continue
        com = problem.commodities[k]
        contact = problem.plan.contact(cid)
        rows.append(
            (
                q,
                cid,
                contact.from_node,
                contact.to_node,
                k,
                com.src,
                com.dst,
                com.t_gen,
                "inf" if math.isinf(com.ttl) else com.ttl,
                value,
            )
        )
    for row in sorted(rows, key=lambda r: (r[0], r[1], r[4])):
        w.writerow(row)
    return buf.getvalue()


def solution_to_json(solution: LpSolution) -> str:
    doc = {
        "status": solution.status,
        "objective": solution.objective,
        "x": [[cid, q, k, v] for (cid, q, k), v in sorted(solution.x_flows.items())],
        "b": [[t, node, k, v] for (t, node, k), v in sorted(solution.buffers.items())],
        "slack": [[k, v] for k, v in sorted(solution.slacks.items())],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def solution_from_json(text: str) -> LpSolution:
    doc = json.loads(text)
    try:
        return LpSolution(
            status=str(doc["status"]),
            objective=None if doc["objective"] is None else float(doc["objective"]),
            x_flows={(int(c), int(q), int(k)): float(v) for c, q, k, v in doc.get("x", [])},
            buffers={(int(t), int(n), int(k)): float(v) for t, n, k, v in doc.get("b", [])},
            slacks={int(k): float(v) for k, v in doc.get("slack", [])},
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed solution document: {e}") from None
