"""Independent reference implementations used to check the library code.

`enumerate_routes` is a brute-force route enumeration. It deliberately
re-derives the scheduling rule from scratch on raw timestamps (no
state-index helpers shared with the implementation): a contact can carry
traffic available at time t in the first whole state of its window
starting at or after t, and the traffic arrives when that state ends.
Routes may not revisit a node.

`solve_full_lp` writes the flow bound's full model out row by row as
plain dicts, with no per-commodity windows: a flow variable for every arc
and commodity (bar the structural no-early-send and dest-no-reemit rules)
and a buffer variable for every timestamp.

`dense_simulation` is the simulator's state loop before it visited only
queued contacts and moved cohorts: every state is stepped, every packet is
decided and sent on its own (with `reference_forward_or_drop`), every
node's queues are scanned for returns, and every contact active in a
state is visited in plan order. Its on-time test is the grid rule the
simulator applies: delivered in a state at or before the deadline's
`floor_boundary_index`. `reference_metrics` derives the headline metrics
from its per-packet records as `compute_metrics` once did.

`reference_forward_or_drop` is forwarding as it was written before it
became one ordered scan on integer states: keep every usable route in
table order, testing expiration, departure and delivery as times in
seconds read off the table's grid, pick the policy's minimum among them
on those times, then book it atomically.

`route_attributes` schedules a given contact-id chain greedily from
scratch, as the library's search once did per candidate.

`scalar_windows` works out each contact's window and whole-window volume
from `Contact` objects, one `StateGrid.floor_boundary_index` call per
time, and the references above read windows and volumes from it alone:
none of them reads the plan's window columns or its contact index, so a
wrong window there shows as a difference from them.

`reference_verify_solution` is the LP verifier as it was written before it
checked arrays: one pass over the flows in dictionary order, then every row
of the full model one (class, timestamp, node) at a time, reading missing
variables as zero.

`reference_lp_metrics` is `lp_metrics` as it was written before it read
the flow key arrays: per class, per contact into its destination in plan
order, per state that contact covers up to the deadline, one dictionary
lookup each, a missing flow read as zero.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from cgrlab.contact_graph import Route, RouteTable, build_route_tables
from cgrlab.contact_plan import Contact, ContactPlan, StateGrid
from cgrlab.forwarding import CapacityLedger, Policy
from cgrlab.lp_oracle import Commodity, LpProblem, LpSolution, Violation
from cgrlab.simulator import Demand, Metrics, PacketRecord

RouteKey = tuple[float, int, tuple[int, ...]]


class ScalarWindow(NamedTuple):
    """A contact with the states it covers, first..last (empty when
    last < first), and the packets it can carry over them."""

    contact: Contact
    first: int
    last: int
    volume: int

    @property
    def states(self) -> range:
        return range(self.first, self.last + 1)


def scalar_windows(plan: ContactPlan) -> dict[int, ScalarWindow]:
    """Each contact's window and volume by contact id, in plan order,
    worked out contact by contact: with b(t) the grid's
    `floor_boundary_index`, a contact covers states b(start) + 1 through
    b(end), and its volume is its capacity times their number."""
    grid = plan.grid
    out = {}
    for c in plan.contacts:
        first, last = grid.floor_boundary_index(c.start) + 1, grid.floor_boundary_index(c.end)
        out[c.contact_id] = ScalarWindow(c, first, last, c.capacity * max(0, last - first + 1))
    return out


def _arrival_after(contact: Contact, available: float, duration: float) -> float | None:
    earliest = max(available, contact.start)
    slot_start = math.ceil(earliest / duration - 1e-9) * duration
    if slot_start + duration > contact.end + 1e-9:
        return None
    return slot_start + duration


def enumerate_routes(
    plan: ContactPlan,
    source: int,
    dest: int,
    t_now: float = 0.0,
    suppressed_contacts: frozenset[int] | set[int] = frozenset(),
    suppressed_nodes: frozenset[int] | set[int] = frozenset(),
) -> list[RouteKey]:
    """Every loop-free route as (delivery_time, hops, contact ids), sorted."""
    duration = plan.grid.state_duration
    found: list[RouteKey] = []
    if source in suppressed_nodes:
        return []

    def walk(node: int, available: float, visited: set[int], seq: tuple[int, ...]) -> None:
        for c in plan.contacts:
            if c.from_node != node or c.contact_id in suppressed_contacts:
                continue
            if c.to_node in suppressed_nodes or c.to_node in visited:
                continue
            arrival = _arrival_after(c, available, duration)
            if arrival is None:
                continue
            ids = seq + (c.contact_id,)
            if c.to_node == dest:
                found.append((arrival, len(ids), ids))
            else:
                walk(c.to_node, arrival, visited | {c.to_node}, ids)

    walk(source, t_now, {source}, ())
    return sorted(found)


def solve_full_lp(plan: ContactPlan, commodities: list[Commodity], soft: bool) -> LpSolution:
    """Solve the unwindowed flow model with linear state weights."""
    grid = plan.grid
    f = grid.state_count
    nodes = sorted(plan.node_ids)
    arcs = [(w.contact, q) for w in scalar_windows(plan).values() for q in w.states]
    big_m = grid.horizon * max(1, len(arcs))
    cost: dict[tuple, float] = {}
    eq: list[tuple[dict[tuple, float], float]] = []
    ub: list[tuple[dict[tuple, float], float]] = []

    for k, com in enumerate(commodities):
        gen = grid.boundary_index(com.t_gen)
        supply = dict(com.supply)
        flows = {}
        for c, q in arcs:
            if q > gen and c.from_node != com.dst:
                flows[(c, q)] = ("X", c.contact_id, q, k)
                cost[("X", c.contact_id, q, k)] = float(q)
        for t in range(f + 1):
            for v in nodes:
                row = {("B", t, v, k): 1.0}
                if t > 0:
                    row[("B", t - 1, v, k)] = -1.0
                for (c, q), var in flows.items():
                    if q == t and c.to_node == v:
                        row[var] = row.get(var, 0.0) - 1.0
                    if q == t and c.from_node == v:
                        row[var] = row.get(var, 0.0) + 1.0
                eq.append((row, supply.get(v, 0.0) if t == gen else 0.0))
        slack = {("S", k): 1.0} if soft else {}
        if soft:
            cost[("S", k)] = big_m
        if not math.isinf(com.ttl):
            for t in range(grid.floor_boundary_index(com.deadline), f + 1):
                ub.append(({("B", t, com.dst, k): -1.0, **{s: -1.0 for s in slack}}, -com.amount))
        if soft:
            eq.append(({("B", f, com.dst, k): 1.0, **slack}, com.amount))
        else:
            for v in nodes:
                eq.append(({("B", f, v, k): 1.0}, com.amount if v == com.dst else 0.0))

    for c, q in arcs:
        row = {var: 1.0 for var in cost if var[:3] == ("X", c.contact_id, q)}
        if row:
            ub.append((row, float(c.capacity)))
    for spec in plan.nodes:
        if not math.isinf(spec.buffer_capacity):
            for t in range(f + 1):
                row = {("B", t, spec.node_id, k): 1.0 for k in range(len(commodities))}
                ub.append((row, spec.buffer_capacity))

    variables = sorted({var for row, _ in eq + ub for var in row} | set(cost))
    if not variables:
        return LpSolution(status="optimal", objective=0.0)
    col = {var: i for i, var in enumerate(variables)}

    def matrix(rows):
        if not rows:
            return None, None
        data, ri, ci = [], [], []
        for i, (row, _) in enumerate(rows):
            for var, coef in row.items():
                data.append(coef)
                ri.append(i)
                ci.append(col[var])
        return csr_matrix((data, (ri, ci)), shape=(len(rows), len(variables))), np.array(
            [rhs for _, rhs in rows]
        )

    a_eq, b_eq = matrix(eq)
    a_ub, b_ub = matrix(ub)
    res = linprog(
        [cost.get(var, 0.0) for var in variables],
        A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
    )
    if res.status == 2:
        return LpSolution(status="infeasible", objective=None)
    assert res.status == 0, res.message
    values = dict(zip(variables, res.x.tolist()))
    return LpSolution(
        status="optimal",
        objective=float(res.fun),
        x_flows={var[1:]: x for var, x in values.items() if var[0] == "X"},
        buffers={var[1:]: x for var, x in values.items() if var[0] == "B"},
        slacks={var[1]: x for var, x in values.items() if var[0] == "S"},
    )


def reference_verify_solution(
    problem: LpProblem, solution: LpSolution, tol: float = 1e-6
) -> list[Violation]:
    """`verify_solution` written loop by loop: the same violations, in the
    same order and with the same amounts. A NaN or infinite value is a
    "finite" violation, and a solution holding one is checked no
    further."""
    if solution.status != "optimal":
        raise ValueError("only optimal solutions can be verified")
    unknown_x = sum(key not in problem.x_index for key in solution.x_flows)
    unknown_b = sum(key not in problem.b_index for key in solution.buffers)
    unknown_s = sum(k not in problem.slack_index for k in solution.slacks)
    if unknown_x or unknown_b or unknown_s:
        raise ValueError(
            f"solution shape mismatch: {unknown_x} flow, {unknown_b} buffer, "
            f"{unknown_s} slack keys not in the problem"
        )

    plan = problem.plan
    grid = plan.grid
    f = grid.state_count
    coms = problem.commodities
    node_ids = sorted(plan.node_ids)
    # Each contact in each state it covers, in (state, contact id) order.
    arc_at = {
        (c.contact_id, q): c
        for c, q in sorted(
            ((w.contact, q) for w in scalar_windows(plan).values() for q in w.states),
            key=lambda cq: (cq[1], cq[0].contact_id),
        )
    }
    gens = [grid.boundary_index(com.t_gen) for com in coms]

    X = solution.x_flows
    B = solution.buffers
    for cid, q, _ in X:
        if (cid, q) not in arc_at:
            raise ValueError(f"solution shape mismatch: contact {cid} has no arc in state {q}")

    out: list[Violation] = []
    for values, where in ((X, str), (B, str), (solution.slacks, "slack k{}".format)):
        for key, val in values.items():
            if not math.isfinite(val):
                out.append(Violation("finite", where(key), math.inf))
    if out:
        return out

    net: dict[tuple[int, int, int], float] = {}
    load: dict[tuple[int, int], float] = {}
    for key, val in X.items():
        cid, q, k = key
        a = arc_at[(cid, q)]
        if val < -tol:
            out.append(Violation("nonnegative", str(key), -val))
        if abs(val) > tol:
            if q <= gens[k]:
                out.append(Violation("no-early-send", f"contact {cid} state {q} k{k}", abs(val)))
            if a.from_node == coms[k].dst:
                out.append(Violation("dest-no-reemit", f"contact {cid} state {q} k{k}", abs(val)))
        net[(q, a.to_node, k)] = net.get((q, a.to_node, k), 0.0) + val
        net[(q, a.from_node, k)] = net.get((q, a.from_node, k), 0.0) - val
        load[(cid, q)] = load.get((cid, q), 0.0) + val
    for key, val in B.items():
        if val < -tol:
            out.append(Violation("nonnegative", str(key), -val))
    for k, val in solution.slacks.items():
        if val < -tol:
            out.append(Violation("nonnegative", f"slack k{k}", -val))

    for k, com in enumerate(coms):
        gen = gens[k]
        slack = solution.slacks.get(k, 0.0)
        supply = dict(com.supply)

        for v in node_ids:
            want = supply.get(v, 0.0) if gen == 0 else 0.0
            have = B.get((0, v, k), 0.0)
            if abs(have - want) > tol:
                out.append(Violation("init", f"node {v} k{k}", abs(have - want)))

        for t in range(1, f + 1):
            for v in node_ids:
                injected = supply.get(v, 0.0) if t == gen else 0.0
                residual = (
                    B.get((t, v, k), 0.0)
                    - B.get((t - 1, v, k), 0.0)
                    - net.get((t, v, k), 0.0)
                    - injected
                )
                if abs(residual) > tol:
                    out.append(Violation("bal", f"t{t} node {v} k{k}", abs(residual)))

        if not math.isinf(com.ttl):
            for t in range(grid.floor_boundary_index(com.deadline), f + 1):
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

    for (cid, q), a in arc_at.items():
        total = load.get((cid, q), 0.0)
        if total > a.capacity + tol:
            out.append(Violation("arccap", f"contact {cid} state {q}", total - a.capacity))

    for spec in plan.nodes:
        if math.isinf(spec.buffer_capacity):
            continue
        for t in range(f + 1):
            total = sum(B.get((t, spec.node_id, k), 0.0) for k in range(len(coms)))
            if total > spec.buffer_capacity + tol:
                out.append(
                    Violation("bufcap", f"t{t} node {spec.node_id}", total - spec.buffer_capacity)
                )

    return out


def reference_lp_metrics(
    plan: ContactPlan, commodities: list[Commodity], solution: LpSolution
) -> Metrics:
    """`lp_metrics` written as one loop of dictionary lookups."""
    if solution.status != "optimal":
        raise ValueError("lp_metrics requires an optimal solution")
    total_amount = sum(c.amount for c in commodities)
    if total_amount == 0:
        return Metrics(None, None, None, None)

    grid = plan.grid
    windows = scalar_windows(plan)
    delivered = sum(
        com.amount - solution.slacks.get(k, 0.0) for k, com in enumerate(commodities)
    )
    total_tx = solution.total_flow()

    # The contacts into each class's destination, in plan order.
    into: dict[int, list[Contact]] = {com.dst: [] for com in commodities}
    for c in plan.contacts:
        if c.to_node in into:
            into[c.to_node].append(c)

    delay_sum = 0.0
    delay_weight = 0.0
    for k, com in enumerate(commodities):
        dl = None if math.isinf(com.ttl) else grid.floor_boundary_index(com.deadline)
        for c in into[com.dst]:
            for q in windows[c.contact_id].states:
                if dl is None or q <= dl:
                    flow = solution.x_flows.get((c.contact_id, q, k), 0.0)
                    delay_sum += (grid.state_end(q) - com.t_gen) * flow
                    delay_weight += flow

    eps = 1e-9
    return Metrics(
        delivery_ratio=delivered / total_amount,
        mean_hops=total_tx / delivered if delivered > eps else None,
        mean_delay=delay_sum / delay_weight if delay_weight > eps else None,
        energy_efficiency=delivered / total_tx if total_tx > eps else None,
    )


@dataclass
class Packet:
    """One unit of traffic; ttl may be math.inf for no deadline."""

    packet_id: int
    src: int
    dst: int
    t_gen: float
    ttl: float = math.inf

    @property
    def deadline(self) -> float:
        return self.t_gen + self.ttl


def route_attributes(plan: ContactPlan, contacts: list[int], t_now: float = 0.0) -> Route:
    """Schedule a contact-id chain greedily from t_now.

    Raises ValueError if the ids are unknown, the chain is not
    node-connected, or some contact has no usable state at or after the
    traffic's arrival (including a first contact already ended at t_now).
    """
    ids = tuple(contacts)
    if not ids:
        raise ValueError("route must contain at least one contact")
    try:
        chain = [plan.contact(cid) for cid in ids]
    except KeyError as e:
        raise ValueError(str(e)) from None
    for prev, nxt in zip(chain, chain[1:]):
        if prev.to_node != nxt.from_node:
            raise ValueError(
                f"broken chain: contact {prev.contact_id} ends at node {prev.to_node} "
                f"but contact {nxt.contact_id} starts at node {nxt.from_node}"
            )
    windows = scalar_windows(plan)
    avail = plan.grid.first_state_starting_at_or_after(t_now) - 1
    states = []
    for i, cid in enumerate(ids):
        first, last = windows[cid].first, windows[cid].last
        avail = max(avail + 1, first)
        if avail > last:
            raise ValueError(
                f"contact {cid} has no transmission state at or after "
                f"{'t_now' if i == 0 else f'contact {ids[i - 1]}'}"
            )
        states.append(avail)
    return Route(ids, tuple(states))


def filter_routes(
    table: RouteTable, pkt: Packet, t_now: float, ledger: CapacityLedger
) -> list[Route]:
    """Keep the routes still usable for this packet at t_now, in table order.

    A route survives when it has not expired (no contact of it has ended
    by t_now), its scheduled first-hop departure has not already passed,
    every contact still has bookable volume, and it delivers within the
    packet's deadline, read on the table's grid: by the end of the last
    state that ends at or before the deadline
    (`StateGrid.floor_boundary_index`), the rule the simulator and the LP
    bound apply too.
    """
    grid = table.plan.grid
    windows = scalar_windows(table.plan)
    cutoff = grid.state_end(grid.floor_boundary_index(pkt.deadline))
    out = []
    for r in table.routes_for(pkt.dst):
        if min(windows[cid].contact.end for cid in r.contacts) <= t_now:
            continue
        if grid.state_start(r.states[0]) < t_now:
            continue
        if any(ledger.residual(cid) < 1 for cid in r.contacts):
            continue
        if grid.state_end(r.states[-1]) > cutoff:
            continue
        out.append(r)
    return out


def select_route(feasible: list[Route], policy: Policy, grid: StateGrid) -> Route | None:
    """Pick the best feasible route under the policy, or None if empty:
    DELTIME on (delivery time, hops, ids), HOPS on (hops, delivery time,
    ids), with delivery times in seconds read off the grid."""
    if not feasible:
        return None
    if policy is Policy.DELTIME:
        return min(feasible,
                   key=lambda r: (grid.state_end(r.states[-1]), len(r.contacts), r.contacts))
    return min(feasible, key=lambda r: (len(r.contacts), grid.state_end(r.states[-1]), r.contacts))


def book_capacity(ledger: CapacityLedger, route: Route, n: int) -> CapacityLedger:
    """Reserve n packets of volume on every contact of the route.

    Atomic: raises ValueError (without mutating) when n is negative or
    any contact's residual is insufficient. Returns the ledger for
    chaining.
    """
    if n < 0:
        raise ValueError(f"cannot book a negative volume ({n})")
    for cid in route.contacts:
        if ledger.residual(cid) < n:
            raise ValueError(f"contact {cid} has residual {ledger.residual(cid)}, need {n}")
    if n:
        ledger.book_up_to(route.contacts, n)
    return ledger


def reference_forward_or_drop(
    pkt: Packet,
    table: RouteTable,
    t_now: float,
    ledger: CapacityLedger,
    policy: Policy,
) -> Route | None:
    """Full forwarding decision for one packet: filter, select, book.

    Returns the booked route whose first contact the packet should be
    queued on, or None when the packet must be dropped.
    """
    route = select_route(filter_routes(table, pkt, t_now, ledger), policy, table.plan.grid)
    if route is None:
        return None
    book_capacity(ledger, route, 1)
    return route


class _Tracker:
    def __init__(self, packet: Packet):
        self.packet = packet
        self.transmissions = 0
        self.path: list[int] = []
        self.outcome: str | None = None
        self.delivery_time: float | None = None


class DenseResult(NamedTuple):
    records: list[PacketRecord]
    utilization: dict[tuple[int, int], int]


def dense_simulation(
    plan: ContactPlan,
    demands: list[Demand],
    policy: Policy,
    k_routes: int = 4,
    tables: dict[int, RouteTable] | None = None,
) -> DenseResult:
    """`run_simulation` stepped densely, packet by packet, for demands the
    plan accepts."""
    grid = plan.grid
    gen_index = [grid.boundary_index(d.t_gen) for d in demands]
    if tables is None:
        tables = build_route_tables(plan, k_routes, {d.dst for d in demands})

    node_ids = sorted(plan.node_ids)
    windows = scalar_windows(plan)
    volumes = {cid: w.volume for cid, w in windows.items()}
    ledgers = {nid: CapacityLedger(volumes) for nid in node_ids}
    inbox: dict[int, deque[Packet]] = {nid: deque() for nid in node_ids}
    # Each node's queues in contact-id order, the order they return packets in.
    queues: dict[int, dict[int, deque[Packet]]] = {nid: {} for nid in node_ids}
    for c in sorted(plan.contacts, key=lambda contact: contact.contact_id):
        queues[c.from_node][c.contact_id] = deque()

    state_contacts = [
        [c for c in plan.contacts if q in windows[c.contact_id].states]
        for q in range(grid.state_count + 1)
    ]
    trackers: dict[int, _Tracker] = {}
    utilization: dict[tuple[int, int], int] = {}
    next_id = 1

    for q in range(1, grid.state_count + 1):
        t_start = grid.state_start(q)
        t_end = grid.state_end(q)

        # Packets left on a contact with no state left go back to the store.
        for nid in node_ids:
            for cid, queue in queues[nid].items():
                if queue and windows[cid].last < q:
                    inbox[nid].extend(queue)
                    queue.clear()

        for d, idx in zip(demands, gen_index):
            if idx != q - 1:
                continue
            for _ in range(d.count):
                pkt = Packet(next_id, d.src, d.dst, d.t_gen, d.ttl)
                tracker = _Tracker(pkt)
                trackers[next_id] = tracker
                next_id += 1
                if d.src == d.dst:
                    tracker.outcome = "delivered_on_time"
                    tracker.delivery_time = d.t_gen
                else:
                    inbox[d.src].append(pkt)

        for nid in node_ids:
            box = inbox[nid]
            while box:
                pkt = box.popleft()
                route = reference_forward_or_drop(pkt, tables[nid], t_start, ledgers[nid], policy)
                if route is None:
                    trackers[pkt.packet_id].outcome = "dropped"
                else:
                    queues[nid][route.contacts[0]].append(pkt)

        for c in state_contacts[q]:
            queue = queues[c.from_node][c.contact_id]
            for _ in range(min(c.capacity, len(queue))):
                pkt = queue.popleft()
                tracker = trackers[pkt.packet_id]
                tracker.transmissions += 1
                tracker.path.append(c.contact_id)
                utilization[(c.contact_id, q)] = utilization.get((c.contact_id, q), 0) + 1
                if c.to_node == pkt.dst:
                    on_time = q <= grid.floor_boundary_index(pkt.deadline)
                    tracker.outcome = "delivered_on_time" if on_time else "delivered_late"
                    tracker.delivery_time = t_end
                else:
                    inbox[c.to_node].append(pkt)

    for tracker in trackers.values():
        if tracker.outcome is None:
            tracker.outcome = "stranded"

    records = [
        PacketRecord(
            packet_id=pid,
            src=t.packet.src,
            dst=t.packet.dst,
            t_gen=t.packet.t_gen,
            ttl=t.packet.ttl,
            outcome=t.outcome,
            delivery_time=t.delivery_time,
            transmissions=t.transmissions,
            path=tuple(t.path),
        )
        for pid, t in sorted(trackers.items())
    ]
    return DenseResult(records, utilization)


def reference_metrics(records: list[PacketRecord]) -> Metrics:
    """The headline metrics from per-packet records."""
    generated = len(records)
    on_time = sum(1 for r in records if r.outcome == "delivered_on_time")
    transmissions = sum(r.transmissions for r in records)
    delays = [r.delay for r in records if r.outcome == "delivered_on_time"]
    return Metrics(
        delivery_ratio=on_time / generated if generated else None,
        mean_hops=transmissions / on_time if on_time else None,
        mean_delay=sum(delays) / on_time if on_time else None,
        energy_efficiency=on_time / transmissions if transmissions else None,
    )
