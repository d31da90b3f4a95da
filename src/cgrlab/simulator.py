"""Deterministic state-stepped store-carry-and-forward engine over cohorts.

A cohort is a run of packets with consecutive ids from one demand that
share a path so far: one forwarding decision and one queue entry stand
for all of them. Each demand is injected as one cohort; decisions split
cohorts by route, and contacts send a prefix of their head cohort. FIFO
only ever splits off a prefix, so each packet meets the fate it would
meet if stepped alone.

The run advances one state at a time. Within a state, in this order:

1. cohorts still queued on contacts whose last covered state has passed
   are returned to their node's store for a fresh decision;
2. demands generated at the state start are injected;
3. each node, in ascending node id, decides every stored cohort in FIFO
   arrival order (`forwarding.book_cohort`), queueing the packets booked
   on each route on its first contact and dropping the rest;
4. each contact active in the state transmits up to its per-state
   capacity in FIFO order, contacts in plan order; transmitted packets
   arrive at the receiving node when the state ends and are processed in
   the next state. A packet delivered in state q is on time when q is at
   or before its deadline's grid boundary (`StateGrid.floor_boundary_index`,
   worked out once per demand), the rule forwarding and the LP bound
   apply too.

Only contacts with queued packets are visited, and a state with nothing
queued, stored or injected is skipped, so a run's cost grows with its
cohorts and the contacts they use, not with the plan or the packet count.
Route tables are computed once per node at simulation start (t = 0) and
reused for the whole run; intermediate nodes re-decide with their own
table on every arrival, each (node, destination) list sorted once a run.
The whole run is single-threaded and a pure function of its inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from typing import NamedTuple

from .contact_graph import RouteTable, build_route_tables, contact_index
from .contact_plan import ContactPlan
from .forwarding import CapacityLedger, Policy, book_cohort

__all__ = [
    "Demand",
    "Cohort",
    "PacketRecord",
    "SimResult",
    "Metrics",
    "run_simulation",
    "compute_metrics",
    "demands_from_json",
    "demands_to_json",
]

OUTCOMES = ("delivered_on_time", "delivered_late", "dropped", "stranded")


@dataclass(frozen=True)
class Demand:
    """A burst of identical packets: count packets from src to dst at t_gen."""

    src: int
    dst: int
    t_gen: float
    ttl: float = math.inf
    count: int = 1


@dataclass
class PacketRecord:
    """Final per-packet accounting entry."""

    packet_id: int
    src: int
    dst: int
    t_gen: float
    ttl: float
    outcome: str
    delivery_time: float | None
    transmissions: int
    path: tuple[int, ...]

    @property
    def delay(self) -> float | None:
        return None if self.delivery_time is None else self.delivery_time - self.t_gen


class Cohort(NamedTuple):
    """count packets of one demand, with ids first .. first + count - 1,
    that share a path so far and, once finished, an outcome and delivery
    time. deadline is the last state in which a delivery is on time."""

    first: int
    count: int
    demand: Demand
    deadline: int
    path: tuple[int, ...] = ()
    outcome: str | None = None
    delivery_time: float | None = None


@dataclass
class SimResult:
    """The finished cohorts in packet-id order, plus per-(contact, state)
    transmission counts."""

    cohorts: list[Cohort]
    utilization: dict[tuple[int, int], int] = field(default_factory=dict)

    def count(self, outcome: str) -> int:
        return sum(c.count for c in self.cohorts if c.outcome == outcome)

    def generated(self) -> int:
        return sum(c.count for c in self.cohorts)

    def total_transmissions(self) -> int:
        return sum(c.count * len(c.path) for c in self.cohorts)

    @cached_property
    def records(self) -> list[PacketRecord]:
        """One record per packet, in packet-id order. Per packet by design,
        as `cgrlab sim --packets-csv` prints it, so unlike the run and
        `compute_metrics` it grows with the packet count."""
        return [
            PacketRecord(pid, d.src, d.dst, d.t_gen, d.ttl, c.outcome, c.delivery_time,
                         len(c.path), c.path)
            for c in self.cohorts for d in (c.demand,) for pid in range(c.first, c.first + c.count)
        ]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(f.name for f in fields(PacketRecord))
        for r in self.records:
            w.writerow([
                r.packet_id, r.src, r.dst, r.t_gen, "inf" if math.isinf(r.ttl) else r.ttl,
                r.outcome, "" if r.delivery_time is None else r.delivery_time,
                r.transmissions, "|".join(map(str, r.path)),
            ])
        return buf.getvalue()


@dataclass(frozen=True)
class Metrics:
    """The four headline metrics; None marks an undefined (0/0) value."""

    delivery_ratio: float | None
    mean_hops: float | None
    mean_delay: float | None
    energy_efficiency: float | None

    def as_dict(self) -> dict[str, float | None]:
        return {
            "delivery_ratio": self.delivery_ratio,
            "mean_hops": self.mean_hops,
            "mean_delay": self.mean_delay,
            "energy_efficiency": self.energy_efficiency,
        }


def _check_demands(plan: ContactPlan, demands: list[Demand]) -> list[int]:
    """Validate demands against the plan; returns each demand's boundary index."""
    known = plan.node_ids
    indices = []
    for d in demands:
        if d.src not in known or d.dst not in known:
            raise ValueError(f"demand references unknown node: {d}")
        if d.count < 0:
            raise ValueError(f"demand count must be >= 0: {d}")
        if not d.ttl >= 0:
            raise ValueError(f"demand ttl must be >= 0: {d}")
        idx = plan.grid.boundary_index(d.t_gen)
        if idx is None or idx >= plan.grid.state_count:
            raise ValueError(f"demand t_gen {d.t_gen} is not a state start within the horizon")
        indices.append(idx)
    return indices


def run_simulation(
    plan: ContactPlan,
    demands: list[Demand],
    policy: Policy,
    k_routes: int = 4,
    tables: dict[int, RouteTable] | None = None,
) -> SimResult:
    """Execute the full pipeline over the plan for the given traffic.

    `tables` may carry precomputed route tables (as built at t = 0 for the
    demand destinations) to avoid recomputation across runs on the same
    plan; by default they are built here. Each contact's window, endpoints,
    capacity, plan position and volume are read from the plan's contact
    index (`contact_graph.contact_index`), which route search builds.
    """
    grid = plan.grid
    gen_index = _check_demands(plan, demands)
    destinations = {d.dst for d in demands}
    if tables is None:
        tables = build_route_tables(plan, k_routes, destinations)

    injections: dict[int, list[Demand]] = {}
    for d, idx in zip(demands, gen_index):
        injections.setdefault(idx + 1, []).append(d)

    index = contact_index(plan)
    contacts = index.contacts
    ledgers = {v.node_id: CapacityLedger(index.volumes) for v in plan.nodes}
    # Each node's routes to each destination, in the policy's order.
    orders = {(v, dst): policy.order(table.routes_for(dst))
              for v, table in tables.items() for dst in destinations}
    # Cohorts each node will decide on in the next step 3, by node.
    inbox: dict[int, list[Cohort]] = {}
    # The contacts holding queued cohorts, by contact id; never empty.
    queues: dict[int, deque[Cohort]] = {}
    # The packets in each of those queues.
    queued: dict[int, int] = {}
    finished: list[Cohort] = []
    utilization: dict[tuple[int, int], int] = {}
    next_id = 1

    for q in range(1, grid.state_count + 1):
        injected = injections.get(q)
        if not (queues or inbox or injected):
            continue
        t_end = grid.state_end(q)

        # Cohorts left on a contact with no state left go back to the store,
        # each node's in contact-id order.
        for cid in sorted(cid for cid in queues if contacts[cid].last < q):
            del queued[cid]
            inbox.setdefault(contacts[cid].from_node, []).extend(queues.pop(cid))

        for d in injected or ():
            if not d.count:
                continue
            deadline = grid.floor_boundary_index(d.t_gen + d.ttl)
            if d.src == d.dst:
                finished.append(
                    Cohort(next_id, d.count, d, deadline, (), "delivered_on_time", d.t_gen)
                )
            else:
                inbox.setdefault(d.src, []).append(Cohort(next_id, d.count, d, deadline))
            next_id += d.count

        for nid in sorted(inbox):
            ledger = ledgers[nid]
            for cohort in inbox[nid]:
                first, count, demand, deadline, path = cohort[:5]
                routes = orders[nid, demand.dst]
                for route, n in book_cohort(routes, count, q, deadline, ledger):
                    cid = route.contacts[0]
                    piece = cohort if n == count else Cohort(first, n, demand, deadline, path)
                    queues.setdefault(cid, deque()).append(piece)
                    queued[cid] = queued.get(cid, 0) + n
                    first += n
                left = cohort.first + count - first
                if left:
                    finished.append(Cohort(first, left, demand, deadline, path, "dropped"))
        inbox.clear()

        active = [cid for cid in queues if contacts[cid].first <= q <= contacts[cid].last]
        for cid in sorted(active, key=lambda cid: contacts[cid].position):
            _, to_node, capacity = contacts[cid][:3]
            sent = min(capacity, queued[cid])
            if not sent:
                continue
            utilization[(cid, q)] = sent
            queue = queues[cid]
            left = sent
            while left:
                first, count, demand, deadline, path = queue[0][:5]
                if count > left:
                    queue[0] = Cohort(first + left, count - left, demand, deadline, path)
                    count = left
                else:
                    queue.popleft()
                left -= count
                path += (cid,)
                if to_node == demand.dst:
                    outcome = "delivered_on_time" if q <= deadline else "delivered_late"
                    finished.append(Cohort(first, count, demand, deadline, path, outcome, t_end))
                else:
                    inbox.setdefault(to_node, []).append(
                        Cohort(first, count, demand, deadline, path)
                    )
            queued[cid] -= sent
            if not queued[cid]:
                del queues[cid], queued[cid]

    for cohorts in (*queues.values(), *inbox.values()):
        finished += (cohort._replace(outcome="stranded") for cohort in cohorts)
    finished.sort(key=attrgetter("first"))
    return SimResult(finished, utilization)


def compute_metrics(result: SimResult, demands: list[Demand]) -> Metrics:
    """Derive the four headline metrics from a run.

    delivery_ratio counts only on-time deliveries; mean_hops and
    energy_efficiency charge the transmissions of every packet, including
    ones that were later dropped; mean_delay averages over on-time
    deliveries. Any 0/0 case yields None rather than a silent zero.

    Memory is constant in the packet count: the delays are summed one
    packet at a time, in id order, without being stored.
    """
    generated = result.generated()
    expected = sum(d.count for d in demands)
    if generated != expected:
        raise ValueError(f"result has {generated} packets but demands describe {expected}")
    on_time = result.count("delivered_on_time")
    transmissions = result.total_transmissions()
    # One delay per packet in id order, so the sum is the per-packet sum.
    delays = chain.from_iterable(
        repeat(c.delivery_time - c.demand.t_gen, c.count)
        for c in result.cohorts if c.outcome == "delivered_on_time"
    )
    return Metrics(
        delivery_ratio=on_time / generated if generated else None,
        mean_hops=transmissions / on_time if on_time else None,
        mean_delay=sum(delays) / on_time if on_time else None,
        energy_efficiency=on_time / transmissions if transmissions else None,
    )


def _json_integer(entry: dict, name: str, default: int | None = None) -> int:
    """entry[name] as a JSON integer: booleans, fractions, strings and
    numbers beyond 2**53 (where JSON readers lose integers) are refused."""
    value = entry[name] if default is None else entry.get(name, default)
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    if abs(value) > 2**53:
        raise ValueError(f"{name} must be at most 2**53 in magnitude, got {value}")
    return value


def _json_number(value, name: str) -> float:
    """value as a finite JSON number: booleans, strings and numbers that
    are not finite or overflow a float (`1e400`, `NaN`) are refused."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {json.dumps(value)}")
    return float(value)


def demands_from_json(text: str) -> list[Demand]:
    """Load demands from a JSON array of objects.

    Each object carries src, dst, t_gen, count, and ttl; a null or missing
    ttl means no deadline. src, dst and count must be JSON integers, t_gen
    and ttl finite JSON numbers.
    """
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("demands document must be a JSON array")
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"demand {i} must be a JSON object")
        try:
            src, dst = _json_integer(entry, "src"), _json_integer(entry, "dst")
            t_gen, ttl = _json_number(entry.get("t_gen", 0.0), "t_gen"), entry.get("ttl")
            ttl = math.inf if ttl is None else _json_number(ttl, "ttl")
            out.append(Demand(src, dst, t_gen, ttl, _json_integer(entry, "count", 1)))
        except (KeyError, ValueError) as e:
            raise ValueError(f"demand {i} is malformed: {e}") from None
    return out


def demands_to_json(demands: list[Demand]) -> str:
    entries = [{**asdict(d), "ttl": None if math.isinf(d.ttl) else d.ttl} for d in demands]
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"
