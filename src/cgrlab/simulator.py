"""Deterministic state-stepped store-carry-and-forward engine.

The run advances one state at a time. Within a state, in this order:

1. packets still queued on contacts whose last covered state has passed
   are returned to their node's store for a fresh decision;
2. demands generated at the state start are injected;
3. each node, in ascending node id, makes a forwarding decision for every
   stored packet in FIFO arrival order (enqueue on the chosen route's
   first contact, or drop);
4. each contact active in the state transmits up to its per-state
   capacity in FIFO order, contacts in plan order; transmitted packets
   arrive at the receiving node when the state ends and are processed in
   the next state. A packet delivered in state q is on time when q is at
   or before its deadline's grid boundary (`StateGrid.floor_boundary_index`),
   the rule forwarding and the LP bound apply too.

Only contacts with queued packets are visited: the run keeps a queue per
contact that holds packets, made when the first one is queued and dropped
when it empties, and a state with nothing queued, stored or injected is
skipped. So a run's cost grows with its packets and the contacts they
use, not with the plan's size.

Route tables are computed once per node at simulation start (t = 0) and
reused for the whole run; intermediate nodes re-decide with their own
table on every arrival. The whole run is single-threaded and a pure
function of its inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import deque
from dataclasses import dataclass, field

from .contact_graph import RouteTable, build_route_tables
from .contact_plan import ContactPlan
from .forwarding import CapacityLedger, Packet, Policy, forward_or_drop

__all__ = [
    "Demand",
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
        if self.delivery_time is None:
            return None
        return self.delivery_time - self.t_gen


@dataclass
class SimResult:
    """Per-packet records plus per-(contact, state) transmission counts."""

    records: list[PacketRecord]
    utilization: dict[tuple[int, int], int] = field(default_factory=dict)

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.records if r.outcome == outcome)

    def generated(self) -> int:
        return len(self.records)

    def total_transmissions(self) -> int:
        return sum(r.transmissions for r in self.records)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            [
                "packet_id",
                "src",
                "dst",
                "t_gen",
                "ttl",
                "outcome",
                "delivery_time",
                "transmissions",
                "path",
            ]
        )
        for r in self.records:
            w.writerow(
                [
                    r.packet_id,
                    r.src,
                    r.dst,
                    r.t_gen,
                    "inf" if math.isinf(r.ttl) else r.ttl,
                    r.outcome,
                    "" if r.delivery_time is None else r.delivery_time,
                    r.transmissions,
                    "|".join(str(c) for c in r.path),
                ]
            )
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


class _Tracker:
    """Mutable in-flight state for one packet."""

    __slots__ = ("packet", "transmissions", "path", "outcome", "delivery_time")

    def __init__(self, packet: Packet):
        self.packet = packet
        self.transmissions = 0
        self.path: list[int] = []
        self.outcome: str | None = None
        self.delivery_time: float | None = None


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
            raise ValueError(
                f"demand t_gen {d.t_gen} is not a state start within the horizon"
            )
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
    plan; by default they are built here.
    """
    grid = plan.grid
    gen_index = _check_demands(plan, demands)
    destinations = {d.dst for d in demands}

    if tables is None:
        tables = build_route_tables(plan, k_routes, destinations)

    injections: dict[int, list[Demand]] = {}
    for d, idx in zip(demands, gen_index):
        injections.setdefault(idx + 1, []).append(d)

    windows = plan.windows
    ranks = plan.ranks
    contact = plan.contact
    # Ledgers are made when a node first decides; each starts full.
    ledgers: dict[int, CapacityLedger] = {}
    # Packets each node will decide on in the next step 3, by node.
    inbox: dict[int, list[Packet]] = {}
    # The contacts holding queued packets, by contact id; never empty.
    queues: dict[int, deque[Packet]] = {}
    trackers: dict[int, _Tracker] = {}
    utilization: dict[tuple[int, int], int] = {}
    next_id = 1

    for q in range(1, grid.state_count + 1):
        injected = injections.get(q)
        if not (queues or inbox or injected):
            continue
        t_start = grid.state_start(q)
        t_end = grid.state_end(q)

        # Packets left on a contact with no state left go back to the store,
        # each node's in contact-id order.
        for cid in sorted(cid for cid in queues if windows[cid].last < q):
            inbox.setdefault(contact(cid).from_node, []).extend(queues.pop(cid))

        for d in injected or ():
            for _ in range(d.count):
                pkt = Packet(next_id, d.src, d.dst, d.t_gen, d.ttl)
                tracker = _Tracker(pkt)
                trackers[next_id] = tracker
                next_id += 1
                if d.src == d.dst:
                    tracker.outcome = "delivered_on_time"
                    tracker.delivery_time = d.t_gen
                else:
                    inbox.setdefault(d.src, []).append(pkt)

        for nid in sorted(inbox):
            table = tables[nid]
            ledger = ledgers.get(nid)
            if ledger is None:
                ledger = ledgers[nid] = CapacityLedger.for_plan(plan)
            for pkt in inbox[nid]:
                route = forward_or_drop(pkt, table, t_start, ledger, policy)
                if route is None:
                    trackers[pkt.packet_id].outcome = "dropped"
                else:
                    queues.setdefault(route.contacts[0], deque()).append(pkt)
        inbox.clear()

        active = [cid for cid in queues if windows[cid].first <= q <= windows[cid].last]
        for cid in sorted(active, key=ranks.__getitem__):
            c = contact(cid)
            queue = queues[cid]
            sent = min(c.capacity, len(queue))
            if not sent:
                continue
            utilization[(cid, q)] = sent
            for _ in range(sent):
                pkt = queue.popleft()
                tracker = trackers[pkt.packet_id]
                tracker.transmissions += 1
                tracker.path.append(cid)
                if c.to_node == pkt.dst:
                    on_time = q <= grid.floor_boundary_index(pkt.deadline)
                    tracker.outcome = "delivered_on_time" if on_time else "delivered_late"
                    tracker.delivery_time = t_end
                else:
                    inbox.setdefault(c.to_node, []).append(pkt)
            if not queue:
                del queues[cid]

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
    return SimResult(records=records, utilization=utilization)


def compute_metrics(result: SimResult, demands: list[Demand]) -> Metrics:
    """Derive the four headline metrics from a run.

    delivery_ratio counts only on-time deliveries; mean_hops and
    energy_efficiency charge the transmissions of every packet, including
    ones that were later dropped; mean_delay averages over on-time
    deliveries. Any 0/0 case yields None rather than a silent zero.
    """
    generated = result.generated()
    expected = sum(d.count for d in demands)
    if generated != expected:
        raise ValueError(
            f"result has {generated} packets but demands describe {expected}"
        )
    on_time = result.count("delivered_on_time")
    transmissions = result.total_transmissions()
    delays = [r.delay for r in result.records if r.outcome == "delivered_on_time"]
    return Metrics(
        delivery_ratio=on_time / generated if generated else None,
        mean_hops=transmissions / on_time if on_time else None,
        mean_delay=sum(delays) / on_time if on_time else None,
        energy_efficiency=on_time / transmissions if transmissions else None,
    )


def demands_from_json(text: str) -> list[Demand]:
    """Load demands from a JSON array of objects.

    Each object carries src, dst, t_gen, count, and ttl; a null or missing
    ttl means no deadline.
    """
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("demands document must be a JSON array")
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"demand {i} must be a JSON object")
        try:
            ttl = entry.get("ttl")
            out.append(
                Demand(
                    src=int(entry["src"]),
                    dst=int(entry["dst"]),
                    t_gen=float(entry.get("t_gen", 0.0)),
                    ttl=math.inf if ttl is None else float(ttl),
                    count=int(entry.get("count", 1)),
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"demand {i} is malformed: {e}") from None
    return out


def demands_to_json(demands: list[Demand]) -> str:
    entries = [
        {
            "src": d.src,
            "dst": d.dst,
            "t_gen": d.t_gen,
            "ttl": None if math.isinf(d.ttl) else d.ttl,
            "count": d.count,
        }
        for d in demands
    ]
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"
