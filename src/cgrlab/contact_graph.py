"""Route computation over a contact plan.

A route is an ordered chain of contacts leading from a source node to a
destination node. Transmission over a contact occupies one whole state,
and the traffic becomes available at the receiving node when that state
ends, so a route's schedule is a strictly increasing sequence of states.
Scheduling is greedy: each contact transmits in its first covered state
starting at or after the traffic's availability time.

Every function here orders routes by the total key

    (delivery_time, hops, contact-id sequence)

so results are deterministic. `earliest_delivery_route` is a label-setting
search over contacts; `k_best_routes` layers the spur-node scheme (with
the restriction that spurs start at or after the parent's own deviation
point) on top of it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .contact_plan import ContactPlan

__all__ = [
    "Route",
    "RouteTable",
    "RouteError",
    "earliest_delivery_route",
    "k_best_routes",
    "build_route_table",
    "build_route_tables",
    "route_attributes",
    "route_table_csv",
]


class RouteError(ValueError):
    """A contact-id chain that cannot form a schedulable route."""


@dataclass(frozen=True)
class Route:
    """A contact chain with its derived attributes, as scheduled from the
    query time.

    departure_time is the start of the first contact's scheduled
    transmission state; expiration is the earliest contact end (the route
    dies when any of its contacts ends); max_volume is the smallest
    whole-window volume along the chain.
    """

    contacts: tuple[int, ...]
    source: int
    destination: int
    departure_time: float
    delivery_time: float
    hops: int
    expiration: float
    max_volume: int

    def sort_key(self) -> tuple[float, int, tuple[int, ...]]:
        return (self.delivery_time, self.hops, self.contacts)

    def hops_key(self) -> tuple[int, float, tuple[int, ...]]:
        return (self.hops, self.delivery_time, self.contacts)


@dataclass
class RouteTable:
    """Per-destination route lists computed by one node from the shared plan."""

    owner: int
    k_routes: int
    routes: dict[int, list[Route]] = field(default_factory=dict)

    def routes_for(self, destination: int) -> list[Route]:
        return self.routes[destination]

    def destinations(self) -> list[int]:
        return sorted(self.routes)


def route_attributes(plan: ContactPlan, contacts: list[int], t_now: float = 0.0) -> Route:
    """Schedule a contact-id chain greedily from t_now and derive its
    attributes.

    Raises RouteError if the ids are unknown, the chain is not
    node-connected, or some contact has no usable state at or after the
    traffic's arrival (including a first contact already ended at t_now).
    """
    ids = list(contacts)
    if not ids:
        raise RouteError("route must contain at least one contact")
    try:
        chain = [plan.contact(cid) for cid in ids]
    except KeyError as e:
        raise RouteError(str(e)) from None
    for prev, nxt in zip(chain, chain[1:]):
        if prev.to_node != nxt.from_node:
            raise RouteError(
                f"broken chain: contact {prev.contact_id} ends at node {prev.to_node} "
                f"but contact {nxt.contact_id} starts at node {nxt.from_node}"
            )

    grid = plan.grid
    windows = plan.windows
    avail = grid.first_state_starting_at_or_after(t_now) - 1
    departure_time = 0.0
    for i, c in enumerate(chain):
        first, last = windows[c.contact_id]
        if last <= avail:
            raise RouteError(
                f"contact {c.contact_id} has no transmission state at or after "
                f"{'t_now' if i == 0 else f'contact {chain[i - 1].contact_id}'}"
            )
        q = max(avail + 1, first)
        if i == 0:
            departure_time = grid.state_start(q)
        avail = q

    volumes = plan.volumes
    return Route(
        contacts=tuple(ids),
        source=chain[0].from_node,
        destination=chain[-1].to_node,
        departure_time=departure_time,
        delivery_time=grid.state_end(avail),
        hops=len(chain),
        expiration=min(c.end for c in chain),
        max_volume=min(volumes[cid] for cid in ids),
    )


def _require_nodes(plan: ContactPlan, *node_ids: int) -> None:
    known = plan.node_ids
    for nid in node_ids:
        if nid not in known:
            raise KeyError(f"unknown node {nid}")


def earliest_delivery_route(
    plan: ContactPlan,
    source: int,
    dest: int,
    t_now: float = 0.0,
    suppressed_contacts: frozenset[int] | set[int] = frozenset(),
    suppressed_nodes: frozenset[int] | set[int] = frozenset(),
) -> Route | None:
    """Best route from source to dest usable from t_now, or None.

    "Best" is the minimum of (delivery_time, hops, contact-id sequence).
    Suppressed contacts and nodes are excluded from the search, which is
    what the k-best layer needs to force deviations.

    The search labels contacts with (arrival_state, hops, id sequence,
    visited nodes) and settles them in key order. A label is discarded
    when an already settled label at the same contact arrives no later,
    uses no more hops, has a lexicographically no-larger id sequence, and
    visited a subset of its nodes: any continuation of the discarded label
    is then matched or beaten by the settled one. Plain single-label
    relaxation is not enough here because hops and id-sequence ties are
    part of the key.
    """
    _require_nodes(plan, source, dest)
    if source == dest:
        raise ValueError("source and destination must differ")
    sup_c = frozenset(suppressed_contacts)
    sup_n = frozenset(suppressed_nodes)
    if source in sup_n:
        return None

    windows = plan.windows
    start_avail = plan.grid.first_state_starting_at_or_after(t_now) - 1

    # Heap entries: (arrival_state, hops, id sequence, node, visited nodes).
    # Sequences are unique per entry, so comparisons never reach the set.
    heap: list[tuple[int, int, tuple[int, ...], int, frozenset[int]]] = [
        (start_avail, 0, (), source, frozenset((source,)))
    ]
    settled: dict[int, list[tuple[int, int, tuple[int, ...], frozenset[int]]]] = {}

    while heap:
        avail, hops, seq, node, visited = heapq.heappop(heap)
        if node == dest:
            return route_attributes(plan, list(seq), t_now)
        if seq:
            prior = settled.setdefault(seq[-1], [])
            if any(
                a <= avail and h <= hops and s <= seq and v <= visited
                for a, h, s, v in prior
            ):
                continue
            prior.append((avail, hops, seq, visited))
        for c in plan.contacts_from(node):
            if c.contact_id in sup_c or c.to_node in sup_n or c.to_node in visited:
                continue
            first, last = windows[c.contact_id]
            if last <= avail:
                continue
            q = max(avail + 1, first)
            heapq.heappush(
                heap,
                (q, hops + 1, seq + (c.contact_id,), c.to_node, visited | {c.to_node}),
            )
    return None


def k_best_routes(
    plan: ContactPlan,
    source: int,
    dest: int,
    t_now: float = 0.0,
    k_routes: int = 1,
) -> list[Route]:
    """The k_routes best distinct routes under (delivery_time, hops, ids).

    Spur-node enumeration: each accepted route is re-branched at every
    position from its own deviation point onward, with the shared prefix
    pinned, the prefix's next contacts suppressed, and the prefix's nodes
    (except the spur node itself) suppressed. Returns fewer routes when
    fewer exist.
    """
    if k_routes < 1:
        raise ValueError(f"k_routes must be >= 1, got {k_routes}")
    first = earliest_delivery_route(plan, source, dest, t_now)
    if first is None:
        return []

    accepted: list[Route] = [first]
    deviation: dict[tuple[int, ...], int] = {first.contacts: 0}
    candidates: list[tuple[tuple[float, int, tuple[int, ...]], int, Route]] = []
    seen: set[tuple[int, ...]] = {first.contacts}

    while len(accepted) < k_routes:
        parent = accepted[-1]
        parent_nodes = _node_chain(plan, parent)
        for j in range(deviation[parent.contacts], parent.hops):
            root = parent.contacts[:j]
            spur_node = parent_nodes[j]
            t_spur = t_now if j == 0 else _chain_arrival(plan, root, t_now)
            spur_suppressed = {
                r.contacts[j]
                for r in accepted
                if r.hops > j and r.contacts[:j] == root
            }
            node_suppressed = set(parent_nodes[:j])
            spur = earliest_delivery_route(
                plan, spur_node, dest, t_spur, spur_suppressed, node_suppressed
            )
            if spur is None:
                continue
            total = root + spur.contacts
            if total in seen:
                continue
            seen.add(total)
            route = route_attributes(plan, list(total), t_now)
            heapq.heappush(candidates, (route.sort_key(), j, route))
        if not candidates:
            break
        _, j, route = heapq.heappop(candidates)
        accepted.append(route)
        deviation[route.contacts] = j

    return sorted(accepted, key=Route.sort_key)


def _node_chain(plan: ContactPlan, route: Route) -> list[int]:
    """Node sequence visited by a route: source, then each contact's receiver."""
    nodes = [route.source]
    for cid in route.contacts:
        nodes.append(plan.contact(cid).to_node)
    return nodes


def _chain_arrival(plan: ContactPlan, contact_ids: tuple[int, ...], t_now: float) -> float:
    """Arrival time at the end of a contact-id prefix scheduled from t_now."""
    return route_attributes(plan, list(contact_ids), t_now).delivery_time


def build_route_table(
    plan: ContactPlan,
    owner: int,
    t_now: float,
    k_routes: int,
    destinations: set[int],
) -> RouteTable:
    """Compute the owner's k-best route lists toward each destination."""
    _require_nodes(plan, owner, *destinations)
    table = RouteTable(owner=owner, k_routes=k_routes)
    for dest in sorted(destinations):
        if dest == owner:
            table.routes[dest] = []
        else:
            table.routes[dest] = k_best_routes(plan, owner, dest, t_now, k_routes)
    return table


def build_route_tables(
    plan: ContactPlan, k_routes: int, destinations: set[int]
) -> dict[int, RouteTable]:
    """Every node's route table as it computes it at t = 0, by node id."""
    return {
        spec.node_id: build_route_table(plan, spec.node_id, 0.0, k_routes, destinations)
        for spec in plan.nodes
    }


def route_table_csv(table: RouteTable) -> str:
    """Render a route table as CSV, one row per route."""
    lines = ["route_id,owner,dest,contacts,delivery_time,hops,expiration,max_volume"]
    for dest in table.destinations():
        for i, r in enumerate(table.routes_for(dest)):
            path = "|".join(str(c) for c in r.contacts)
            lines.append(
                f"{i},{table.owner},{dest},{path},{r.delivery_time},"
                f"{r.hops},{r.expiration},{r.max_volume}"
            )
    return "\n".join(lines) + "\n"
