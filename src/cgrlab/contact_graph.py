"""Route computation over a contact plan.

A route is an ordered chain of contacts leading from a source node to a
destination node. Transmission over a contact occupies one whole state,
and the traffic becomes available at the receiving node when that state
ends, so a route's schedule is a strictly increasing sequence of states.
Scheduling is greedy: each contact transmits in its first covered state
starting at or after the traffic's availability time. A route carries
its schedule as integer state indices (`Route.states`); times in seconds
are read off the plan's grid only where they are printed.

Every function here orders routes by the total key

    (delivery state, hops, contact-id sequence)

so results are deterministic. State ends strictly increase, so this is
the order on delivery time.

Route search reads a completion table, one per (plan, destination), built
by one backward pass over the states on first use and kept on the plan.
Its entry for node v and state a is the least route from v for traffic
available after state a, with nothing suppressed. Fixing a route's first
contact leaves its key monotone in the key of the rest, so the table is
exact (Martins & Pascoal 2003; De Jonckere & Fraire 2020).
`earliest_delivery_route` is a best-first search whose labels pop in the
order of the table's completion, settling each (node, state) once; with
nothing suppressed its first pop, one lookup, is the answer.
`k_best_routes` layers the spur-node scheme (with the restriction that
spurs start at or after the parent's own deviation point) on top of it,
and composes each candidate's schedule from its parent's.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .contact_plan import ContactPlan

__all__ = [
    "Route",
    "RouteTable",
    "earliest_delivery_route",
    "k_best_routes",
    "build_route_table",
    "build_route_tables",
    "route_table_csv",
]


@dataclass(frozen=True)
class Route:
    """A contact chain, as scheduled from the query time.

    contacts holds the contact ids in order; states holds the state each
    contact transmits in: the route departs at the start of states[0] and
    delivers at the end of states[-1]. Its hop count is len(contacts);
    its expiration and volume are worked out where a table is printed
    (`route_table_csv`). sort_key and hops_key are the DELTIME and HOPS
    orders, as key functions.
    """

    contacts: tuple[int, ...]
    states: tuple[int, ...]

    def sort_key(self) -> tuple[int, int, tuple[int, ...]]:
        return self.states[-1], len(self.contacts), self.contacts

    def hops_key(self) -> tuple[int, int, tuple[int, ...]]:
        return len(self.contacts), self.states[-1], self.contacts


@dataclass
class RouteTable:
    """Per-destination route lists computed by one node from the shared
    plan, which the table holds: its grid turns route states into times,
    and `route_table_csv` reads its contacts."""

    owner: int
    plan: ContactPlan
    routes: dict[int, list[Route]] = field(default_factory=dict)

    def routes_for(self, destination: int) -> list[Route]:
        return self.routes[destination]

    def destinations(self) -> list[int]:
        return sorted(self.routes)


class _IndexedContact(NamedTuple):
    """One contact as the plan's index holds it: its endpoints, per-state
    capacity, window (first..last, 1-based and inclusive, empty when
    last < first) and position in plan order, (start, contact_id)."""

    from_node: int
    to_node: int
    capacity: int
    first: int
    last: int
    position: int


# A completion: (delivery state, hops, contact ids, transmission states).
_Completion = tuple[int, int, tuple[int, ...], tuple[int, ...]]


class _RouteIndex:
    """A plan's contacts by id, read once from the plan's columns, as route
    search and the simulator read them, and the plan's completion tables
    by destination. Kept on the plan (`ContactPlan._routing`) and read
    through `contact_index`.

    nodes is the set of declared node ids. contacts gives each contact's
    endpoints, capacity, window and plan position (`_IndexedContact`),
    and volumes the packets it can carry over its whole window, capacity
    times covered states, as Python integers so the product stays exact;
    both by contact id. out[v] lists (first, last, contact_id, to_node)
    for every contact from v with a nonempty window; starting[s] and
    covering[s] list (contact_id, from_node, to_node) for the contacts
    whose window starts at state s and for those that cover s after their
    first state.
    """

    def __init__(self, plan: ContactPlan):
        n = plan.grid.state_count
        self.nodes = plan.node_ids
        self.out: dict[int, list[tuple[int, int, int, int]]] = {v.node_id: [] for v in plan.nodes}
        self.contacts: dict[int, _IndexedContact] = {}
        self.volumes: dict[int, int] = {}
        self.starting: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
        self.covering: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
        self.tables: dict[int, list[dict[int, _Completion]]] = {}
        cols = plan.columns
        rows = zip(*(column.tolist() for column in (
            cols.contact_id, cols.from_node, cols.to_node, cols.capacity, cols.first, cols.last
        )))
        for position, (cid, v, w, cap, first, last) in enumerate(rows):
            self.contacts[cid] = _IndexedContact(v, w, cap, first, last, position)
            self.volumes[cid] = cap * max(0, last - first + 1)
            if first > last:
                continue
            self.out.setdefault(v, []).append((first, last, cid, w))
            self.starting[first].append((cid, v, w))
            for s in range(first + 1, last + 1):
                self.covering[s].append((cid, v, w))

    def completions(self, dest: int) -> list[dict[int, _Completion]]:
        """rows[a][v]: the least route from v to dest for traffic available
        after state a, for a = 0 .. state_count; a node with no route is
        absent.

        One backward pass over a. A contact transmits in q = max(a + 1,
        first), so for every a below its first state it offers one fixed
        candidate, which joins a running per-node minimum once; only the
        contacts covering state a + 1 after their first state are re-read
        at each a. Candidates from one node never tie on their first
        contact id, so (delivery, hops, first id) orders them, and a
        candidate's id and state tuples are built only when it improves
        its node's entry.
        """
        rows = self.tables.get(dest)
        if rows is not None:
            return rows
        n = len(self.starting) - 1
        rows = [{} for _ in range(n + 1)]
        fixed: dict[int, _Completion] = {}

        def offer(row, contacts, nxt, s):
            # Each contact transmits in state s and goes on by nxt = rows[s].
            for cid, v, w in contacts:
                if v == dest:
                    continue
                if w == dest:
                    d, h, rest = s, 1, None
                else:
                    rest = nxt.get(w)
                    if rest is None:
                        continue
                    d, h = rest[0], rest[1] + 1
                cur = row.get(v)
                if cur is None or (d, h, cid) < (cur[0], cur[1], cur[2][0]):
                    if rest is None:
                        row[v] = (d, h, (cid,), (s,))
                    else:
                        row[v] = (d, h, (cid,) + rest[2], (s,) + rest[3])

        for a in range(n - 1, -1, -1):
            s = a + 1
            nxt = rows[s]
            offer(fixed, self.starting[s], nxt, s)
            row = rows[a] = dict(fixed)
            offer(row, self.covering[s], nxt, s)
        self.tables[dest] = rows
        return rows


def contact_index(plan: ContactPlan) -> _RouteIndex:
    """The plan's contact index, built on first use and kept on the plan."""
    index = plan._routing
    if index is None:
        index = plan._routing = _RouteIndex(plan)
    return index


def _require_nodes(index: _RouteIndex, *node_ids: int) -> None:
    for nid in node_ids:
        if nid not in index.nodes:
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

    "Best" is the minimum of (delivery state, hops, contact-id sequence).
    Suppressed contacts and nodes are excluded from the search, which is
    what the k-best layer needs to force deviations.

    The search is best-first over labels, each a contact prefix from the
    source; the first label is the empty prefix, at the traffic's
    availability at t_now (after the last state that starts before
    t_now). A label's key is its prefix extended by the completion
    table's entry for its last node and state. That completion ignores
    the suppressions, so the key is a lower bound on every allowed route
    through the label, and it is attained when the completion uses no
    suppressed contact or node. The first popped label whose completion
    is allowed is the answer, so with nothing suppressed the answer is
    the first label's table entry. Any other popped label pushes its
    allowed children that have a completion, each of whose keys is no
    less than its own.

    A popped label settles its (node, state): a later label there shares
    its completion, so it has the larger (hops, prefix ids) and loses to
    the first on every continuation, and it is dropped. Pops are thus
    bounded by nodes x states.

    Labels carry no visited-node set. A walk that revisits a node loses to
    its shortcut, the walk with the loop cut out, which delivers no later
    in fewer hops and avoids whatever the walk avoids; so the answer is
    loop-free (Yen 1971; Fraire, De Jonckere & Burleigh 2021).

    Raises ValueError for a non-finite t_now, so k_best_routes and
    build_route_table, which search through here, reject one too.
    """
    if not math.isfinite(t_now):
        raise ValueError(f"t_now must be a finite number, got {t_now}")
    index = contact_index(plan)
    _require_nodes(index, source, dest)
    if source == dest:
        raise ValueError("source and destination must differ")
    sup_c = frozenset(suppressed_contacts)
    sup_n = frozenset(suppressed_nodes)
    if source in sup_n:
        return None

    rows = index.completions(dest)
    start = max(plan.grid.first_state_starting_at_or_after(t_now) - 1, 0)
    best = rows[start].get(source) if start < len(rows) else None
    if best is None:
        return None

    # Heap entries: (delivery, hops, ids, prefix length, node, state,
    # prefix states, completion states). A label's ids and prefix length
    # identify it, so comparisons never reach the node.
    contacts = index.contacts
    out = index.out
    heap = [(best[0], best[1], best[2], 0, source, start, (), best[3])]
    settled: set[tuple[int, int]] = set()
    while heap:
        _, _, ids, plen, node, avail, states, rest = heapq.heappop(heap)
        if (node, avail) in settled:
            continue
        settled.add((node, avail))
        tail = ids[plen:]
        if sup_c.isdisjoint(tail) and sup_n.isdisjoint(contacts[c].to_node for c in tail):
            return Route(ids, states + rest)
        prefix = ids[:plen]
        hops = plen + 1
        for first, last, cid, w in out[node]:
            if last <= avail or cid in sup_c or w in sup_n:
                continue
            q = first if first > avail else avail + 1
            if w == dest:
                heapq.heappush(heap, (q, hops, prefix + (cid,), hops, w, q, states + (q,), ()))
                continue
            nxt = rows[q].get(w)
            if nxt is not None:
                heapq.heappush(heap, (
                    nxt[0], hops + nxt[1], prefix + (cid,) + nxt[2], hops, w, q,
                    states + (q,), nxt[3],
                ))
    return None


def k_best_routes(
    plan: ContactPlan,
    source: int,
    dest: int,
    t_now: float = 0.0,
    k_routes: int = 1,
) -> list[Route]:
    """The k_routes best distinct routes under (delivery state, hops, ids).

    Spur-node enumeration: each accepted route is re-branched at every
    position from its own deviation point onward, with the shared prefix
    pinned, the prefix's next contacts suppressed, and the prefix's nodes
    (except the spur node itself) suppressed. Returns fewer routes when
    fewer exist.

    Greedy scheduling is prefix-closed, so a candidate's schedule is its
    parent's states up to the spur node followed by the spur's states,
    and the spur search starts where the parent's prefix delivers.
    """
    if k_routes < 1:
        raise ValueError(f"k_routes must be >= 1, got {k_routes}")
    first = earliest_delivery_route(plan, source, dest, t_now)
    if first is None:
        return []

    grid = plan.grid
    contacts = contact_index(plan).contacts
    accepted: list[Route] = [first]
    deviation: dict[tuple[int, ...], int] = {first.contacts: 0}
    # Candidates as (sort key, spur position, contact ids, states); a Route
    # is built only for those accepted.
    candidates: list[tuple] = []
    seen: set[tuple[int, ...]] = {first.contacts}

    while len(accepted) < k_routes:
        parent = accepted[-1]
        parent_nodes = [source, *(contacts[c].to_node for c in parent.contacts)]
        for j in range(deviation[parent.contacts], len(parent.contacts)):
            root = parent.contacts[:j]
            spur_node = parent_nodes[j]
            t_spur = t_now if j == 0 else grid.state_end(parent.states[j - 1])
            spur_suppressed = {
                r.contacts[j]
                for r in accepted
                if len(r.contacts) > j and r.contacts[:j] == root
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
            states = parent.states[:j] + spur.states
            key = (states[-1], len(total), total)
            heapq.heappush(candidates, (key, j, total, states))
        if not candidates:
            break
        _, j, total, states = heapq.heappop(candidates)
        accepted.append(Route(total, states))
        deviation[total] = j

    return sorted(accepted, key=Route.sort_key)


def build_route_table(
    plan: ContactPlan,
    owner: int,
    t_now: float,
    k_routes: int,
    destinations: set[int],
) -> RouteTable:
    """Compute the owner's k-best route lists toward each destination.
    Raises KeyError for an undeclared node."""
    _require_nodes(contact_index(plan), owner, *destinations)
    table = RouteTable(owner=owner, plan=plan)
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
    """Render a route table as CSV, one row per route. A route's expiration
    is the earliest end of its contacts, in seconds (the route dies when
    any of its contacts ends), and its max_volume the smallest
    whole-window volume along the chain."""
    plan = table.plan
    index = contact_index(plan)
    contacts, volumes = index.contacts, index.volumes
    ends = plan.columns.end.tolist()
    lines = ["route_id,owner,dest,contacts,delivery_time,hops,expiration,max_volume"]
    for dest in table.destinations():
        for i, r in enumerate(table.routes_for(dest)):
            path = "|".join(str(c) for c in r.contacts)
            expiration = min(ends[contacts[c].position] for c in r.contacts)
            max_volume = min(volumes[c] for c in r.contacts)
            lines.append(
                f"{i},{table.owner},{dest},{path},{plan.grid.state_end(r.states[-1])},"
                f"{len(r.contacts)},{expiration},{max_volume}"
            )
    return "\n".join(lines) + "\n"
