"""Per-packet route selection and local capacity bookkeeping.

Two policies choose among the routes that survive filtering: DELTIME picks
the earliest projected delivery, HOPS picks the fewest contacts. Each node
keeps its own capacity ledger of bookings it has made; nodes do not see
each other's bookings, which is exactly what makes congestion possible.

Booked capacity is never released, even when a packet is later dropped
downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .contact_graph import Route, RouteTable
from .contact_plan import ContactPlan

__all__ = [
    "Packet",
    "Policy",
    "CapacityLedger",
    "CapacityError",
    "filter_routes",
    "select_route",
    "book_capacity",
    "forward_or_drop",
]


class Policy(Enum):
    """Route selection rule applied to the filtered route set."""

    DELTIME = "deltime"
    HOPS = "hops"


class CapacityError(ValueError):
    """A booking request exceeding some contact's residual volume."""


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


class CapacityLedger:
    """Residual bookable volume per contact, as seen by one node.

    Initialized to each contact's whole-window volume (capacity times
    covered states); decremented only through book_capacity.
    """

    def __init__(self, residuals: dict[int, int]):
        self._residuals = dict(residuals)

    @classmethod
    def for_plan(cls, plan: ContactPlan) -> "CapacityLedger":
        return cls(plan.volumes)

    def residual(self, contact_id: int) -> int:
        return self._residuals[contact_id]

    def book(self, contact_ids: tuple[int, ...], n: int) -> None:
        if n < 0:
            raise CapacityError(f"cannot book a negative volume ({n})")
        for cid in contact_ids:
            if self._residuals[cid] < n:
                raise CapacityError(
                    f"contact {cid} has residual {self._residuals[cid]}, need {n}"
                )
        for cid in contact_ids:
            self._residuals[cid] -= n


def filter_routes(
    table: RouteTable, pkt: Packet, t_now: float, ledger: CapacityLedger
) -> list[Route]:
    """Keep the routes still usable for this packet at t_now, in table order.

    A route survives when it has not expired, its scheduled first-hop
    departure has not already passed, every contact still has bookable
    volume, and it delivers within the packet's deadline, read on the
    table's grid: by the end of the last state that ends at or before the
    deadline (`StateGrid.floor_boundary_index`), the rule the simulator
    and the LP bound apply too.
    """
    grid = table.grid
    cutoff = grid.state_end(grid.floor_boundary_index(pkt.deadline))
    out = []
    for r in table.routes_for(pkt.dst):
        if r.expiration <= t_now:
            continue
        if r.departure_time < t_now:
            continue
        if any(ledger.residual(cid) < 1 for cid in r.contacts):
            continue
        if r.delivery_time > cutoff:
            continue
        out.append(r)
    return out


def select_route(feasible: list[Route], policy: Policy) -> Route | None:
    """Pick the best feasible route under the policy, or None if empty."""
    if not feasible:
        return None
    if policy is Policy.DELTIME:
        return min(feasible, key=Route.sort_key)
    return min(feasible, key=Route.hops_key)


def book_capacity(ledger: CapacityLedger, route: Route, n: int) -> CapacityLedger:
    """Reserve n packets of volume on every contact of the route.

    Atomic: raises CapacityError (without mutating) when any contact's
    residual is insufficient. Returns the ledger for chaining.
    """
    ledger.book(route.contacts, n)
    return ledger


def forward_or_drop(
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
    route = select_route(filter_routes(table, pkt, t_now, ledger), policy)
    if route is None:
        return None
    book_capacity(ledger, route, 1)
    return route
