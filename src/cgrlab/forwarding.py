"""Per-packet route selection and local capacity bookkeeping.

A policy is an order on a node's routes to the packet's destination:
DELTIME puts the earliest projected delivery first, HOPS the fewest
contacts. A packet takes the first route in that order that is still
usable, and one unit is booked on each of its contacts. Each node
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
    "forward_or_drop",
]


class Policy(Enum):
    """Route order: the first usable route in it is booked."""

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
    covered states); decremented only through book.
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


def forward_or_drop(
    pkt: Packet,
    table: RouteTable,
    t_now: float,
    ledger: CapacityLedger,
    policy: Policy,
) -> Route | None:
    """Full forwarding decision for one packet: book and return the first
    usable route in the policy's order, or None when the packet must be
    dropped. The packet is queued on the route's first contact.

    DELTIME orders routes by `Route.sort_key`, HOPS by `Route.hops_key`;
    the routes are sorted here, since a table built by hand may list them
    in any order. A route is usable when it has not expired, its scheduled
    first-hop departure has not already passed, every contact still has
    bookable volume, and it delivers within the packet's deadline, read on
    the table's grid: by the end of the last state that ends at or before
    the deadline (`StateGrid.floor_boundary_index`), the rule the
    simulator and the LP bound apply too.
    """
    grid = table.grid
    cutoff = grid.state_end(grid.floor_boundary_index(pkt.deadline))
    key = Route.sort_key if policy is Policy.DELTIME else Route.hops_key
    for route in sorted(table.routes_for(pkt.dst), key=key):
        if (
            route.expiration > t_now
            and route.departure_time >= t_now
            and all(ledger.residual(cid) >= 1 for cid in route.contacts)
            and route.delivery_time <= cutoff
        ):
            ledger.book(route.contacts, 1)
            return route
    return None
