"""Route selection and local capacity bookkeeping.

A policy is an order on a node's routes to the packet's destination:
DELTIME puts the earliest projected delivery first, HOPS the fewest
contacts. A packet takes the first route in that order that is still
usable, and one unit is booked on each of its contacts. Each node keeps
its own capacity ledger of bookings it has made; nodes do not see each
other's bookings, which is exactly what makes congestion possible.

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
    "book_cohort",
    "forward_or_drop",
]


class Policy(Enum):
    """Route order: the first usable route in it is booked."""

    DELTIME = "deltime"
    HOPS = "hops"

    def order(self, routes: list[Route]) -> list[Route]:
        """DELTIME sorts by `Route.sort_key`, HOPS by `Route.hops_key`."""
        return sorted(routes, key=Route.sort_key if self is Policy.DELTIME else Route.hops_key)


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
    """Residual bookable volume per contact, as seen by one node: each
    contact's whole-window volume (capacity times covered states), shared
    and never copied, less this node's bookings."""

    def __init__(self, volumes: dict[int, int]):
        self._volumes = volumes
        self._booked: dict[int, int] = {}

    @classmethod
    def for_plan(cls, plan: ContactPlan) -> "CapacityLedger":
        return cls(plan.volumes)

    def residual(self, contact_id: int) -> int:
        return self._volumes[contact_id] - self._booked.get(contact_id, 0)

    def book(self, contact_ids: tuple[int, ...], n: int) -> None:
        if n < 0:
            raise CapacityError(f"cannot book a negative volume ({n})")
        for cid in contact_ids:
            if self.residual(cid) < n:
                raise CapacityError(f"contact {cid} has residual {self.residual(cid)}, need {n}")
        self.book_up_to(contact_ids, n)

    def book_up_to(self, contact_ids: tuple[int, ...], n: int) -> int:
        """Book as many of n units as every contact still has; returns that many."""
        volumes, booked = self._volumes, self._booked
        for cid in contact_ids:
            n = min(n, volumes[cid] - booked.get(cid, 0))
        if n <= 0:
            return 0
        for cid in contact_ids:
            booked[cid] = booked.get(cid, 0) + n
        return n


def book_cohort(
    routes: list[Route], n: int, t_now: float, cutoff: float, ledger: CapacityLedger
) -> list[tuple[Route, int]]:
    """Decide n identical packets at once: the (route, packets) bookings, in
    the policy's order of routes, that deciding them one by one would make;
    the rest are dropped. A route is usable when it has not expired, its
    first-hop departure has not passed, it delivers by cutoff and each
    contact has volume left; it takes as many packets as its least residual
    allows. Residuals only fall, so a route passed over stays unusable."""
    booked = []
    for route in routes:
        if route.expiration > t_now and route.departure_time >= t_now:
            if route.delivery_time <= cutoff and (m := ledger.book_up_to(route.contacts, n)):
                booked.append((route, m))
                n -= m
                if not n:
                    break
    return booked


def forward_or_drop(
    pkt: Packet,
    table: RouteTable,
    t_now: float,
    ledger: CapacityLedger,
    policy: Policy,
) -> Route | None:
    """`book_cohort` for one packet: the route booked, or None to drop it.
    The table's routes may be listed in any order. The packet must arrive by
    the end of the last state that ends at or before its deadline
    (`StateGrid.floor_boundary_index`), as in the simulator and the LP."""
    grid = table.grid
    cutoff = grid.state_end(grid.floor_boundary_index(pkt.deadline))
    booked = book_cohort(policy.order(table.routes_for(pkt.dst)), 1, t_now, cutoff, ledger)
    return booked[0][0] if booked else None
