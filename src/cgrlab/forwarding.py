"""Route selection and local capacity bookkeeping.

A policy is an order on a node's routes to the traffic's destination:
DELTIME puts the earliest projected delivery first, HOPS the fewest
contacts. Traffic decided in state q with deadline state `deadline` takes
the first route in that order whose first transmission state is at or
after q, whose delivery state is at or before the deadline, and whose
contacts all have volume left; one unit per packet is booked on each of
its contacts. Every test is on integer state indices. A route's own
expiration needs no test: a route that transmits first at or after q has
every contact transmitting, hence still open, at or after q.

Each node keeps its own capacity ledger of bookings it has made; nodes do
not see each other's bookings, which is exactly what makes congestion
possible. Booked capacity is never released, even when a packet is later
dropped downstream.
"""

from __future__ import annotations

from enum import Enum

from .contact_graph import Route

__all__ = [
    "Policy",
    "CapacityLedger",
    "book_cohort",
]


class Policy(Enum):
    """Route order: the first usable route in it is booked."""

    DELTIME = "deltime"
    HOPS = "hops"

    def order(self, routes: list[Route]) -> list[Route]:
        """DELTIME sorts by `Route.sort_key`, HOPS by `Route.hops_key`."""
        return sorted(routes, key=Route.sort_key if self is Policy.DELTIME else Route.hops_key)


class CapacityLedger:
    """Residual bookable volume per contact, as seen by one node: each
    contact's whole-window volume (capacity times covered states, by id:
    the plan's `contact_graph.contact_index(plan).volumes`), shared and
    never copied, less this node's bookings."""

    def __init__(self, volumes: dict[int, int]):
        self._volumes = volumes
        self._booked: dict[int, int] = {}

    def residual(self, contact_id: int) -> int:
        return self._volumes[contact_id] - self._booked.get(contact_id, 0)

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
    routes: list[Route], n: int, q: int, deadline: int, ledger: CapacityLedger
) -> list[tuple[Route, int]]:
    """Decide n identical packets in state q at once: the (route, packets)
    bookings, in the policy's order of routes, that deciding them one by
    one would make; the rest are dropped. A route is usable when it first
    transmits in state q or later, delivers in state deadline or earlier
    and each contact has volume left; it takes as many packets as its
    least residual allows. Residuals only fall, so a route passed over
    stays unusable."""
    booked = []
    for route in routes:
        states = route.states
        if states[0] >= q and states[-1] <= deadline:
            if m := ledger.book_up_to(route.contacts, n):
                booked.append((route, m))
                n -= m
                if not n:
                    break
    return booked
