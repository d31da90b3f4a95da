"""Contact plans: time-varying network topologies on a uniform state grid.

A contact plan describes scheduled, directed communication windows
("contacts") between numbered nodes. Time is discretized into equal-length
states; contact windows are aligned to state boundaries and carry a
per-state packet capacity. All route search, simulation, and flow
optimization in this package operate on these plans.

Text format (one record per line, ``#`` starts a comment):

    plan <state_count> <state_duration_s>
    node <id> <buffer_capacity|inf>
    contact <id> <from> <to> <start_s> <end_s> <capacity_pkts_per_state>

Canonical serialization sorts nodes by id and contacts by (start, id).

Contacts keep their times in seconds, as written. Every layer that works
in states reads the plan's integer view instead: `ContactPlan.windows`
(each contact's first and last covered state), `ContactPlan.volumes`,
`ContactPlan.ranks` and `ContactPlan.arcs`. The plan derives them from the
grid once, on first use, so no layer re-derives a state index from a time.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

__all__ = [
    "StateGrid",
    "Contact",
    "Window",
    "NodeSpec",
    "ContactPlan",
    "TopologyConfig",
    "Diagnostic",
    "PlanError",
    "PlanSyntaxError",
    "PlanSemanticError",
    "parse_contact_plan",
    "serialize_contact_plan",
    "generate_random_topology",
    "validate",
]

# Grid arithmetic tolerance, relative to one state duration.
_GRID_TOL = 1e-9


class PlanError(ValueError):
    """Base class for contact-plan parsing and validation failures."""


class PlanSyntaxError(PlanError):
    """Malformed plan text; carries the 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PlanSemanticError(PlanError):
    """Well-formed text describing an invalid plan."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class StateGrid:
    """Uniform discretization of the planning horizon into numbered states.

    States are 1-based: state q spans [state_start(q), state_end(q)), with
    boundary timestamps q * state_duration for q = 0..state_count. The
    horizon ends at state_count * state_duration.
    """

    state_count: int
    state_duration: float

    def __post_init__(self):
        if self.state_count < 1:
            raise ValueError(f"state_count must be >= 1, got {self.state_count}")
        if not self.state_duration > 0:
            raise ValueError(f"state_duration must be > 0, got {self.state_duration}")

    @property
    def horizon(self) -> float:
        return self.state_count * self.state_duration

    def state_start(self, q: int) -> float:
        return (q - 1) * self.state_duration

    def state_end(self, q: int) -> float:
        return q * self.state_duration

    def boundary_index(self, t: float) -> int | None:
        """Index q of the boundary timestamp t = q * duration, or None if t
        is off-grid or outside [0, horizon]. A ratio t / duration that
        overflows (a subnormal duration) is off-grid too."""
        ratio = t / self.state_duration
        if not math.isfinite(ratio):
            return None
        q = round(ratio)
        if abs(ratio - q) > _GRID_TOL * max(1.0, abs(ratio)):
            return None
        if 0 <= q <= self.state_count:
            return q
        return None

    def floor_boundary_index(self, t: float) -> int:
        """Largest boundary index whose timestamp is <= t (clamped to the grid).

        A ratio t / duration that overflows (a subnormal duration) clamps
        to the grid's end it points at.
        """
        ratio = t / self.state_duration
        if not math.isfinite(ratio):
            return self.state_count if ratio > 0 else 0
        q = math.floor(ratio + _GRID_TOL * max(1.0, abs(ratio)))
        return max(0, min(self.state_count, q))

    def first_state_starting_at_or_after(self, t: float) -> int:
        """Smallest state index q with state_start(q) >= t.

        May exceed state_count when t is at or past the last state start;
        an overflowing ratio t / duration gives 1 or state_count + 1.
        """
        ratio = t / self.state_duration
        if not math.isfinite(ratio):
            return self.state_count + 1 if ratio > 0 else 1
        return math.ceil(ratio - _GRID_TOL * max(1.0, abs(ratio))) + 1


@dataclass(frozen=True)
class Contact:
    """A scheduled, directed transmission window with per-state capacity.

    A contact spanning several states can send `capacity` packets in each
    covered state.
    """

    contact_id: int
    from_node: int
    to_node: int
    start: float
    end: float
    capacity: int


class Window(NamedTuple):
    """The states a contact covers: first..last, 1-based and inclusive.

    With boundary b(t) the last grid boundary at or before t (clamped to
    the grid), a contact covers states b(start) + 1 through b(end). The
    window is empty when last < first.
    """

    first: int
    last: int

    @property
    def states(self) -> range:
        return range(self.first, self.last + 1)


class Arc(NamedTuple):
    """One contact in one of the states it covers."""

    contact_id: int
    state: int
    from_node: int
    to_node: int
    capacity: int


@dataclass(frozen=True)
class NodeSpec:
    """A network node and its storage capacity (math.inf = unbounded)."""

    node_id: int
    buffer_capacity: float = math.inf


@dataclass
class ContactPlan:
    """A state grid plus declared nodes and contacts, normalized on build.

    Normalization sorts nodes by id and contacts by (start, contact_id).
    Instances are treated as immutable values once constructed.

    The plan's integer view of time lives here: `windows`, `volumes`,
    `ranks` and `arcs` are computed from the grid once per plan, on first
    use, and every layer reads them instead of converting contact times
    to states itself. Plans that are never routed, simulated or solved
    (such as a generated plan that is only serialized) never compute them.
    The LP keeps its model layouts on the plan too, one per class set
    (`lp_oracle.build_lp`), and route search its contact index and
    completion tables, one per destination (`contact_graph`).
    """

    grid: StateGrid
    nodes: list[NodeSpec]
    contacts: list[Contact]

    _by_id: dict[int, Contact] = field(init=False, repr=False, compare=False)
    _routing: object = field(init=False, repr=False, compare=False)
    _lp_layouts: dict[tuple, object] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.nodes = sorted(self.nodes, key=lambda n: n.node_id)
        self.contacts = sorted(self.contacts, key=lambda c: (c.start, c.contact_id))
        self._by_id = {c.contact_id: c for c in self.contacts}
        self._routing = None
        self._lp_layouts = {}

    @property
    def node_ids(self) -> set[int]:
        return {n.node_id for n in self.nodes}

    def contact(self, contact_id: int) -> Contact:
        try:
            return self._by_id[contact_id]
        except KeyError:
            raise KeyError(f"unknown contact {contact_id}") from None

    @cached_property
    def windows(self) -> dict[int, Window]:
        """Each contact's covered states, by contact id."""
        grid = self.grid
        return {
            c.contact_id: Window(
                grid.floor_boundary_index(c.start) + 1, grid.floor_boundary_index(c.end)
            )
            for c in self.contacts
        }

    @cached_property
    def volumes(self) -> dict[int, int]:
        """Packets each contact can carry over its whole window, by contact id."""
        windows = self.windows
        return {
            c.contact_id: c.capacity * len(windows[c.contact_id].states) for c in self.contacts
        }

    @cached_property
    def ranks(self) -> dict[int, int]:
        """Each contact's position in plan order, (start, contact_id), by
        contact id."""
        return {c.contact_id: i for i, c in enumerate(self.contacts)}

    @cached_property
    def arcs(self) -> list[Arc]:
        """Every contact in every state it covers, ordered by (state,
        contact_id)."""
        windows = self.windows
        return sorted(
            (Arc(c.contact_id, q, c.from_node, c.to_node, c.capacity)
             for c in self.contacts
             for q in windows[c.contact_id].states),
            key=lambda a: (a.state, a.contact_id),
        )


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters for random topology generation.

    `density` is the per-(unordered pair, state) probability of a
    bidirectional contact; `capacity` is packets per contact per state.
    """

    node_count: int
    density: float
    capacity: int
    grid: StateGrid
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {self.density}")
        if self.node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {self.node_count}")
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")


@dataclass(frozen=True)
class Diagnostic:
    """One violated plan invariant, naming the offending entity."""

    code: str
    entity: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} [{self.entity}]: {self.message}"


_TOKEN_RE = re.compile(r"\S+")


class _FieldError(Exception):
    """A record's token is malformed; the parser adds line and column."""


def _integer(token: str, name: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _FieldError(f"{name} must be an integer, got {token!r}") from None


def _number(token: str, name: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _FieldError(f"{name} must be a number, got {token!r}") from None
    if not math.isfinite(value):
        raise _FieldError(f"{name} must be a finite number, got {token!r}")
    return value


def _buffer(token: str, name: str) -> float:
    if token == "inf":
        return math.inf
    try:
        return float(_integer(token, name))
    except OverflowError:
        raise _FieldError(f"{name} is too large") from None


# Each record's usage and the name and reader of each field after its
# keyword, in order; the fields build a StateGrid, NodeSpec or Contact.
_RECORDS = {
    "plan": (
        "plan <state_count> <state_duration_s>",
        (("state_count", _integer), ("state_duration", _number)),
    ),
    "node": (
        "node <id> <buffer_capacity|inf>",
        (("node id", _integer), ("buffer_capacity", _buffer)),
    ),
    "contact": (
        "contact <id> <from> <to> <start_s> <end_s> <capacity>",
        (("contact id", _integer), ("from", _integer), ("to", _integer),
         ("start", _number), ("end", _number), ("capacity", _integer)),
    ),
}


def _fmt_seconds(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(x)


def parse_contact_plan(text: str) -> ContactPlan:
    """Parse plan text into a normalized, validated ContactPlan.

    Raises PlanSyntaxError (with line/column) for malformed records and
    PlanSemanticError for structurally invalid plans (unknown nodes,
    empty windows, off-grid timestamps, duplicate ids).
    """
    grid: StateGrid | None = None
    nodes: list[NodeSpec] = []
    contacts: list[Contact] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        at = 0  # the token an error points at
        try:
            if kind not in _RECORDS:
                raise _FieldError(f"unknown record type {kind!r}")
            if kind == "plan" and grid is not None:
                raise _FieldError("duplicate plan header")
            usage, fields = _RECORDS[kind]
            if len(tokens) != len(fields) + 1:
                raise _FieldError(f"expected `{usage}`")
            values = []
            for at, (name, read) in enumerate(fields, start=1):
                values.append(read(tokens[at], name))
            at = 0
            if kind == "plan":
                try:
                    grid = StateGrid(*values)
                except ValueError as e:
                    raise _FieldError(str(e)) from None
            elif kind == "node":
                nodes.append(NodeSpec(*values))
            else:
                contacts.append(Contact(*values))
        except _FieldError as e:
            # The column is worked out only here, from the same whitespace
            # split: str.split and \S+ agree on what whitespace is.
            column = [m.start() + 1 for m in _TOKEN_RE.finditer(line)][at]
            raise PlanSyntaxError(lineno, column, str(e)) from None

    if grid is None:
        raise PlanSyntaxError(1, 1, "missing plan header")

    plan = ContactPlan(grid, nodes, contacts)
    diagnostics = validate(plan)
    if diagnostics:
        raise PlanSemanticError(diagnostics)
    return plan


def serialize_contact_plan(plan: ContactPlan) -> str:
    """Render a plan in canonical text form; parse(serialize(p)) == p."""
    lines = [f"plan {plan.grid.state_count} {_fmt_seconds(plan.grid.state_duration)}"]
    for n in sorted(plan.nodes, key=lambda n: n.node_id):
        buf = "inf" if math.isinf(n.buffer_capacity) else str(int(n.buffer_capacity))
        lines.append(f"node {n.node_id} {buf}")
    for c in sorted(plan.contacts, key=lambda c: (c.start, c.contact_id)):
        lines.append(
            f"contact {c.contact_id} {c.from_node} {c.to_node} "
            f"{_fmt_seconds(c.start)} {_fmt_seconds(c.end)} {c.capacity}"
        )
    return "\n".join(lines) + "\n"


def generate_random_topology(cfg: TopologyConfig) -> ContactPlan:
    """Draw a random plan: for every unordered node pair and every state,
    with probability cfg.density emit a contact in each direction spanning
    exactly that state with cfg.capacity packets per state.

    Uses the stdlib Mersenne Twister (`random.Random(cfg.seed)`), whose
    random() sequence is stable across Python versions, drawing once per
    (pair, state) in ascending (a, b, state) order. Identical configs
    therefore produce bit-identical plans.
    """
    rng = random.Random(cfg.seed)
    nodes = [NodeSpec(i) for i in range(1, cfg.node_count + 1)]
    contacts: list[Contact] = []
    next_id = 1
    for a in range(1, cfg.node_count + 1):
        for b in range(a + 1, cfg.node_count + 1):
            for q in range(1, cfg.grid.state_count + 1):
                if rng.random() < cfg.density:
                    start = cfg.grid.state_start(q)
                    end = cfg.grid.state_end(q)
                    contacts.append(Contact(next_id, a, b, start, end, cfg.capacity))
                    contacts.append(Contact(next_id + 1, b, a, start, end, cfg.capacity))
                    next_id += 2
    return ContactPlan(cfg.grid, nodes, contacts)


def validate(plan: ContactPlan) -> list[Diagnostic]:
    """Check every plan invariant; returns one diagnostic per violation.

    An empty list certifies the plan. Never raises: diagnostics are data.
    """
    out: list[Diagnostic] = []
    grid = plan.grid

    seen_nodes: set[int] = set()
    for n in plan.nodes:
        ent = f"node {n.node_id}"
        if n.node_id in seen_nodes:
            out.append(Diagnostic("duplicate-node-id", ent, "node id declared twice"))
        seen_nodes.add(n.node_id)
        if n.node_id < 1:
            out.append(Diagnostic("nonpositive-node-id", ent, "node ids must be positive"))
        if not math.isinf(n.buffer_capacity) and n.buffer_capacity < 0:
            out.append(
                Diagnostic("negative-buffer", ent, f"buffer capacity {n.buffer_capacity} < 0")
            )

    seen_contacts: set[int] = set()
    for c in plan.contacts:
        ent = f"contact {c.contact_id}"
        if c.contact_id in seen_contacts:
            out.append(Diagnostic("duplicate-contact-id", ent, "contact id declared twice"))
        seen_contacts.add(c.contact_id)
        for endpoint in (c.from_node, c.to_node):
            if endpoint not in seen_nodes:
                out.append(
                    Diagnostic("unknown-node", ent, f"references undeclared node {endpoint}")
                )
        if c.from_node == c.to_node:
            out.append(Diagnostic("self-loop", ent, "contact endpoints must differ"))
        if not c.end > c.start:
            out.append(
                Diagnostic(
                    "empty-contact-window", ent, f"window [{c.start}, {c.end}] has no extent"
                )
            )
        for label, t in (("start", c.start), ("end", c.end)):
            if grid.boundary_index(t) is None:
                out.append(
                    Diagnostic(
                        "off-grid-timestamp",
                        ent,
                        f"{label} {t} is not a state boundary within the horizon",
                    )
                )
        if c.capacity < 0:
            out.append(Diagnostic("negative-capacity", ent, f"capacity {c.capacity} < 0"))

    return out
