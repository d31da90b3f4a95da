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

Contact ids, node ids, endpoints and capacities are integers of at most
2**53 in magnitude. Canonical serialization sorts nodes by id and contacts
by (start, id).

A plan holds its contacts as columns (`ContactPlan.columns`), one array
per field in plan order, (start, id): id, from, to, start and end in
seconds as written, capacity, and each contact's window, its first and
last covered state. The parser and the generator fill the columns
directly, and the windows are worked out once, where the plan is made,
by one vectorised pass over its times (`StateGrid._floor_boundaries`,
`floor_boundary_index` elementwise), so no layer converts a time to a
state itself. `ContactPlan.arcs`, every contact in every state it
covers, is derived from the columns on first use. `Contact` objects are
built only for callers that ask for them (`ContactPlan.contacts` and
`ContactPlan.contact`).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

__all__ = [
    "StateGrid",
    "Contact",
    "ContactColumns",
    "Arcs",
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
# The largest magnitude of a plan's integer fields (state count, ids,
# endpoints, capacities): every such integer is exact as a float and fits
# the plan's int64 columns.
_INT_LIMIT = 2**53


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
        if self.state_count > _INT_LIMIT:
            raise ValueError("state_count must be at most 2**53")
        if not 0 < self.state_duration < math.inf:
            raise ValueError(f"state_duration must be finite and > 0, got {self.state_duration}")

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

    # The vectorised forms of the two methods above, for the plan's columns:
    # the same IEEE operations on each element, so the same answers. A
    # subnormal duration overflows a ratio to inf, which warns nothing here
    # and is read as the methods read it.

    def _floor_boundaries(self, t: np.ndarray) -> np.ndarray:
        """`floor_boundary_index` of every time in t, as an int64 array."""
        f = self.state_count
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = t / self.state_duration
            q = np.floor(ratio + _GRID_TOL * np.maximum(1.0, np.abs(ratio)))
        q = np.where(np.isfinite(ratio), np.clip(q, 0, f), np.where(ratio > 0, f, 0))
        return q.astype(np.int64)

    def _on_boundaries(self, t: np.ndarray) -> np.ndarray:
        """Whether `boundary_index` finds each time in t on the grid."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = t / self.state_duration
            q = np.rint(ratio)  # round half to even, as round() does
            near = np.abs(ratio - q) <= _GRID_TOL * np.maximum(1.0, np.abs(ratio))
        return np.isfinite(ratio) & near & (q >= 0) & (q <= self.state_count)


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


class ContactColumns(NamedTuple):
    """A plan's contacts as read-only arrays in plan order, (start, id):
    the six `Contact` fields (int64 but start and end, float64) and each
    contact's window, int64: with boundary b(t) the last grid boundary at
    or before t (clamped to the grid), a contact covers states
    first = b(start) + 1 through last = b(end), and none when
    last < first."""

    contact_id: np.ndarray
    from_node: np.ndarray
    to_node: np.ndarray
    start: np.ndarray
    end: np.ndarray
    capacity: np.ndarray
    first: np.ndarray
    last: np.ndarray


class Arcs(NamedTuple):
    """Every contact in every state it covers, as read-only int64 arrays
    ordered by (state, contact_id), ties in plan order."""

    contact_id: np.ndarray
    state: np.ndarray
    from_node: np.ndarray
    to_node: np.ndarray
    capacity: np.ndarray


@dataclass(frozen=True)
class NodeSpec:
    """A network node and its storage capacity (math.inf = unbounded)."""

    node_id: int
    buffer_capacity: float = math.inf


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class ContactPlan:
    """A state grid plus declared nodes and contacts, normalized on build.

    Normalization sorts nodes by id and contacts by (start, contact_id).
    Instances are treated as immutable values once constructed; two plans
    are equal when their grids, nodes and contact columns are.

    The contacts are held as columns (`columns`, see the module
    docstring). `ContactPlan(grid, nodes, contacts)` builds them from
    `Contact` objects, for hand-built plans, and raises TypeError when an
    id, endpoint or capacity is not an integer that fits int64; the parser
    and the generator fill them directly. `contacts` and `contact(cid)`
    build `Contact` objects from the columns on first use.

    The plan's integer view of time lives here too: the windows are
    columns, and `arcs` is derived from them once per plan, on first use.
    The LP keeps its model layouts on the plan too, one per class set
    (`lp_oracle.build_lp`), and route search its contact index, which the
    simulator reads as well, and completion tables, one per destination
    (`contact_graph.contact_index`).
    """

    def __init__(self, grid: StateGrid, nodes: list[NodeSpec], contacts: list[Contact]):
        contacts = list(contacts)
        ints = np.array([(c.contact_id, c.from_node, c.to_node, c.capacity) for c in contacts])
        if contacts and ints.dtype.kind not in "iu":
            raise TypeError("contact ids, endpoints and capacities must be int64 integers")
        ints = ints.astype(np.int64).reshape(-1, 4).T
        times = np.array([(c.start, c.end) for c in contacts], dtype=np.float64).reshape(-1, 2).T
        self._adopt(grid, nodes, ints[0], ints[1], ints[2], times[0], times[1], ints[3])

    @classmethod
    def _from_columns(cls, grid, nodes, ids, froms, tos, starts, ends, capacities) -> ContactPlan:
        """A plan from contact columns in any order."""
        plan = cls.__new__(cls)
        plan._adopt(grid, nodes, ids, froms, tos, starts, ends, capacities)
        return plan

    def _adopt(self, grid, nodes, ids, froms, tos, starts, ends, capacities) -> None:
        self.grid = grid
        self.nodes = sorted(nodes, key=lambda n: n.node_id)
        bounds = grid._floor_boundaries(np.concatenate((starts, ends)))
        first, last = bounds[: len(starts)] + 1, bounds[len(starts) :]
        order = np.lexsort((ids, starts))
        self.columns = ContactColumns(*(
            _read_only(np.asarray(column)[order])
            for column in (ids, froms, tos, starts, ends, capacities, first, last)
        ))
        self._routing = None
        self._lp_layouts = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ContactPlan):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.nodes == other.nodes
            and all(np.array_equal(a, b) for a, b in zip(self.columns[:6], other.columns[:6]))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"ContactPlan(grid={self.grid!r}, nodes={self.nodes!r}, contacts={self.contacts!r})"

    @property
    def node_ids(self) -> set[int]:
        return {n.node_id for n in self.nodes}

    def _rows(self, *columns: np.ndarray):
        """The given columns' rows as tuples of Python scalars."""
        return zip(*(column.tolist() for column in columns))

    @cached_property
    def contacts(self) -> list[Contact]:
        """The contacts as `Contact` objects, in plan order."""
        return [Contact(*row) for row in self._rows(*self.columns[:6])]

    @cached_property
    def _by_id(self) -> dict[int, Contact]:
        return {c.contact_id: c for c in self.contacts}

    def contact(self, contact_id: int) -> Contact:
        try:
            return self._by_id[contact_id]
        except KeyError:
            raise KeyError(f"unknown contact {contact_id}") from None

    @cached_property
    def arcs(self) -> Arcs:
        """Every contact in every state it covers (see `Arcs`)."""
        cols = self.columns
        length = np.maximum(cols.last - cols.first + 1, 0)
        row = np.repeat(np.arange(len(length)), length)
        offset = np.arange(len(row)) - np.repeat(np.cumsum(length) - length, length)
        state = cols.first[row] + offset
        order = np.lexsort((cols.contact_id[row], state))
        row = row[order]
        return Arcs(*(_read_only(a) for a in (
            cols.contact_id[row], state[order], cols.from_node[row], cols.to_node[row],
            cols.capacity[row],
        )))


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


def _bounded(token: str, name: str) -> int:
    value = _integer(token, name)
    if abs(value) > _INT_LIMIT:
        raise _FieldError(f"{name} is too large")
    return value


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
# keyword, in order; the fields build a StateGrid, NodeSpec or contact row.
_RECORDS = {
    "plan": (
        "plan <state_count> <state_duration_s>",
        (("state_count", _integer), ("state_duration", _number)),
    ),
    "node": (
        "node <id> <buffer_capacity|inf>",
        (("node id", _bounded), ("buffer_capacity", _buffer)),
    ),
    "contact": (
        "contact <id> <from> <to> <start_s> <end_s> <capacity>",
        (("contact id", _bounded), ("from", _bounded), ("to", _bounded),
         ("start", _number), ("end", _number), ("capacity", _bounded)),
    ),
}


def _read_record(tokens: list[str], has_grid: bool) -> list:
    """A record's field values, read by `_RECORDS`; a malformed record
    raises _FieldError with `at`, the index of the token at fault."""
    kind = tokens[0]
    at = 0
    try:
        if kind not in _RECORDS:
            raise _FieldError(f"unknown record type {kind!r}")
        if kind == "plan" and has_grid:
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
                StateGrid(*values)
            except ValueError as e:
                raise _FieldError(str(e)) from None
        return values
    except _FieldError as e:
        e.at = at
        raise


def _first_syntax_error(text: str) -> PlanSyntaxError:
    """The error of the first malformed record in line order, reading
    every record with the field readers: the parser's slow path, taken
    only once it has found a malformed record."""
    has_grid = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        try:
            _read_record(tokens, has_grid)
        except _FieldError as e:
            # str.split and \S+ agree on what whitespace is.
            column = [m.start() + 1 for m in _TOKEN_RE.finditer(line)][e.at]
            return PlanSyntaxError(lineno, column, str(e))
        has_grid = has_grid or tokens[0] == "plan"
    raise AssertionError("no malformed record")


def _fmt_seconds(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(x)


def parse_contact_plan(text: str) -> ContactPlan:
    """Parse plan text into a normalized, validated ContactPlan.

    Raises PlanSyntaxError (with line/column) for malformed records and
    PlanSemanticError for structurally invalid plans (unknown nodes,
    empty windows, off-grid timestamps, duplicate ids).

    Contact records are read a field at a time into the columns, with the
    same int and float calls the field readers make, and their finiteness
    and integer bounds are checked on the columns. On any malformed record
    the text is read again by the field readers, which report the first
    one in line order.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    records = [tokens for tokens in map(str.split, lines) if tokens]
    contacts = [tokens for tokens in records if len(tokens) == 7 and tokens[0] == "contact"]
    others = [tokens for tokens in records if len(tokens) != 7 or tokens[0] != "contact"]
    grid: StateGrid | None = None
    nodes: list[NodeSpec] = []
    try:
        for tokens in others:
            values = _read_record(tokens, grid is not None)
            if tokens[0] == "plan":
                grid = StateGrid(*values)
            else:
                nodes.append(NodeSpec(*values))
        # The contact fields, one column at a time.
        flat = list(chain.from_iterable(contacts))
        ints = np.array([list(map(int, flat[i::7])) for i in (1, 2, 3, 6)], dtype=np.int64)
        times = np.array([list(map(float, flat[i::7])) for i in (4, 5)], dtype=np.float64)
    except (_FieldError, ValueError, OverflowError):
        raise _first_syntax_error(text) from None
    ints, times = ints.reshape(4, -1), times.reshape(2, -1)
    if ((ints > _INT_LIMIT) | (ints < -_INT_LIMIT)).any() or not np.isfinite(times).all():
        raise _first_syntax_error(text)
    if grid is None:
        raise PlanSyntaxError(1, 1, "missing plan header")

    plan = ContactPlan._from_columns(grid, nodes, ints[0], ints[1], ints[2], times[0], times[1],
                                     ints[3])
    diagnostics = validate(plan)
    if diagnostics:
        raise PlanSemanticError(diagnostics)
    return plan


def serialize_contact_plan(plan: ContactPlan) -> str:
    """Render a plan in canonical text form; parse(serialize(p)) == p.

    Raises ValueError for a contact whose start or end is not finite, such
    as a state end past float range, which the text format cannot hold."""
    columns = plan.columns
    finite = np.isfinite(columns.start) & np.isfinite(columns.end)
    if not finite.all():
        i = np.argmin(finite)
        raise ValueError(
            f"contact {columns.contact_id[i]} runs from {columns.start[i]} to {columns.end[i]}; "
            "a plan file holds finite times only"
        )
    lines = [f"plan {plan.grid.state_count} {_fmt_seconds(plan.grid.state_duration)}"]
    for n in plan.nodes:
        buf = "inf" if math.isinf(n.buffer_capacity) else str(int(n.buffer_capacity))
        lines.append(f"node {n.node_id} {buf}")
    # Python scalars, which print as the text format writes them.
    for cid, v, w, start, end, cap in plan._rows(*columns[:6]):
        lines.append(f"contact {cid} {v} {w} {_fmt_seconds(start)} {_fmt_seconds(end)} {cap}")
    return "\n".join(lines) + "\n"


def generate_random_topology(cfg: TopologyConfig) -> ContactPlan:
    """Draw a random plan: for every unordered node pair and every state,
    with probability cfg.density emit a contact in each direction spanning
    exactly that state with cfg.capacity packets per state.

    Uses the stdlib Mersenne Twister (`random.Random(cfg.seed)`), whose
    random() sequence is stable across Python versions, drawing once per
    (pair, state) in ascending (a, b, state) order. Identical configs
    therefore produce bit-identical plans. Each drawn pair gets the next
    two contact ids, a -> b first.
    """
    rng = random.Random(cfg.seed)
    n, f = cfg.node_count, cfg.grid.state_count
    a, b = np.triu_indices(n, 1)
    draws = np.array([rng.random() for _ in range(len(a) * f)], dtype=np.float64)
    pair, q = np.divmod(np.flatnonzero(draws < cfg.density), f)
    q += 1
    a, b = a[pair] + 1, b[pair] + 1
    ids = 1 + 2 * np.arange(len(pair))
    states = np.concatenate((q, q))
    with np.errstate(over="ignore"):  # as grid.state_end, inf past float range
        starts, ends = (states - 1) * cfg.grid.state_duration, states * cfg.grid.state_duration
    return ContactPlan._from_columns(
        cfg.grid,
        [NodeSpec(i) for i in range(1, n + 1)],
        np.concatenate((ids, ids + 1)),
        np.concatenate((a, b)),
        np.concatenate((b, a)),
        starts,
        ends,
        np.full(len(states), cfg.capacity, dtype=np.int64),
    )


def validate(plan: ContactPlan) -> list[Diagnostic]:
    """Check every plan invariant; returns one diagnostic per violation.

    An empty list certifies the plan. Never raises: diagnostics are data.
    Nodes are checked one by one, in id order. Each contact check is one
    mask over the columns, and the diagnostics of the flagged contacts
    follow, contact by contact in plan order and check by check.
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

    cols = plan.columns
    ids = cols.contact_id
    duplicate = np.ones(len(ids), dtype=bool)
    duplicate[np.unique(ids, return_index=True)[1]] = False
    n = len(ids)
    endpoints = np.concatenate((cols.from_node, cols.to_node))
    undeclared = np.zeros(2 * n, dtype=bool)
    if not seen_nodes.issuperset(np.unique(endpoints).tolist()):
        undeclared = ~np.isin(endpoints, list(seen_nodes))
    off_grid = ~grid._on_boundaries(np.concatenate((cols.start, cols.end)))
    masks = (
        duplicate,
        undeclared[:n],
        undeclared[n:],
        cols.from_node == cols.to_node,
        ~(cols.end > cols.start),
        off_grid[:n],
        off_grid[n:],
        cols.capacity < 0,
    )
    flagged = np.flatnonzero(np.logical_or.reduce(masks))
    flags = np.stack(masks)[:, flagged].T.tolist()
    for (cid, v, w, start, end, cap), (dup, unknown_v, unknown_w, loop, empty, off_start,
                                      off_end, negative) in zip(
        plan._rows(*(column[flagged] for column in cols[:6])), flags
    ):
        ent = f"contact {cid}"
        if dup:
            out.append(Diagnostic("duplicate-contact-id", ent, "contact id declared twice"))
        for endpoint, unknown in ((v, unknown_v), (w, unknown_w)):
            if unknown:
                out.append(
                    Diagnostic("unknown-node", ent, f"references undeclared node {endpoint}")
                )
        if loop:
            out.append(Diagnostic("self-loop", ent, "contact endpoints must differ"))
        if empty:
            out.append(
                Diagnostic("empty-contact-window", ent, f"window [{start}, {end}] has no extent")
            )
        for label, t, off in (("start", start, off_start), ("end", end, off_end)):
            if off:
                out.append(
                    Diagnostic(
                        "off-grid-timestamp",
                        ent,
                        f"{label} {t} is not a state boundary within the horizon",
                    )
                )
        if negative:
            out.append(Diagnostic("negative-capacity", ent, f"capacity {cap} < 0"))

    return out
