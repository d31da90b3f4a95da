"""Optimal multi-commodity flow over the state-expanded contact plan.

This is the global-knowledge upper bound the distributed forwarding
policies are compared against. Traffic is grouped into classes, keyed by
(destination, generation time, ttl), each with a supply at each of its
sources. For each state the plan's contacts become capacitated arcs, and
the model chooses fractional per-arc flows X and per-timestamp buffer
occupancies B that minimize a weighted transmission cost. A flow in state
q costs q ** e for the weight exponent e (1 by default); `state_weights`
accepts an exponent only when those weights are finite and strictly
increasing over the plan's states, so later transmissions always cost
more.

Why one commodity per class loses nothing: every constraint sees a
class's traffic only through its destination, generation time and
deadline, and the cost sees only arc flows. Any per-source solution sums
to a class solution with the same arc flows, buffers and cost. Conversely,
a class flow with supplies at several sources decomposes into paths and
cycles (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 3); assigning
each path to the source it starts from gives per-source flows with the
same arc use. So both models have the same feasible arc flows and the
same optimum, with about 1/sources as many variables and balance rows.

The solved model goes one step further: one commodity per group of
classes sharing (destination, deadline). Every no-deadline class of a
destination has the deadline inf, so those form one group. Once
generated, the units of a group are interchangeable: same sink, same
deadline rows, and weights that belong to states, not to classes. A
group has a supply at each (generation timestamp, source) pair, and its
window starts at its earliest generation. Each later injection
injection(g, v) also bounds its buffer column below, B(g, v) >=
injection(g, v); this is a column bound, not a row. It stands for the
per-class rule that a class has no flow in states up to its generation:
units generated at boundary g must not leave in state g. Without it,
merged traffic could leave in state g on supply that only appears at its
end, and the merged bound would be wrong (a prototype without it flipped
a status and missed soft objectives by up to 97%).

Why the merge loses nothing (the time-expanded-flow argument of Ford &
Fulkerson, "Constructing maximal dynamic flows from static flows", Oper.
Res. 1958, and flow decomposition again): a per-class solution sums to a
merged one with the same arc flows and cost, and it meets the bound,
because the class generated at (g, v) holds exactly its supply there.
Conversely, `solve_lp` splits a merged optimum into its classes by
generation FIFO. State by state, each node splits its outflow once its
inflows in that state are split; each arc, in arc order, takes the
oldest units first. A class's supply joins the stock only after its
generation state's flows, and the bound says the older stock and that
state's inflow cover the outflow, so no class leaves in its own
generation state and no class's stock goes negative. The split has the
merged arc flows, so the same cost, and a class's slack is what it has
not delivered at the horizon. Every per-class row holds: balance by
construction; ddl and fin because no arc leaves the destination, so the
group's stock there only grows, and the group's own ddl and fin rows then
allow no arrival after the deadline and, in a hard model, no unit away
from the destination at the horizon. So the split is feasible for the
per-class model at the merged optimum's cost, and it is an optimum of
that model. `LpProblem.commodities`, solutions, `verify_solution`,
`lp_metrics` and the exports stay per class; a class's delay reads its
own split arrivals. With one class per group the model is the per-class
model, column for column and row for row.

Constraint families (names used in row tags and verifier reports):

* init     -- buffers at the first timestamp hold exactly the supply
              generated there, all other buffers start empty;
* bal      -- buffer recursion: occupancy at a timestamp equals the
              previous occupancy plus inflow minus outflow during the
              state, plus the supply generated at that timestamp;
* bufcap   -- total occupancy at a node never exceeds its storage;
* arccap   -- total flow on an arc never exceeds the contact's per-state
              capacity;
* no-early-send (structural) -- a commodity has no flow variables on arcs
              in states that end at or before its generation time, nor on
              arcs leaving its own destination;
* ddl      -- for deadline traffic, the destination buffer holds the full
              amount at every timestamp from the deadline onward (the
              solved model keeps only the rows not implied, see below);
* fin      -- at the horizon all traffic resides at its destination.

Each model commodity k lives in a window: from its generation timestamp
g_k (a group's earliest) to the last state L_k in which its flow can
matter. The model has flow variables only for states g_k < q <= L_k and
buffer variables only for timestamps g_k..L_k; its init row sits at g_k,
its bal rows cover g_k+1..L_k, and its fin row reads B(L_k). Nothing
outside the window can carry flow at an optimum:

* before g_k no arc may send (no-early-send), so every buffer is zero
  until the supply appears at g_k;
* L_k is the deadline's boundary index for a deadline class, and the
  horizon f otherwise. Flow in a later state arrives too late to count,
  so an optimum never pays for it: in a hard model the class is wholly at
  its destination from the deadline on, and in a soft model without
  finite buffers stranded traffic can stay where it is;
* past L_k the commodity has neither flow nor supply, so a bal row there
  would only copy B(t - 1) into B(t). The model has no such rows or
  columns: a buffer at a timestamp t > L_k is the column of B(L_k), which
  fin, bufcap and the per-class index maps read in its place.

A soft model with a finite buffer keeps the full horizon, L_k = f, for
deadline classes too: stranded traffic of an expired class may have to
move on to free storage another class needs.

Of the ddl rows at the deadline index d_k and after it, the model keeps
at most the first. No arc leaves a destination, so B(t, dst) never
decreases and the row at d_k implies every later one. Where the window
ends at the deadline, L_k = d_k, the fin row on B(L_k) implies that row
too, so a commodity has a ddl row only when its window runs past its
deadline: a deadline class of a soft model with a finite buffer. Leaving
out copies and implied rows is standard presolve (Andersen & Andersen,
"Presolving in linear programming", Math. Prog. 1995); the layout does it
once, so HiGHS never sees them, warm or cold.

A model's layout -- groups, index maps, objective, matrices, the rows
that take the supplies and the columns they bound -- depends on the plan,
the state weights, the soft flag and the class set (each class's
destination, generation time, ttl and source nodes), but not on the
amounts. `build_lp` builds one layout per plan and class set, keeps it on
the plan, and on every call fills only fresh right-hand sides and column
bounds from the supplies. A sweep, whose loads change only the amounts,
so builds each seed's layout once.

`solve_lp` hands the model to HiGHS through the binding scipy bundles
(`scipy.optimize._highspy._core`), with the dual simplex, the setting
`scipy.optimize.linprog` uses, so a cold solve returns the same optimum.
The binding is loaded from its file, not imported by name: an import by
name first runs scipy.optimize's package import, which loads
scipy.linalg, scipy.sparse, scipy.fft and numpy.f2py, about 0.4 s that
the solve never uses. It is registered under its own name, so a later
`import scipy.optimize` shares the very module.
The layout holds the constraints as one column-wise matrix -- int32
column starts and row indices and float64 values, the inequality rows
first, then the equalities, row indices sorted within each column --
together with the row and column bound templates. A cold solve passes
all of it in one call to the binding's array `passModel`, so no entry is
converted one at a time. `LpProblem.a_ub` and `a_eq` are row-wise views
of the same matrix, derived once per layout on first use, which is the
only use of scipy.sparse and imports it; the LP text export reads them.
An `LpSession` keeps the model loaded: a sweep solves one seed's loads
through one session. A problem
built from the loaded layout holds its very objective and matrix;
identity is the whole test, and only such a problem is solved warm, by
passing its new right-hand sides and column bounds. The dual simplex
then restarts from the previous basis, which stays dual feasible
(Huangfu & Hall, "Parallelizing the dual revised simplex method", Math.
Prog. Comp. 2018). Status and objective do not depend on the start, but
when several optima tie, a warm solve may return another one, so the
hops, delay and energy read off it may differ from a cold solve's.

Index maps and solutions are read-only views of arrays in model order:
each index map of an int key array (one (contact_id, state, class) or
(timestamp, node, class) row per key, or one class per slack) and its
column array, and each solver map of the same key array and one value
array, which `solve_lp` gathers from the optimum and `_split` writes each
merged commodity's classes into. A dict is built only when a caller reads
one key. A dict copy of a solution is its editable form.

`verify_solution` independently re-derives every constraint of the
full, unwindowed, per-class model from the raw plan and commodity data,
reading missing variables as zero, so a certified solution never depends
on the solver, the windows, the merge or the split being right. It
checks whole arrays, not the assembled matrix: it reads the solution's
key and value arrays, and of the problem only its index maps' keys,
never the layout's columns or matrices. A solver map, whose key array is
the very array behind the problem's index map, holds exactly the model's
keys; any other mapping, such as one loaded from JSON, is compared key by
key.

The optional soft mode adds one nonnegative drop slack per commodity with
a large penalty (horizon times arc count), turning infeasible instances
into "deliver as much as possible" instances. It is an extension beyond
the hard model and is off by default.
"""

from __future__ import annotations

import csv
import importlib.machinery
import importlib.util
import io
import json
import math
import sys
from bisect import bisect_left
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np
import scipy

from .contact_plan import ContactPlan
from .simulator import Demand, Metrics

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix


def _load_highs():
    """scipy's HiGHS binding, loaded from its file (see the module docstring).

    Registering it in sys.modules, rather than relying on the interpreter's
    extension cache, makes every later import by name, from cgrlab or from
    scipy.optimize, return this very module and `_Highs` type."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(f"cgrlab needs scipy>=1.15, whose {name} binds HiGHS; no such file in {folder}")


highs = _load_highs()

__all__ = [
    "Commodity",
    "LpProblem",
    "LpSolution",
    "Violation",
    "LpSolverError",
    "LpSession",
    "state_weights",
    "demands_to_commodities",
    "build_lp",
    "solve_lp",
    "check_tol",
    "verify_solution",
    "lp_metrics",
    "problem_to_lp_text",
    "solution_flows_csv",
    "solution_to_json",
    "solution_from_json",
]

_EPS = 1e-9
# How far a reported optimum may stray outside its variable and row bounds
# before it is rejected as a numerical failure: the acceptance tolerance
# scipy's linprog applies to HiGHS results (10 * sqrt(1e-9)).
_ACCEPT_TOL = 10 * math.sqrt(1e-9)


class LpSolverError(RuntimeError):
    """The backend failed numerically; surfaced instead of a wrong answer."""


@dataclass(frozen=True)
class Commodity:
    """One traffic class: packets to dst, generated at t_gen, to be
    delivered within ttl seconds (math.inf = no deadline).

    `supply` holds (source node, amount) pairs, one per source, sorted by
    node. Packets of one class are interchangeable, so the class is a
    single commodity however many sources feed it; a per-source model is
    the special case of one-source classes.
    """

    dst: int
    t_gen: float
    ttl: float
    supply: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "supply", tuple(sorted(self.supply)))
        sources = [v for v, _ in self.supply]
        if not sources:
            raise ValueError("commodity needs at least one source")
        if len(set(sources)) != len(sources):
            raise ValueError(f"commodity lists a source twice: {sources}")
        if self.dst in sources:
            raise ValueError("commodity source and destination must differ")
        for v, amount in self.supply:
            if amount < 0:
                raise ValueError(f"commodity amount must be >= 0, got {amount} at node {v}")
        if not self.ttl >= 0:
            raise ValueError(f"commodity ttl must be >= 0, got {self.ttl}")

    @property
    def amount(self) -> float:
        """Total packets in the class, over all its sources."""
        return sum(amount for _, amount in self.supply)

    @property
    def deadline(self) -> float:
        return self.t_gen + self.ttl


class _Keyed(Mapping):
    """A read-only dict over a key array and a value array, in model order.

    The keys are the rows of an (n, 3) int64 array, as tuples, or the
    entries of an (n,) one. Both arrays are frozen. Iteration, len,
    values() and items() read the arrays; the first per-key read (`[]`,
    `in`, `get`) builds a dict once. A set or delete raises TypeError.
    """

    __slots__ = ("_keys", "_values", "_dict")

    def __init__(self, keys: np.ndarray, values: np.ndarray):
        keys.flags.writeable = values.flags.writeable = False
        self._keys, self._values = keys, values
        self._dict: dict | None = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._keys, self._values

    def _key_list(self) -> list:
        keys = self._keys.tolist()
        return list(map(tuple, keys)) if self._keys.ndim == 2 else keys

    def __getitem__(self, key):
        if self._dict is None:
            self._dict = dict(zip(self._key_list(), self._values.tolist()))
        return self._dict[key]

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._key_list())

    def values(self) -> ValuesView:
        return _KeyedValues(self)

    def items(self) -> ItemsView:
        return _KeyedItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _KeyedValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._values.tolist())


class _KeyedItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping._key_list(), self._mapping._values.tolist())


@dataclass(eq=False)
class LpProblem:
    """Assembled model: variable index maps, sparse rows, and row tags.

    The solved model has one commodity per group of classes sharing
    (dst, deadline); `groups[m]` lists the classes of model commodity m,
    numbered in the order of their first class. Its columns are flows X
    (arc-major, then model commodity), buffers B (timestamp, node, model
    commodity), then one slack per model commodity in soft mode; `objective`,
    the matrices, `col_lower` and `n_vars` describe them, and the names use
    k for the model commodity. The index maps are keyed per class, as a
    solution is: flows by (contact_id, state, class), buffers by (timestamp
    index, node, class), slacks by class, each mapping to the column that
    carries that class's variable, which the classes of one group share.
    Buffer keys past the group's window end share its window-end column
    (see the module docstring). With one class per group, model
    commodities are the classes.

    Each index map is a read-only view of an int key array and a column
    array, in model order, that builds a dict on its first key read. Any
    mapping keyed the same way may stand in for it (the tests widen the
    maps with `dataclasses.replace`).

    The index maps, objective and matrices are shared, read-only, by every
    problem built on the same plan with the same weights, soft flag and
    class set; b_eq, b_ub and col_lower are the problem's own. `a_eq` and
    `a_ub` are row-wise views of the layout's one column-wise matrix,
    derived once per layout on first use. The variable and row names are
    worked out on first use; only the LP text export reads them.
    """

    plan: ContactPlan
    commodities: tuple[Commodity, ...]
    groups: tuple[tuple[int, ...], ...]
    soft: bool
    x_index: Mapping[tuple[int, int, int], int]
    b_index: Mapping[tuple[int, int, int], int]
    slack_index: Mapping[int, int]
    b_eq: np.ndarray
    b_ub: np.ndarray
    col_lower: np.ndarray
    _layout: _Layout

    @property
    def objective(self) -> np.ndarray:
        return self._layout.objective

    @property
    def a_eq(self) -> csr_matrix | None:
        return self._layout.row_blocks[1]

    @property
    def a_ub(self) -> csr_matrix | None:
        return self._layout.row_blocks[0]

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @cached_property
    def var_names(self) -> list[str]:
        # Every column carries its group's oldest class, so every column
        # gets a name.
        group = {k: m for m, ks in enumerate(self.groups) for k in ks}
        names: dict[int, str] = {}
        for (cid, q, k), col in self.x_index.items():
            names.setdefault(col, f"X_c{cid}_s{q}_k{group[k]}")
        for (t, v, k), col in self.b_index.items():
            names.setdefault(col, f"B_t{t}_n{v}_k{group[k]}")
        for k, col in self.slack_index.items():
            names.setdefault(col, f"S_k{group[k]}")
        return [names[col] for col in range(self.n_vars)]

    @cached_property
    def eq_names(self) -> list[str]:
        node_ids = sorted(self.plan.node_ids)
        _, last = _window_ends(self.plan, self.commodities, self.groups, self.soft)
        names = []
        for m, ks in enumerate(self.groups):
            gen = min(_generation_index(self.plan, self.commodities[k]) for k in ks)
            names += [f"init_n{v}_k{m}" for v in node_ids]
            names += [f"bal_t{t}_n{v}_k{m}" for t in range(gen + 1, last[m] + 1) for v in node_ids]
            names += [f"fin_k{m}"] if self.soft else [f"fin_n{v}_k{m}" for v in node_ids]
        return names

    @cached_property
    def ub_names(self) -> list[str]:
        f = self.plan.grid.state_count
        dl, last = _window_ends(self.plan, self.commodities, self.groups, self.soft)
        names = [f"ddl_t{dl[m]}_k{m}" for m in np.flatnonzero(dl < last).tolist()]
        capped = dict.fromkeys((cid, q) for cid, q, _ in self.x_index)
        names += [f"arccap_c{cid}_s{q}" for cid, q in capped]
        if self.commodities:
            for spec in self.plan.nodes:
                if not math.isinf(spec.buffer_capacity):
                    names += [f"bufcap_t{t}_n{spec.node_id}" for t in range(f + 1)]
        return names


@dataclass
class LpSolution:
    """Solver output: variable values keyed like the problem's index maps.

    `solve_lp` fills the three maps as read-only views of the layout's key
    arrays and fresh value arrays, in model order. Any other mapping keyed
    the same way works the same; a dict copy, such as `solution_from_json`
    builds or `dataclasses.replace(s, x_flows=dict(s.x_flows))` makes, is
    the editable form.
    """

    status: str  # "optimal" | "infeasible"
    objective: float | None
    x_flows: Mapping[tuple[int, int, int], float] = field(default_factory=dict)
    buffers: Mapping[tuple[int, int, int], float] = field(default_factory=dict)
    slacks: Mapping[int, float] = field(default_factory=dict)

    def total_flow(self) -> float:
        return sum(self.x_flows.values())


@dataclass(frozen=True)
class Violation:
    """One constraint violated beyond tolerance."""

    constraint: str
    location: str
    amount: float

    def __str__(self) -> str:
        return f"{self.constraint} at {self.location}: off by {self.amount:.3e}"


def state_weights(exponent: float, state_count: int) -> tuple[float, ...]:
    """The objective weight q ** exponent of each state q = 1..state_count.

    Raises ValueError unless the exponent is positive and the weights are
    finite and strictly increasing: a large exponent overflows, and a tiny
    one makes neighbouring weights round to the same float.
    """
    try:
        ws = tuple(float(q) ** exponent for q in range(1, state_count + 1))
        if exponent > 0 and all(a < b for a, b in zip(ws, ws[1:])) and math.isfinite(ws[-1]):
            return ws
    except OverflowError:
        pass
    raise ValueError(
        f"weight exponent {exponent} does not give finite, strictly increasing "
        f"weights over {state_count} states"
    )


def demands_to_commodities(demands: list[Demand]) -> list[Commodity]:
    """Group demands into one commodity per (dst, t_gen, ttl) class.

    Demands sharing (src, dst, t_gen, ttl) merge into one supply entry,
    summing amounts. Classes are ordered by their first member in
    (src, dst, t_gen, ttl) order.
    """
    merged: dict[tuple[int, int, float, float], float] = {}
    for d in demands:
        key = (d.src, d.dst, d.t_gen, d.ttl)
        merged[key] = merged.get(key, 0.0) + d.count
    classes: dict[tuple[int, float, float], list[tuple[int, float]]] = {}
    for (src, dst, t_gen, ttl), amount in sorted(merged.items()):
        classes.setdefault((dst, t_gen, ttl), []).append((src, amount))
    return [
        Commodity(dst, t_gen, ttl, tuple(supply))
        for (dst, t_gen, ttl), supply in classes.items()
    ]


def _generation_index(plan: ContactPlan, com: Commodity) -> int:
    idx = plan.grid.boundary_index(com.t_gen)
    if idx is None or idx >= plan.grid.state_count:
        raise ValueError(
            f"commodity t_gen {com.t_gen} is not a state start within the horizon"
        )
    return idx


def _deadline_index(plan: ContactPlan, com: Commodity) -> int | None:
    """Timestamp index of the last grid boundary at or before the deadline,
    or None when the commodity has no deadline."""
    if math.isinf(com.ttl):
        return None
    return plan.grid.floor_boundary_index(com.deadline)


def _window_ends(
    plan: ContactPlan, coms: tuple[Commodity, ...], groups: tuple[tuple[int, ...], ...], soft: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(dl, last) per model commodity: its deadline index, f + 1 standing in
    for "no deadline", and its window end L. The window ends at the
    deadline only where the module docstring shows that loses nothing."""
    f = plan.grid.state_count
    deadlines = [_deadline_index(plan, coms[ks[0]]) for ks in groups]
    dl = np.array([f + 1 if d is None else d for d in deadlines], dtype=np.int64)
    cut = not soft or all(math.isinf(spec.buffer_capacity) for spec in plan.nodes)
    return dl, np.minimum(dl, f) if cut else np.full(len(groups), f, dtype=np.int64)


@dataclass(frozen=True)
class _Merge:
    """What `solve_lp` needs to split one model commodity's optimum back
    into its classes (see the module docstring); only groups of two or more
    classes have one. Node indices are positions in sorted node order."""

    classes: tuple[int, ...]  # oldest generation first, ties by class index
    gens: tuple[int, ...]  # their generation timestamps
    sources: tuple[tuple[int, ...], ...]  # each class's source nodes, in supply order
    dst: int
    # state -> (column, from, to) of each flow column, in arc order
    arcs: Mapping[int, tuple[tuple[int, int, int], ...]]
    x_pos: np.ndarray  # the classes' flow keys, as positions in x_index's key array
    x_cells: np.ndarray  # column * len(classes) + class position of each flow key
    b_pos: np.ndarray  # the classes' buffer keys, as positions in b_index's key array
    b_cells: np.ndarray  # ((t - gens[0]) * nodes + node) * len(classes) + class position


@dataclass(frozen=True)
class _Layout:
    """The part of a model fixed by the plan, the weights, the soft flag and
    the class set (each class's dst, t_gen, ttl and source nodes): index
    maps, objective, the constraint matrix, and where the supplies go in the
    right-hand sides and column bounds. Its arrays are read-only, since
    every problem built from it shares them.

    The matrix is held column-wise, as HiGHS takes it: rows a_ub then a_eq,
    row indices sorted within each column. `a_ub` and `a_eq` are row-wise
    views of it, derived on first use."""

    groups: tuple[tuple[int, ...], ...]
    group_of: np.ndarray  # the model commodity of each class
    # Each index map holds its keys, in model order, and their columns:
    # flows by (contact_id, state, class) rows, buffers by (timestamp, node,
    # class) rows, slacks by class.
    x_index: _Keyed
    b_index: _Keyed
    slack_index: _Keyed
    objective: np.ndarray
    n_ub: int
    n_eq: int
    start: np.ndarray  # int32 column starts into index and value
    index: np.ndarray  # int32 row of each entry
    value: np.ndarray
    row_lower: np.ndarray  # -inf on a_ub rows, 0 on a_eq rows (filled per problem)
    col_upper: np.ndarray
    integrality: np.ndarray  # int32, all continuous
    supply_rows: np.ndarray  # the init or bal row of each (class, source), in supply order
    bounded: np.ndarray  # the (class, source) entries generated after their group's first
    bound_cols: np.ndarray  # the buffer column each bounded entry bounds below
    fin_rows: np.ndarray  # the row holding each model commodity's amount in fin
    ddl_groups: np.ndarray  # the model commodity of each ddl row; ddl rows come first in b_ub
    b_ub: np.ndarray  # arccap and bufcap bounds, ddl rows left at zero
    merges: tuple[_Merge, ...]

    @cached_property
    def row_blocks(self) -> tuple[csr_matrix | None, csr_matrix | None]:
        """(a_ub, a_eq): the matrix's row blocks, None when a block is empty."""
        from scipy.sparse import csc_matrix

        full = csc_matrix(
            (self.value, self.index, self.start), shape=(self.n_ub + self.n_eq, len(self.objective))
        ).tocsr()
        blocks = (full[: self.n_ub] if self.n_ub else None, full[self.n_ub :] if self.n_eq else None)
        for block in blocks:
            if block is not None:
                for part in (block.data, block.indices, block.indptr):
                    part.flags.writeable = False
        return blocks


def build_lp(
    plan: ContactPlan,
    commodities: list[Commodity],
    weight_exponent: float = 1.0,
    soft: bool = False,
) -> LpProblem:
    """Assemble the flow model for a plan and commodity set.

    Classes sharing (dst, deadline) become one model commodity, and flow
    variables are created only where it may actually send: arcs in states
    of its window (see the module docstring) and not leaving its
    destination. A flow in state q costs q ** weight_exponent. Raises
    ValueError for nodes the plan does not declare (in a commodity or a
    contact), generation times off the grid or at/after the horizon, and
    exponents `state_weights` rejects.

    Everything but the supplies is the model's layout (`_build_layout`),
    built once per weight sequence, soft flag and class set and kept on
    the plan (see the module docstring); each call fills fresh right-hand
    sides and column bounds. Problems from one layout share its read-only
    index maps, objective and matrices.
    """
    ws = state_weights(weight_exponent, plan.grid.state_count)
    coms = tuple(commodities)
    key = (ws, soft, tuple((com.dst, com.t_gen, com.ttl, tuple(v for v, _ in com.supply))
                           for com in coms))
    layout = plan._lp_layouts.get(key)
    if layout is None:
        layout = plan._lp_layouts[key] = _build_layout(plan, coms, ws, soft)

    supply = np.array([a for com in coms for _, a in com.supply], dtype=np.float64)
    amount = np.array([com.amount for com in coms], dtype=np.float64)
    carried = np.bincount(layout.group_of, weights=amount, minlength=len(layout.groups))
    b_eq = np.zeros(layout.n_eq)
    np.add.at(b_eq, layout.supply_rows, supply)
    b_eq[layout.fin_rows] = carried
    b_ub = layout.b_ub.copy()
    b_ub[: len(layout.ddl_groups)] = -carried[layout.ddl_groups]
    col_lower = np.zeros(len(layout.objective))
    np.add.at(col_lower, layout.bound_cols, supply[layout.bounded])
    return LpProblem(
        plan=plan,
        commodities=coms,
        groups=layout.groups,
        soft=soft,
        x_index=layout.x_index,
        b_index=layout.b_index,
        slack_index=layout.slack_index,
        b_eq=b_eq,
        b_ub=b_ub,
        col_lower=col_lower,
        _layout=layout,
    )


def _build_layout(
    plan: ContactPlan, coms: tuple[Commodity, ...], ws: tuple[float, ...], soft: bool
) -> _Layout:
    """The model's layout for `build_lp`, from integer arc x commodity arrays.

    Model commodities are the (dst, deadline) groups of classes, numbered
    by their first class; a group's generation timestamp is its earliest
    class's. Columns are numbered X (arc-major, then model commodity), then
    B (timestamp, node, model commodity, over the commodity's window), then
    one slack per model commodity in soft mode. Equality rows run per model
    commodity: init at its generation timestamp and bal after it to its
    window end, one row per (timestamp, node), then fin. Inequality rows
    are ddl per model commodity whose window runs past its deadline, then
    arccap per arc with at least one flow variable, then bufcap per
    finite-buffer node and timestamp. The matrix stacks the inequality
    rows, then the equality rows. The index maps key every class's window
    into these columns, a buffer past the window end into the window-end
    column.
    """
    grid = plan.grid
    f = grid.state_count
    known = plan.node_ids
    node_ids = sorted(known)
    node_arr = np.array(node_ids, dtype=np.int64)
    cols = plan.columns
    if not known.issuperset(np.unique(np.concatenate((cols.from_node, cols.to_node))).tolist()):
        cid = next(cid for cid, v, w in zip(*(a.tolist() for a in cols[:3]))
                   if v not in known or w not in known)
        raise ValueError(f"contact {cid} references an undeclared node")
    gen_idx = []
    for com in coms:
        if com.dst not in known or any(v not in known for v, _ in com.supply):
            raise ValueError(f"commodity references unknown node: {com}")
        gen_idx.append(_generation_index(plan, com))

    n_nodes, n_coms = len(node_ids), len(coms)
    pos = {v: i for i, v in enumerate(node_ids)}
    arcs = plan.arcs

    by_key: dict[tuple[int, float], list[int]] = {}
    for k, com in enumerate(coms):
        by_key.setdefault((com.dst, com.deadline), []).append(k)
    groups = tuple(tuple(ks) for ks in by_key.values())
    n_grp = len(groups)
    group_of = np.zeros(n_coms, dtype=np.int64)
    for m, ks in enumerate(groups):
        group_of[list(ks)] = m
    cls_gen = np.array(gen_idx, dtype=np.int64)

    arc_state, arc_cid = arcs.state, arcs.contact_id
    arc_from = np.searchsorted(node_arr, arcs.from_node)
    arc_to = np.searchsorted(node_arr, arcs.to_node)
    gen = np.array([min(gen_idx[k] for k in ks) for ks in groups], dtype=np.int64)
    dst = np.array([pos[coms[ks[0]].dst] for ks in groups], dtype=np.int64)

    dl, last = _window_ends(plan, coms, groups, soft)

    # A model commodity sends on an arc in a state of its window, unless
    # the arc leaves its destination.
    sends = (
        (arc_state[:, None] > gen[None, :])
        & (arc_state[:, None] <= last[None, :])
        & (arc_from[:, None] != dst[None, :])
    )
    x_arc, x_com = np.nonzero(sends)
    x_state = arc_state[x_arc]
    n_x = len(x_arc)
    x_cols = np.full(sends.shape, -1, dtype=np.int64)
    x_cols[x_arc, x_com] = np.arange(n_x)

    # Buffer columns for every (timestamp, node, model commodity) with the
    # timestamp in the commodity's window, gen..last; a later timestamp
    # reads the window-end column, and an earlier one -1.
    stamps = np.arange(f + 1)[:, None]
    live = stamps >= gen[None, :]
    b_live = np.broadcast_to((live & (stamps <= last))[:, None, :], (f + 1, n_nodes, n_grp))
    bt, bv, bk = np.nonzero(b_live)
    s_base = n_x + len(bt)
    b_cols = np.full(b_live.shape, -1, dtype=np.int64)
    b_cols[bt, bv, bk] = np.arange(n_x, s_base)
    b_cols = np.take_along_axis(b_cols, np.minimum(stamps, last)[:, None, :], axis=0)
    n_vars = s_base + (n_grp if soft else 0)

    big_m = grid.horizon * max(1, len(arc_state))
    objective = np.zeros(n_vars)
    objective[:n_x] = np.asarray(ws)[x_state - 1]
    objective[s_base:] = big_m

    # Equality rows: model commodity m owns rows from first[m] on, with the
    # init (t = gen) and bal (gen < t <= last) row of (t, node v) at
    # first[m] + (t - gen) * n_nodes + v, then its fin rows.
    n_fin = 1 if soft else n_nodes
    per_com = (last + 1 - gen) * n_nodes + n_fin
    first = np.cumsum(per_com) - per_com
    ms = np.arange(n_grp)
    eq: list[tuple[np.ndarray, np.ndarray, float]] = []
    bal_row = first[bk] + (bt - gen[bk]) * n_nodes + bv
    eq.append((bal_row, b_cols[bt, bv, bk], 1.0))
    later = bt > gen[bk]
    eq.append((bal_row[later], b_cols[bt[later] - 1, bv[later], bk[later]], -1.0))
    x_row = first[x_com] + (x_state - gen[x_com]) * n_nodes
    eq.append((x_row + arc_to[x_arc], np.arange(n_x), -1.0))
    eq.append((x_row + arc_from[x_arc], np.arange(n_x), 1.0))
    fin_row = first + (last + 1 - gen) * n_nodes
    if soft:
        eq.append((fin_row, b_cols[f, dst, ms], 1.0))
        eq.append((fin_row, s_base + ms, 1.0))
    else:
        fm, fv = (a.ravel() for a in np.indices((n_grp, n_nodes)))
        eq.append((fin_row[fm] + fv, b_cols[f, fv, fm], 1.0))
    n_eq = int(per_com.sum())

    # Each (class, source) supply enters the row of its generation
    # timestamp; one generated after its group's first also bounds that
    # buffer column below, so it cannot leave in its generation state.
    sup_com = np.array([k for k, com in enumerate(coms) for _ in com.supply], dtype=np.int64)
    sup_node = np.array([pos[v] for com in coms for v, _ in com.supply], dtype=np.int64)
    sup_grp, sup_t = group_of[sup_com], cls_gen[sup_com]
    bounded = np.flatnonzero(sup_t > gen[sup_grp])

    # Inequality rows: one ddl row, at the deadline index, for each model
    # commodity whose window runs past it, since the module docstring
    # shows every other ddl row implied; then arccap, then bufcap.
    ub: list[tuple[np.ndarray, np.ndarray, float]] = []
    ddl_com = np.flatnonzero(dl < last)
    ddl_row = np.arange(len(ddl_com))
    ub.append((ddl_row, b_cols[dl[ddl_com], dst[ddl_com], ddl_com], -1.0))
    if soft:
        ub.append((ddl_row, s_base + ddl_com, -1.0))
    ub_rhs = [np.zeros(len(ddl_row))]
    n_ub = len(ddl_row)

    capped = sends.any(axis=1)
    arccap_row = n_ub + np.cumsum(capped) - 1
    ub.append((arccap_row[x_arc], np.arange(n_x), 1.0))
    ub_rhs.append(arcs.capacity[capped].astype(np.float64))
    n_ub += int(capped.sum())

    if coms:
        lt, lm = np.nonzero(live)
        for spec in plan.nodes:
            if math.isinf(spec.buffer_capacity):
                continue
            ub.append((n_ub + lt, b_cols[lt, pos[spec.node_id], lm], 1.0))
            ub_rhs.append(np.full(f + 1, spec.buffer_capacity))
            n_ub += f + 1

    # Each class's variables: its own window inside its group's columns.
    cls_sends = sends[:, group_of] & (arc_state[:, None] > cls_gen[None, :])
    xa, xk = np.nonzero(cls_sends)
    x_keys = np.stack((arc_cid[xa], arc_state[xa], xk), axis=1)
    cls_live = np.arange(f + 1)[:, None] >= cls_gen[None, :]
    ct, cv, ck = np.nonzero(np.broadcast_to(cls_live[:, None, :], (f + 1, n_nodes, n_coms)))
    b_keys = np.stack((ct, np.array(node_ids, dtype=np.int64)[cv], ck), axis=1)
    merges = []
    for m, ks in enumerate(groups):
        if len(ks) == 1:
            continue
        classes = sorted(ks, key=lambda k: (gen_idx[k], k))
        n = len(classes)
        rank = np.zeros(n_coms, dtype=np.int64)
        rank[classes] = np.arange(n)
        mine = x_arc[x_com == m]
        by_state: dict[int, list[tuple[int, int, int]]] = {}
        for q, entry in zip(arc_state[mine].tolist(), zip(
            x_cols[mine, m].tolist(), arc_from[mine].tolist(), arc_to[mine].tolist()
        )):
            by_state.setdefault(q, []).append(entry)
        xs = np.flatnonzero(group_of[xk] == m)
        bs = np.flatnonzero(group_of[ck] == m)
        merges.append(_Merge(
            classes=tuple(classes),
            gens=tuple(gen_idx[k] for k in classes),
            sources=tuple(tuple(pos[v] for v, _ in coms[k].supply) for k in classes),
            dst=int(dst[m]),
            arcs=MappingProxyType({q: tuple(entries) for q, entries in by_state.items()}),
            x_pos=xs,
            x_cells=x_cols[xa[xs], m] * n + rank[xk[xs]],
            b_pos=bs,
            b_cells=((ct[bs] - gen[m]) * n_nodes + cv[bs]) * n + rank[ck[bs]],
        ))

    x_at = x_cols[xa, group_of[xk]]
    b_at = b_cols[ct, cv, group_of[ck]]
    s_keys = np.arange(n_coms if soft else 0)
    s_at = s_base + group_of if soft else np.zeros(0, dtype=np.int64)
    start, index, value = _columns(ub + [(r + n_ub, c, v) for r, c, v in eq], n_ub + n_eq, n_vars)
    layout = _Layout(
        groups=groups,
        group_of=group_of,
        x_index=_Keyed(x_keys, x_at),
        b_index=_Keyed(b_keys, b_at),
        slack_index=_Keyed(s_keys, s_at),
        objective=objective,
        n_ub=n_ub,
        n_eq=n_eq,
        start=start,
        index=index,
        value=value,
        row_lower=np.concatenate((np.full(n_ub, -highs.kHighsInf), np.zeros(n_eq))),
        col_upper=np.full(n_vars, highs.kHighsInf),
        integrality=np.zeros(n_vars, dtype=np.int32),
        supply_rows=first[sup_grp] + (sup_t - gen[sup_grp]) * n_nodes + sup_node,
        bounded=bounded,
        bound_cols=b_cols[sup_t[bounded], sup_node[bounded], sup_grp[bounded]],
        fin_rows=fin_row + (0 if soft else dst),
        ddl_groups=ddl_com,
        b_ub=np.concatenate(ub_rhs),
        merges=tuple(merges),
    )
    for array in (layout.group_of, layout.objective, layout.start, layout.index,
                  layout.value, layout.row_lower, layout.col_upper, layout.integrality,
                  layout.supply_rows, layout.bounded, layout.bound_cols, layout.fin_rows,
                  layout.ddl_groups, layout.b_ub,
                  *(a for merge in merges
                    for a in (merge.x_pos, merge.x_cells, merge.b_pos, merge.b_cells))):
        array.flags.writeable = False
    return layout


def _columns(
    blocks: list[tuple[np.ndarray, np.ndarray, float]], n_rows: int, n_vars: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column-wise matrix (int32 start, int32 index, value) of the
    (row indices, column indices, coefficient) blocks: row indices sorted
    within each column, and entries at one (row, column) summed into one,
    as scipy's sparse formats hold them."""
    span = max(n_rows, 1)
    cell = np.concatenate([cols * span + rows for rows, cols, _ in blocks])
    value = np.concatenate([np.full(len(rows), coef) for rows, _, coef in blocks])
    order = np.argsort(cell, kind="stable")
    cell, value = cell[order], value[order]
    first = np.flatnonzero(np.diff(cell, prepend=-1))
    if len(first) < len(cell):
        cell, value = cell[first], np.add.reduceat(value, first)
    start = np.zeros(n_vars + 1, dtype=np.int32)
    np.cumsum(np.bincount(cell // span, minlength=n_vars), out=start[1:])
    return start, (cell % span).astype(np.int32), value


class LpSession:
    """One HiGHS model kept across solves of problems that differ only in
    their right-hand sides.

    A problem built from the layout last loaded, whose objective and matrix
    it holds, is solved warm: only the changed row and column bounds are
    passed, and the dual simplex restarts from the last basis, which a
    change of right-hand sides and bounds leaves dual feasible. Any other
    problem is loaded into a fresh solver and solved cold.
    """

    def __init__(self):
        self._highs = None
        self._layout = None  # the layout whose objective and matrix are loaded
        self._row_lower = self._row_upper = self._col_lower = None

    def _load(self, problem: LpProblem):
        """The solver holding `problem`, warm when it comes from the loaded
        layout."""
        layout = problem._layout
        lower = layout.row_lower.copy()
        lower[layout.n_ub :] = problem.b_eq
        upper = np.concatenate((problem.b_ub, problem.b_eq))
        if layout is self._layout:
            changed = np.flatnonzero((lower != self._row_lower) | (upper != self._row_upper))
            for row in changed.tolist():
                self._highs.changeRowBounds(row, lower[row], upper[row])
            changed = np.flatnonzero(problem.col_lower != self._col_lower)
            for col in changed.tolist():
                self._highs.changeColBounds(col, problem.col_lower[col], highs.kHighsInf)
        else:
            self._highs = _cold_solver(layout, problem.col_lower, lower, upper)
            self._layout = layout
        self._row_lower, self._row_upper = lower, upper
        self._col_lower = problem.col_lower
        return self._highs


def _cold_solver(layout: _Layout, col_lower: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """A new HiGHS instance loaded, in one call, with the layout's objective
    and column-wise matrix, the column lower bounds and the row bounds."""
    solver = highs._Highs()
    solver.setOptionValue("output_flag", False)
    dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    solver.setOptionValue("simplex_strategy", dual)
    status = solver.passModel(
        len(layout.objective), len(lower), len(layout.value),
        highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        layout.objective, col_lower, layout.col_upper, lower, upper,
        layout.start, layout.index, layout.value, layout.integrality,
    )
    if status == highs.HighsStatus.kError:
        raise LpSolverError("solver rejected the model")
    return solver


def _within_bounds(
    x, rows, row_lower: np.ndarray, row_upper: np.ndarray, col_lower: np.ndarray | float = 0.0
) -> bool:
    """Whether x >= col_lower and every row activity lies within its
    bounds, to _ACCEPT_TOL; NaN fails."""
    x, rows = np.asarray(x), np.asarray(rows)
    return bool(
        np.all(x >= col_lower - _ACCEPT_TOL)
        and np.all((rows >= row_lower - _ACCEPT_TOL) & (rows <= row_upper + _ACCEPT_TOL))
    )


def solve_lp(problem: LpProblem, session: LpSession | None = None) -> LpSolution:
    """Solve the assembled model with HiGHS.

    With a session, the model stays loaded and a later problem that
    differs only in right-hand sides and column bounds is solved warm.
    Returns an optimal solution, keyed per class (a merged commodity's
    optimum is split back into its classes, see `_split`), or an explicit
    infeasible status; any other solver outcome, or an optimum outside its
    bounds by more than _ACCEPT_TOL, raises LpSolverError.
    """
    if problem.n_vars == 0:
        return LpSolution(status="optimal", objective=0.0)
    session = LpSession() if session is None else session
    solver = session._load(problem)
    solver.run()
    status = solver.getModelStatus()
    if status == highs.HighsModelStatus.kInfeasible:
        return LpSolution(status="infeasible", objective=None)
    if status != highs.HighsModelStatus.kOptimal:
        raise LpSolverError(f"solver failure: {solver.modelStatusToString(status)}")
    result = solver.getSolution()
    x = result.col_value
    values = np.asarray(x)
    if not _within_bounds(
        values, result.row_value, session._row_lower, session._row_upper, problem.col_lower
    ):
        raise LpSolverError(
            f"solver reported an optimum outside the bounds by more than {_ACCEPT_TOL:.2e}"
        )
    layout = problem._layout
    keys, cols = zip(*(index.arrays() for index in (layout.x_index, layout.b_index,
                                                    layout.slack_index)))
    flows, buffers, slacks = (values[c] for c in cols)
    for merge in layout.merges:
        _split(problem, merge, x, flows, buffers, slacks)
    return LpSolution(
        status="optimal",
        objective=solver.getInfo().objective_function_value,
        x_flows=_Keyed(keys[0], flows),
        buffers=_Keyed(keys[1], buffers),
        slacks=_Keyed(keys[2], slacks),
    )


def _split(
    problem: LpProblem,
    merge: _Merge,
    x: list[float],
    x_flows: np.ndarray,
    buffers: np.ndarray,
    slacks: np.ndarray,
) -> None:
    """Overwrite the merged commodity's values, at its positions in the
    layout's key arrays, with its per-class flows, buffers and slacks,
    split by generation FIFO.

    State by state from the group's generation, each node's stock is kept
    per class. A node splits its outflow in a state once all its inflows
    of that state are split, in arc order: each arc takes the oldest stock
    first, and the youngest class that may move in that state (generated
    before it) takes whatever the stock lacks, which is solver noise only,
    since the injection bounds keep the merged stock from running short.
    A class's supply joins the stock after its generation state's flows,
    so it never leaves in that state. Flows below zero are solver noise
    and stay unsplit at zero.
    """
    coms = problem.commodities
    n_nodes, n = len(problem.plan.node_ids), len(merge.classes)
    inject: dict[int, list[tuple[int, int, float]]] = {}
    for c, k in enumerate(merge.classes):
        for v, (_, amount) in zip(merge.sources[c], coms[k].supply):
            inject.setdefault(merge.gens[c], []).append((c, v, amount))
    flows = np.zeros(len(x) * n)
    stock = [[0.0] * n for _ in range(n_nodes)]
    held = []
    for t in range(merge.gens[0], problem.plan.grid.state_count + 1):
        live = bisect_left(merge.gens, t)  # the classes generated before t
        out: dict[int, list[tuple[int, float, int]]] = {}
        waiting = [0] * n_nodes  # unsplit inflows of each node in state t
        for col, v, w in merge.arcs.get(t, ()):
            if x[col] > 0.0:
                out.setdefault(v, []).append((col, x[col], w))
                waiting[w] += 1
        ready = [v for v in out if not waiting[v]]
        while out:
            # An optimum carries no cycle of flow within a state (cancelling
            # it keeps every row and lowers the cost), so `ready` runs dry
            # only on a cycle of solver noise; splitting its lowest node
            # first errs by that noise.
            v = ready.pop() if ready else min(out)
            pool = stock[v]
            for col, value, w in out.pop(v):
                c = 0
                while value > 0.0:
                    take = value if c == live - 1 else min(value, max(pool[c], 0.0))
                    flows[col * n + c] = take
                    pool[c] -= take
                    stock[w][c] += take
                    value -= take
                    c += 1
                waiting[w] -= 1
                if not waiting[w] and w in out:
                    ready.append(w)
        for c, v, amount in inject.get(t, ()):
            stock[v][c] += amount
        held.append([list(at_node) for at_node in stock])
    x_flows[merge.x_pos] = flows[merge.x_cells]
    buffers[merge.b_pos] = np.ravel(held)[merge.b_cells]
    if problem.soft:
        # A slack's position in slack_index's key array is its class.
        for c, k in enumerate(merge.classes):
            slacks[k] = coms[k].amount - stock[merge.dst][c]


def _arrays(values: Mapping) -> tuple[np.ndarray, np.ndarray] | None:
    """The key and value arrays behind a solver or index map, else None."""
    return values.arrays() if isinstance(values, _Keyed) else None


def _key_value_arrays(values: Mapping, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, values) of a solution map, in its order: an (n, width) key
    array for tuple keys, or an (n,) one for width 1. They are the arrays
    behind a solver map, or else read from the mapping."""
    arrays = _arrays(values)
    if arrays is not None:
        return arrays
    n = len(values)
    keys = np.fromiter(chain.from_iterable(values) if width > 1 else values, dtype=np.int64,
                       count=width * n)
    return (keys.reshape(n, width) if width > 1 else keys,
            np.fromiter(values.values(), dtype=np.float64, count=n))


def _keys_within(values: Mapping, index: Mapping) -> bool:
    """Whether every key of a solution map is a key of the index map. A
    solver map whose key array is the index map's own holds exactly its
    keys; any other mapping is compared key by key."""
    mine, theirs = _arrays(values), _arrays(index)
    if mine is not None and theirs is not None and mine[0] is theirs[0]:
        return True
    return values.keys() <= index.keys()


def check_tol(tol: float) -> None:
    """Raise ValueError unless tol is a finite number >= 0: every check
    of `verify_solution` is `residual > tol`, which a NaN or infinite tol
    never fails and a negative one fails on exact values."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def verify_solution(
    problem: LpProblem, solution: LpSolution, tol: float = 1e-6
) -> list[Violation]:
    """Re-check every constraint of the full model directly from the plan
    and commodities, independently of the assembled rows.

    The full model has every arc x state x class and every timestamp;
    variables the solution does not hold read as zero. The checks read
    only the plan's arcs, nodes and grid and each class's generation,
    deadline and supplies; of the problem, only its index maps' keys, to
    reject a solution with variables the model does not have.

    Flows and buffers are scattered into dense (class, timestamp, node)
    arrays, and every family is checked on whole arrays: signs and the
    structural rules per flow, then init, bal, ddl and fin per class, then
    arccap per arc and bufcap per finite-buffer node and timestamp. Each
    (state, node, class) net inflow and each arc's load add the flows up in
    the solution's order, so the residuals are those of a check written
    one row at a time.

    Returns one Violation per constraint off by more than tol, in that
    family order, by flow for the per-flow checks and by class, then
    timestamp, then node for the rows; an empty list certifies the
    solution. A solution holding a NaN or infinite value gets one
    "finite" violation per such value instead, and nothing else: every
    check is a comparison, and a comparison with NaN is false. Raises
    ValueError for a tol that is not a finite number >= 0 (`check_tol`),
    and on status or shape mismatches (unknown variable keys, or flows on
    a contact in a state it does not cover).
    """
    check_tol(tol)
    if solution.status != "optimal":
        raise ValueError("only optimal solutions can be verified")
    X, B, S = solution.x_flows, solution.buffers, solution.slacks
    if not (
        _keys_within(X, problem.x_index)
        and _keys_within(B, problem.b_index)
        and _keys_within(S, problem.slack_index)
    ):
        unknown_x = sum(key not in problem.x_index for key in X)
        unknown_b = sum(key not in problem.b_index for key in B)
        unknown_s = sum(k not in problem.slack_index for k in S)
        raise ValueError(
            f"solution shape mismatch: {unknown_x} flow, {unknown_b} buffer, "
            f"{unknown_s} slack keys not in the problem"
        )

    (x_keys, x_val), (b_keys, b_val) = _key_value_arrays(X, 3), _key_value_arrays(B, 3)
    s_keys, s_val = _key_value_arrays(S, 1)

    plan = problem.plan
    f = plan.grid.state_count
    coms = problem.commodities
    n_coms = len(coms)
    node_ids = sorted(plan.node_ids)
    n_nodes = len(node_ids)
    pos = {v: i for i, v in enumerate(node_ids)}
    gens = np.array([_generation_index(plan, com) for com in coms], dtype=np.int64)
    deadlines = [_deadline_index(plan, com) for com in coms]
    dl = np.array([f + 1 if d is None else d for d in deadlines], dtype=np.int64)
    dst = np.array([pos[com.dst] for com in coms], dtype=np.int64)
    amount = np.array([com.amount for com in coms], dtype=np.float64)
    inject = np.zeros((n_coms, f + 1, n_nodes))
    for k, com in enumerate(coms):
        for v, supplied in com.supply:
            inject[k, gens[k], pos[v]] = supplied

    arcs = plan.arcs
    arc_cid, arc_state = arcs.contact_id, arcs.state
    arc_cap = arcs.capacity.astype(np.float64)
    node_arr = np.array(node_ids, dtype=np.int64)
    arc_from = np.searchsorted(node_arr, arcs.from_node)
    arc_to = np.searchsorted(node_arr, arcs.to_node)

    # Each flow's arc, found by (state, contact rank) in the arcs' own
    # (state, contact id) order.
    x_cid, x_state, x_com = x_keys.T
    cids = np.unique(arc_cid)
    rank = np.minimum(np.searchsorted(cids, x_cid), max(len(cids) - 1, 0))
    arc_key = arc_state * len(cids) + np.searchsorted(cids, arc_cid)
    x_key = x_state * len(cids) + rank
    arc = np.minimum(np.searchsorted(arc_key, x_key), max(len(arc_key) - 1, 0))
    found = (cids[rank] == x_cid) & (arc_key[arc] == x_key) if len(arc_key) else np.zeros(len(X), bool)
    if not found.all():
        cid, q, _ = list(X)[np.flatnonzero(~found)[0]]
        raise ValueError(f"solution shape mismatch: contact {cid} has no arc in state {q}")

    if not (np.isfinite(x_val).all() and np.isfinite(b_val).all() and np.isfinite(s_val).all()):
        return [
            Violation("finite", where(key), math.inf)
            for values, where in ((X, str), (B, str), (S, "slack k{}".format))
            for key, value in values.items()
            if not math.isfinite(value)
        ]

    b_t, b_node, b_com = b_keys.T
    buffers = np.zeros((n_coms, f + 1, n_nodes))
    buffers[b_com, b_t, np.searchsorted(node_arr, b_node)] = b_val
    slacks = np.zeros(n_coms)
    slacks[s_keys] = s_val

    out: list[Violation] = []
    loud = np.abs(x_val) > tol
    early = loud & (x_state <= gens[x_com])
    reemit = loud & (arc_from[arc] == dst[x_com])
    negative = x_val < -tol
    if (negative | early | reemit).any():
        keys = list(X)
        for i in np.flatnonzero(negative | early | reemit).tolist():
            key, val = keys[i], float(x_val[i])
            cid, q, k = key
            if negative[i]:
                out.append(Violation("nonnegative", str(key), -val))
            if early[i]:
                out.append(Violation("no-early-send", f"contact {cid} state {q} k{k}", abs(val)))
            if reemit[i]:
                out.append(Violation("dest-no-reemit", f"contact {cid} state {q} k{k}", abs(val)))
    for values, vals, where in ((B, b_val, str), (S, s_val, "slack k{}".format)):
        negative = vals < -tol
        if negative.any():
            keys = list(values)
            for i in np.flatnonzero(negative).tolist():
                out.append(Violation("nonnegative", where(keys[i]), -float(vals[i])))

    # Net inflow per (class, state, node): +flow at the arc's head, -flow at
    # its tail, added flow by flow in the solution's order.
    cells = np.empty(2 * len(X), dtype=np.int64)
    cells[0::2] = (x_com * (f + 1) + x_state) * n_nodes + arc_to[arc]
    cells[1::2] = (x_com * (f + 1) + x_state) * n_nodes + arc_from[arc]
    signed = np.empty(2 * len(X))
    signed[0::2], signed[1::2] = x_val, -x_val
    net = np.zeros(n_coms * (f + 1) * n_nodes)
    np.add.at(net, cells, signed)
    net = net.reshape(n_coms, f + 1, n_nodes)

    classes = np.arange(n_coms)
    init = np.abs(buffers[:, 0] - inject[:, 0])
    bal = np.abs(buffers[:, 1:] - buffers[:, :-1] - net[:, 1:] - inject[:, 1:])
    short = (amount - slacks)[:, None] - buffers[classes, :, dst]
    short[np.arange(f + 1)[None, :] < dl[:, None]] = -np.inf
    if problem.soft:
        fin = np.abs(buffers[classes, f, dst] + slacks - amount)[:, None]
    else:
        want = np.zeros((n_coms, n_nodes))
        want[classes, dst] = amount
        fin = np.abs(buffers[:, f] - want)
    bad = (init > tol).any(1) | (bal > tol).any((1, 2)) | (short > tol).any(1) | (fin > tol).any(1)
    for k in np.flatnonzero(bad).tolist():
        for v in np.flatnonzero(init[k] > tol).tolist():
            out.append(Violation("init", f"node {node_ids[v]} k{k}", float(init[k, v])))
        for t, v in zip(*(i.tolist() for i in np.nonzero(bal[k] > tol))):
            out.append(Violation("bal", f"t{t + 1} node {node_ids[v]} k{k}", float(bal[k, t, v])))
        for t in np.flatnonzero(short[k] > tol).tolist():
            out.append(Violation("ddl", f"t{t} k{k}", float(short[k, t])))
        for v in np.flatnonzero(fin[k] > tol).tolist():
            node = coms[k].dst if problem.soft else node_ids[v]
            out.append(Violation("fin", f"node {node} k{k}", float(fin[k, v])))

    load = np.zeros(len(arc_key))
    np.add.at(load, arc, x_val)
    for i in np.flatnonzero(load > arc_cap + tol).tolist():
        out.append(Violation(
            "arccap", f"contact {arc_cid[i]} state {arc_state[i]}", float(load[i] - arc_cap[i])
        ))

    for spec in plan.nodes:
        if math.isinf(spec.buffer_capacity):
            continue
        total = buffers[:, :, pos[spec.node_id]].sum(axis=0)
        for t in np.flatnonzero(total > spec.buffer_capacity + tol).tolist():
            out.append(Violation(
                "bufcap", f"t{t} node {spec.node_id}", float(total[t] - spec.buffer_capacity)
            ))

    return out


def _on_time_arrivals(
    plan: ContactPlan, commodities: list[Commodity], keys: np.ndarray
) -> np.ndarray:
    """The rows of an (n, 3) flow key array that enter their class's
    destination on time, in a state their contact covers, ordered by
    (class, the contact's plan order, state).

    Those are the terms of a sum over classes, then the contacts into the
    class's destination in plan order, then the states each covers up to
    the deadline. Added in this order, the terms give that sum bit for
    bit: a zero or missing flow adds nothing.
    """
    cols = plan.columns
    dst = np.array([com.dst for com in commodities], dtype=np.int64)
    dsts = np.unique(dst)
    into = np.flatnonzero(
        dsts[np.minimum(np.searchsorted(dsts, cols.to_node), len(dsts) - 1)] == cols.to_node
    )
    if not len(into):
        return np.zeros(0, dtype=np.int64)
    ids = cols.contact_id[into]
    order = np.argsort(ids)
    x_cid, x_state, x_com = keys.T
    rank = order[np.minimum(np.searchsorted(ids, x_cid, sorter=order), len(into) - 1)]
    to = cols.to_node[into][rank]
    first = cols.first[into][rank]
    last = cols.last[into][rank]
    f = plan.grid.state_count
    deadlines = [_deadline_index(plan, com) for com in commodities]
    dl = np.array([f if d is None else d for d in deadlines], dtype=np.int64)
    k = np.clip(x_com, 0, len(commodities) - 1)
    counted = (
        (ids[rank] == x_cid) & (k == x_com) & (to == dst[k])
        & (first <= x_state) & (x_state <= np.minimum(last, dl[k]))
    )
    chosen = np.flatnonzero(counted)
    return chosen[np.lexsort((x_state[chosen], rank[chosen], k[chosen]))]


def lp_metrics(
    plan: ContactPlan, commodities: list[Commodity], solution: LpSolution
) -> Metrics:
    """Metrics comparable to the simulator's, computed on fractional flows.

    Delivered amounts come from the final destination buffers (amount minus
    drop slack); transmissions are the total flow; delay weights each
    on-time arrival state's destination inflow by its lateness. On time
    means at or before the deadline's grid boundary
    (`StateGrid.floor_boundary_index`), the rule the simulator applies.
    """
    if solution.status != "optimal":
        raise ValueError("lp_metrics requires an optimal solution")
    amounts = [c.amount for c in commodities]
    total_amount = sum(amounts)
    if total_amount == 0:
        return Metrics(None, None, None, None)

    grid = plan.grid
    delivered = sum(amount - solution.slacks.get(k, 0.0) for k, amount in enumerate(amounts))
    total_tx = solution.total_flow()

    keys, flows = _key_value_arrays(solution.x_flows, 3)
    chosen = _on_time_arrivals(plan, commodities, keys)
    t_gen = [com.t_gen for com in commodities]
    delay_sum = 0.0
    delay_weight = 0.0
    for q, k, flow in zip(keys[chosen, 1].tolist(), keys[chosen, 2].tolist(),
                          flows[chosen].tolist()):
        delay_sum += (grid.state_end(q) - t_gen[k]) * flow
        delay_weight += flow

    return Metrics(
        delivery_ratio=delivered / total_amount,
        mean_hops=total_tx / delivered if delivered > _EPS else None,
        mean_delay=delay_sum / delay_weight if delay_weight > _EPS else None,
        energy_efficiency=delivered / total_tx if total_tx > _EPS else None,
    )


def _fmt_coef(coef: float) -> str:
    return f"{coef:.12g}"


def problem_to_lp_text(problem: LpProblem) -> str:
    """Render the model in CPLEX LP text format for external cross-checks."""
    lines = ["Minimize"]
    terms = []
    for col, coef in enumerate(problem.objective):
        if coef != 0.0:
            terms.append((col, float(coef)))
    if not terms and problem.n_vars:
        terms = [(0, 0.0)]
    lines.append(" obj: " + _lp_expr(terms, problem.var_names))
    lines.append("Subject To")
    for matrix, rhs, names, sense in (
        (problem.a_eq, problem.b_eq, problem.eq_names, "="),
        (problem.a_ub, problem.b_ub, problem.ub_names, "<="),
    ):
        if matrix is None:
            continue
        for i, name in enumerate(names):
            row = matrix.getrow(i)
            coefs = list(zip(row.indices.tolist(), row.data.tolist()))
            lines.append(f" {name}: " + _lp_expr(coefs, problem.var_names) + f" {sense} {_fmt_coef(rhs[i])}")
    bounded = np.flatnonzero(problem.col_lower).tolist()
    if bounded:
        lines.append("Bounds")
        names, lower = problem.var_names, problem.col_lower
        lines += [f" {names[col]} >= {_fmt_coef(lower[col])}" for col in bounded]
    lines.append("End")
    return "\n".join(lines) + "\n"


def _lp_expr(coefs: list[tuple[int, float]], names: list[str]) -> str:
    if not coefs:
        return "0"
    parts = []
    for i, (col, coef) in enumerate(sorted(coefs)):
        mag = _fmt_coef(abs(coef))
        if i == 0:
            sign = "-" if coef < 0 else ""
            parts.append(f"{sign}{mag} {names[col]}")
        else:
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {mag} {names[col]}")
    return " ".join(parts)


def solution_flows_csv(problem: LpProblem, solution: LpSolution) -> str:
    """Nonzero flows as CSV: one row per (state, contact, commodity).

    The src column lists the commodity's sources joined by ';'.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["state", "contact", "from", "to", "commodity", "src", "dst", "t_gen", "ttl", "value"])
    rows = []
    for (cid, q, k), value in solution.x_flows.items():
        if abs(value) <= _EPS:
            continue
        com = problem.commodities[k]
        contact = problem.plan.contact(cid)
        rows.append(
            (
                q,
                cid,
                contact.from_node,
                contact.to_node,
                k,
                ";".join(str(v) for v, _ in com.supply),
                com.dst,
                com.t_gen,
                "inf" if math.isinf(com.ttl) else com.ttl,
                value,
            )
        )
    for row in sorted(rows, key=lambda r: (r[0], r[1], r[4])):
        w.writerow(row)
    return buf.getvalue()


def solution_to_json(solution: LpSolution) -> str:
    doc = {
        "status": solution.status,
        "objective": solution.objective,
        "x": [[cid, q, k, v] for (cid, q, k), v in sorted(solution.x_flows.items())],
        "b": [[t, node, k, v] for (t, node, k), v in sorted(solution.buffers.items())],
        "slack": [[k, v] for k, v in sorted(solution.slacks.items())],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _finite(value) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


def solution_from_json(text: str) -> LpSolution:
    """Read a solution document; NaN, infinities and numbers that overflow
    a float are malformed, like any other value that is not a number."""
    doc = json.loads(text)
    try:
        return LpSolution(
            status=str(doc["status"]),
            objective=None if doc["objective"] is None else _finite(doc["objective"]),
            x_flows={(int(c), int(q), int(k)): _finite(v) for c, q, k, v in doc.get("x", [])},
            buffers={(int(t), int(n), int(k)): _finite(v) for t, n, k, v in doc.get("b", [])},
            slacks={int(k): _finite(v) for k, v in doc.get("slack", [])},
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"malformed solution document: {e}") from None
