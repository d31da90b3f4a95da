"""Per-layer spans taken from outside the program.

Only the traced run installs the wrappers. Each wrapper replaces one
public cgrlab function at every cgrlab module attribute that refers to it
(the modules import each other's functions by name), records a span
(name, start, end, parent) in memory, and counts the work its result
shows. Counting runs in its own `trace.hook` span, so it is not charged
to the layer or to its caller's self time. Route searches are only
counted: they are too many and too short to span.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from cgrlab import contact_graph, contact_plan, experiments, lp_oracle, simulator

# Per-layer metric names and units, in report order. `_s` is summed self
# time, `_ms_p50` the median per call; counts and ratios cover the traced
# loop and the checks after it.
LAYER_UNITS = {
    "contact_plan.generate_s": "s",
    "contact_plan.parse_s": "s",
    "contact_plan.serialize_s": "s",
    "contact_plan.contacts": "count",
    "contact_graph.build_route_table_s": "s",
    "contact_graph.table_ms_p50": "ms",
    "contact_graph.tables": "count",
    "contact_graph.searches": "count",
    "contact_graph.routes": "count",
    "simulator.deltime_s": "s",
    "simulator.hops_s": "s",
    "simulator.compute_metrics_s": "s",
    "simulator.packets": "count",
    "simulator.transmissions": "count",
    "simulator.delivered_on_time": "count",
    "simulator.dropped": "count",
    "simulator.useful_tx_ratio": "ratio",
    "lp_oracle.build_lp_s": "s",
    "lp_oracle.solve_lp_s": "s",
    "lp_oracle.verify_solution_s": "s",
    "lp_oracle.lp_metrics_s": "s",
    "lp_oracle.rows": "count",
    "lp_oracle.cols": "count",
    "lp_oracle.nnz": "count",
    "lp_oracle.commodities": "count",
    "lp_oracle.infeasible": "count",
    "experiments.run_sweep_self_s": "s",
    "trace.cells": "count",
    "trace.untraced_cells_per_s": "cells/s",
    "trace.traced_cells_per_s": "cells/s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


def _policy_span(args, kwargs) -> str:
    policy = args[2] if len(args) > 2 else kwargs["policy"]
    return f"simulator.{policy.value}"


class Tracer:
    """Span and count recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.lp_sizes: dict[str, list[int]] = defaultdict(list)
        self.tables: list[contact_graph.RouteTable] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                index = self._open("trace.hook")
                try:
                    hook(result)
                finally:
                    self._close(index)
            return result

        return traced

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- hooks ------------------------------------------------------------------

    def _on_plan(self, plan):
        self.counts["contact_plan.contacts"] += len(plan.contacts)

    def _on_table(self, table):
        self.counts["contact_graph.tables"] += 1
        self.counts["contact_graph.routes"] += sum(len(r) for r in table.routes.values())
        self.tables.append(table)

    def _on_simulation(self, result):
        outcomes = {o: result.count(o) for o in simulator.OUTCOMES}
        self.counts["simulator.packets"] += result.generated()
        self.counts["simulator.transmissions"] += result.total_transmissions()
        self.counts["simulator.delivered_on_time"] += outcomes["delivered_on_time"]
        self.counts["simulator.dropped"] += outcomes["dropped"]
        if sum(outcomes.values()) != result.generated():
            self.counts["simulator.unconserved"] += 1

    def _on_lp(self, problem):
        matrices = [m for m in (problem.a_eq, problem.a_ub) if m is not None]
        self.lp_sizes["rows"].append(sum(m.shape[0] for m in matrices))
        self.lp_sizes["cols"].append(problem.n_vars)
        self.lp_sizes["nnz"].append(sum(m.nnz for m in matrices))
        self.lp_sizes["commodities"].append(len(problem.commodities))

    def _on_solution(self, solution):
        if solution.status != "optimal":
            self.counts["lp_oracle.infeasible"] += 1

    # -- patching ---------------------------------------------------------------

    def _targets(self):
        return [
            (contact_plan, "generate_random_topology", "contact_plan.generate", self._on_plan),
            (contact_plan, "parse_contact_plan", "contact_plan.parse", self._on_plan),
            (contact_plan, "serialize_contact_plan", "contact_plan.serialize", None),
            (contact_graph, "build_route_table", "contact_graph.build_route_table", self._on_table),
            (simulator, "run_simulation", _policy_span, self._on_simulation),
            (simulator, "compute_metrics", "simulator.compute_metrics", None),
            (lp_oracle, "build_lp", "lp_oracle.build_lp", self._on_lp),
            (lp_oracle, "solve_lp", "lp_oracle.solve_lp", self._on_solution),
            (lp_oracle, "verify_solution", "lp_oracle.verify_solution", None),
            (lp_oracle, "lp_metrics", "lp_oracle.lp_metrics", None),
            (experiments, "run_sweep", "experiments.run_sweep", None),
        ]

    def _replace_everywhere(self, original, wrapper) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "cgrlab" or n.startswith("cgrlab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for module, attr, name, hook in self._targets():
            original = getattr(module, attr)
            self._replace_everywhere(original, self._spanned(original, name, hook))
        search = contact_graph.earliest_delivery_route
        self._replace_everywhere(search, self._counted(search, "contact_graph.searches"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reporting --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - children[i]
        return out

    def unattributed(self, windows: list[tuple[float, float]]) -> float:
        """Share of the given wall-time windows that no top-level span covers."""
        wall = sum(end - start for start, end in windows)
        covered = 0.0
        for _, start, end, parent in self.spans:
            if parent < 0 and any(lo <= start and end <= hi for lo, hi in windows):
                covered += end - start
        return (wall - covered) / wall

    def layer_metrics(self) -> dict[str, float]:
        st = self.self_times()
        tables = [end - start for name, start, end, _ in self.spans
                  if name == "contact_graph.build_route_table"]
        c = self.counts

        def median(values):
            return float(statistics.median(values)) if values else 0.0

        return {
            "contact_plan.generate_s": st["contact_plan.generate"],
            "contact_plan.parse_s": st["contact_plan.parse"],
            "contact_plan.serialize_s": st["contact_plan.serialize"],
            "contact_plan.contacts": c["contact_plan.contacts"],
            "contact_graph.build_route_table_s": st["contact_graph.build_route_table"],
            "contact_graph.table_ms_p50": 1000.0 * median(tables),
            "contact_graph.tables": c["contact_graph.tables"],
            "contact_graph.searches": c["contact_graph.searches"],
            "contact_graph.routes": c["contact_graph.routes"],
            "simulator.deltime_s": st["simulator.deltime"],
            "simulator.hops_s": st["simulator.hops"],
            "simulator.compute_metrics_s": st["simulator.compute_metrics"],
            "simulator.packets": c["simulator.packets"],
            "simulator.transmissions": c["simulator.transmissions"],
            "simulator.delivered_on_time": c["simulator.delivered_on_time"],
            "simulator.dropped": c["simulator.dropped"],
            "simulator.useful_tx_ratio": (
                c["simulator.delivered_on_time"] / c["simulator.transmissions"]
                if c["simulator.transmissions"] else 0.0
            ),
            "lp_oracle.build_lp_s": st["lp_oracle.build_lp"],
            "lp_oracle.solve_lp_s": st["lp_oracle.solve_lp"],
            "lp_oracle.verify_solution_s": st["lp_oracle.verify_solution"],
            "lp_oracle.lp_metrics_s": st["lp_oracle.lp_metrics"],
            "lp_oracle.rows": median(self.lp_sizes["rows"]),
            "lp_oracle.cols": median(self.lp_sizes["cols"]),
            "lp_oracle.nnz": median(self.lp_sizes["nnz"]),
            "lp_oracle.commodities": median(self.lp_sizes["commodities"]),
            "lp_oracle.infeasible": c["lp_oracle.infeasible"],
            "experiments.run_sweep_self_s": st["experiments.run_sweep"],
        }

    def write(self, path: Path, extra: dict) -> None:
        """Write every span, count and LP size as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "lp_sizes": dict(self.lp_sizes),
        }
        path.write_text(json.dumps(doc) + "\n")
