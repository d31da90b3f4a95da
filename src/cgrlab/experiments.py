"""Scenario generation, batch execution, and result tables.

A scenario fixes the random-topology parameters and an all-to-one traffic
pattern in which one group of source nodes sends deadline-free packets
and another sends packets with a shared latency bound. A sweep runs every
(seed, load, scheme) cell on the identical plan and demand set, so
cross-scheme comparisons are paired by construction, and aggregates each
metric's mean and sample standard deviation over seeds.

Scheme columns are always emitted in the fixed order DELTIME, HOPS, LP so
outputs diff cleanly. All output is byte-deterministic for a given config.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import __version__
from .contact_plan import ContactPlan, StateGrid, TopologyConfig, generate_random_topology
# build_route_table is not called here, but bench/tracing.py and its tests
# look it up on this module by name.
from .contact_graph import build_route_table, build_route_tables  # noqa: F401
from .forwarding import Policy
from .lp_oracle import (
    LpSession,
    build_lp,
    demands_to_commodities,
    lp_metrics,
    solve_lp,
    state_weights,
)
from .simulator import Demand, Metrics, compute_metrics, run_simulation

__all__ = [
    "TrafficConfig",
    "RoutingConfig",
    "LpConfig",
    "ScenarioConfig",
    "CellResult",
    "SweepResult",
    "ConfigError",
    "SCHEME_ORDER",
    "build_scenario",
    "run_sweep",
    "summarize",
    "write_sweep_outputs",
    "rows_from_csv",
]

SCHEME_ORDER = ("DELTIME", "HOPS", "LP")
_METRIC_NAMES = ("delivery_ratio", "mean_hops", "mean_delay", "energy_efficiency")


class ConfigError(ValueError):
    """Invalid scenario configuration."""


@dataclass(frozen=True)
class TrafficConfig:
    """All-to-one traffic: every source sends `load` packets to the
    destination, injected as a single burst at t = 0 (or once per state in
    per-state mode)."""

    destination: int
    no_ttl_sources: tuple[int, ...]
    ttl_sources: tuple[int, ...]
    ttl_value: float
    load: int = 1
    pattern: str = "all-to-one"
    injection: str = "burst"


@dataclass(frozen=True)
class RoutingConfig:
    k_routes: int = 4


@dataclass(frozen=True)
class LpConfig:
    weight_exponent: float = 1.0
    soft: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    topology: TopologyConfig
    traffic: TrafficConfig
    routing: RoutingConfig
    schemes: tuple[str, ...]
    seeds: tuple[int, ...]
    loads: tuple[int, ...]
    lp: LpConfig = LpConfig()

    def validate(self) -> None:
        if self.traffic.pattern != "all-to-one":
            raise ConfigError(f"unsupported traffic pattern {self.traffic.pattern!r}")
        if self.traffic.injection not in ("burst", "per-state"):
            raise ConfigError(f"unsupported injection mode {self.traffic.injection!r}")
        no_ttl = set(self.traffic.no_ttl_sources)
        ttl = set(self.traffic.ttl_sources)
        if no_ttl & ttl:
            raise ConfigError("a source cannot be in both ttl groups")
        if self.traffic.destination in no_ttl | ttl:
            raise ConfigError("the destination cannot also be a source")
        nodes = set(range(1, self.topology.node_count + 1))
        for nid in no_ttl | ttl | {self.traffic.destination}:
            if nid not in nodes:
                raise ConfigError(f"node {nid} is outside the topology")
        if self.traffic.ttl_value < 0:
            raise ConfigError("ttl_value must be >= 0")
        for s in self.schemes:
            if s not in SCHEME_ORDER:
                raise ConfigError(f"unknown scheme {s!r}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not self.loads:
            raise ConfigError("at least one load is required")
        if any(l < 0 for l in self.loads):
            raise ConfigError("loads must be >= 0")
        if self.routing.k_routes < 1:
            raise ConfigError("k_routes must be >= 1")
        try:
            state_weights(self.lp.weight_exponent, self.topology.grid.state_count)
        except ValueError as e:
            raise ConfigError(f"lp: {e}") from None

    def ordered_schemes(self) -> tuple[str, ...]:
        return tuple(s for s in SCHEME_ORDER if s in self.schemes)

    def to_json(self) -> str:
        doc = {
            "topology": {
                "node_count": self.topology.node_count,
                "density": self.topology.density,
                "capacity": self.topology.capacity,
                "states": self.topology.grid.state_count,
                "state_duration": self.topology.grid.state_duration,
            },
            "traffic": {
                "pattern": self.traffic.pattern,
                "destination": self.traffic.destination,
                "no_ttl_sources": list(self.traffic.no_ttl_sources),
                "ttl_sources": list(self.traffic.ttl_sources),
                "ttl_value": self.traffic.ttl_value,
                "load": self.traffic.load,
                "injection": self.traffic.injection,
            },
            "routing": {"k_routes": self.routing.k_routes},
            "schemes": list(self.schemes),
            "seeds": list(self.seeds),
            "loads": list(self.loads),
            "lp": {"weight_exponent": self.lp.weight_exponent, "soft": self.lp.soft},
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        try:
            topo = doc["topology"]
            traffic = doc["traffic"]
            cfg = cls(
                topology=TopologyConfig(
                    node_count=int(topo["node_count"]),
                    density=float(topo["density"]),
                    capacity=int(topo["capacity"]),
                    grid=StateGrid(int(topo["states"]), float(topo["state_duration"])),
                    seed=0,
                ),
                traffic=TrafficConfig(
                    destination=int(traffic["destination"]),
                    no_ttl_sources=tuple(int(n) for n in traffic["no_ttl_sources"]),
                    ttl_sources=tuple(int(n) for n in traffic["ttl_sources"]),
                    ttl_value=float(traffic["ttl_value"]),
                    load=int(traffic.get("load", 1)),
                    pattern=str(traffic.get("pattern", "all-to-one")),
                    injection=str(traffic.get("injection", "burst")),
                ),
                routing=RoutingConfig(k_routes=int(doc.get("routing", {}).get("k_routes", 4))),
                schemes=tuple(str(s) for s in doc["schemes"]),
                seeds=tuple(int(s) for s in doc["seeds"]),
                loads=tuple(int(l) for l in doc["loads"]),
                lp=LpConfig(
                    weight_exponent=float(doc.get("lp", {}).get("weight_exponent", 1.0)),
                    soft=bool(doc.get("lp", {}).get("soft", False)),
                ),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"malformed config: {e}") from None
        cfg.validate()
        return cfg

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


@dataclass(frozen=True)
class CellResult:
    """One (seed, load, scheme) run; metrics are None unless status is ok."""

    seed: int
    load: int
    scheme: str
    status: str  # "ok" | "infeasible" | "error"
    metrics: Metrics | None
    generated: float
    delivered_on_time: float
    transmissions: float
    error: str = ""


@dataclass
class SweepResult:
    config: ScenarioConfig
    rows: list[CellResult] = field(default_factory=list)

    def raw_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            [
                "scheme",
                "load",
                "seed",
                "status",
                *_METRIC_NAMES,
                "generated",
                "delivered_on_time",
                "transmissions",
                "error",
            ]
        )
        for r in self.rows:
            m = r.metrics.as_dict() if r.metrics else {name: None for name in _METRIC_NAMES}
            w.writerow(
                [
                    r.scheme,
                    r.load,
                    r.seed,
                    r.status,
                    *("" if m[name] is None else m[name] for name in _METRIC_NAMES),
                    r.generated,
                    r.delivered_on_time,
                    r.transmissions,
                    r.error,
                ]
            )
        return buf.getvalue()

    def cell(self, seed: int, load: int, scheme: str) -> CellResult:
        for r in self.rows:
            if (r.seed, r.load, r.scheme) == (seed, load, scheme):
                return r
        raise KeyError(f"no cell for seed={seed} load={load} scheme={scheme}")

    def metric_values(self, scheme: str, load: int, metric: str) -> list[float]:
        """Defined values of one metric across seeds, in seed order."""
        out = []
        for r in self.rows:
            if r.scheme != scheme or r.load != load or r.metrics is None:
                continue
            value = getattr(r.metrics, metric)
            if value is not None:
                out.append(value)
        return out


def build_scenario(
    cfg: ScenarioConfig, seed: int, load: int | None = None
) -> tuple[ContactPlan, list[Demand]]:
    """Materialize the plan and demand list for one seed (and load)."""
    cfg.validate()
    plan = generate_random_topology(replace(cfg.topology, seed=seed))
    demands = _scenario_demands(cfg, cfg.traffic.load if load is None else load)
    return plan, demands


def _scenario_demands(cfg: ScenarioConfig, load: int) -> list[Demand]:
    grid = cfg.topology.grid
    if cfg.traffic.injection == "burst":
        times = [0.0]
    else:
        times = [grid.state_start(q) for q in range(1, grid.state_count + 1)]
    demands = []
    for t in times:
        for src in sorted(cfg.traffic.no_ttl_sources):
            demands.append(Demand(src, cfg.traffic.destination, t, math.inf, load))
        for src in sorted(cfg.traffic.ttl_sources):
            demands.append(Demand(src, cfg.traffic.destination, t, cfg.traffic.ttl_value, load))
    return [d for d in demands if d.count > 0]


def _run_seed(cfg: ScenarioConfig, seed: int) -> list[CellResult]:
    """All (load, scheme) cells for one seed, sharing the plan, the route
    tables and one LP session: the loads change only the LP's right-hand
    sides, so each load's LP is solved warm from the previous load's basis."""
    plan, _ = build_scenario(cfg, seed, load=0)
    schemes = cfg.ordered_schemes()
    tables = None
    session = LpSession()
    rows = []
    for load in cfg.loads:
        demands = _scenario_demands(cfg, load)
        for scheme in schemes:
            try:
                if scheme == "LP":
                    rows.append(_run_lp_cell(cfg, plan, demands, seed, load, session))
                else:
                    if tables is None:
                        tables = build_route_tables(
                            plan, cfg.routing.k_routes, {cfg.traffic.destination}
                        )
                    result = run_simulation(
                        plan, demands, Policy[scheme], cfg.routing.k_routes, tables
                    )
                    metrics = compute_metrics(result, demands)
                    rows.append(
                        CellResult(
                            seed=seed,
                            load=load,
                            scheme=scheme,
                            status="ok",
                            metrics=metrics,
                            generated=result.generated(),
                            delivered_on_time=result.count("delivered_on_time"),
                            transmissions=result.total_transmissions(),
                        )
                    )
            except Exception as e:  # cell failures must not abort the sweep
                print(f"cell seed={seed} load={load} scheme={scheme} failed:", file=sys.stderr)
                traceback.print_exc()
                rows.append(
                    CellResult(
                        seed=seed,
                        load=load,
                        scheme=scheme,
                        status="error",
                        metrics=None,
                        generated=0.0,
                        delivered_on_time=0.0,
                        transmissions=0.0,
                        error=f"{type(e).__name__}: {e}",
                    )
                )
    return rows


def _run_lp_cell(
    cfg: ScenarioConfig,
    plan: ContactPlan,
    demands: list[Demand],
    seed: int,
    load: int,
    session: LpSession,
) -> CellResult:
    commodities = demands_to_commodities(demands)
    problem = build_lp(plan, commodities, cfg.lp.weight_exponent, soft=cfg.lp.soft)
    solution = solve_lp(problem, session)
    generated = sum(c.amount for c in commodities)
    if solution.status != "optimal":
        return CellResult(
            seed=seed,
            load=load,
            scheme="LP",
            status="infeasible",
            metrics=None,
            generated=generated,
            delivered_on_time=0.0,
            transmissions=0.0,
        )
    metrics = lp_metrics(plan, commodities, solution)
    delivered = generated - sum(solution.slacks.values())
    return CellResult(
        seed=seed,
        load=load,
        scheme="LP",
        status="ok",
        metrics=metrics,
        generated=generated,
        delivered_on_time=delivered,
        transmissions=solution.total_flow(),
    )


def run_sweep(cfg: ScenarioConfig, jobs: int = 1) -> SweepResult:
    """Run every (seed, load, scheme) cell; never aborts on a cell failure.

    With jobs > 1, seeds run in a process pool; results are merged in
    deterministic (seed, load, scheme) order either way.
    """
    cfg.validate()
    rows: list[CellResult] = []
    if jobs <= 1:
        for seed in cfg.seeds:
            rows.extend(_run_seed(cfg, seed))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_run_seed, [cfg] * len(cfg.seeds), cfg.seeds):
                rows.extend(part)
    order = {s: i for i, s in enumerate(SCHEME_ORDER)}
    rows.sort(key=lambda r: (r.seed, r.load, order[r.scheme]))
    return SweepResult(config=cfg, rows=rows)


def _aggregate(result: SweepResult) -> dict[tuple[str, int, str], tuple[float | None, float | None, int]]:
    """(scheme, load, metric) -> (mean, sample stddev, defined count)."""
    out = {}
    for scheme in result.config.ordered_schemes():
        for load in result.config.loads:
            for metric in _METRIC_NAMES:
                values = result.metric_values(scheme, load, metric)
                n = len(values)
                mean = sum(values) / n if n else None
                std = statistics.stdev(values) if n >= 2 else None
                out[(scheme, load, metric)] = (mean, std, n)
    return out


def summarize(result: SweepResult) -> dict[str, str]:
    """One CSV per metric: a row per load, columns per scheme in fixed order."""
    agg = _aggregate(result)
    schemes = result.config.ordered_schemes()
    tables = {}
    for metric in _METRIC_NAMES:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        header = ["load"]
        for scheme in schemes:
            slug = scheme.lower()
            header += [f"{slug}_mean", f"{slug}_std", f"{slug}_n"]
        w.writerow(header)
        for load in result.config.loads:
            row: list[object] = [load]
            for scheme in schemes:
                mean, std, n = agg[(scheme, load, metric)]
                row += ["" if mean is None else mean, "" if std is None else std, n]
            w.writerow(row)
        tables[metric] = buf.getvalue()
    return tables


def write_sweep_outputs(result: SweepResult, outdir: str | Path) -> list[Path]:
    """Write raw.csv, the four per-metric CSVs, and manifest.json."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    raw = out / "raw.csv"
    raw.write_text(result.raw_csv())
    written.append(raw)

    for metric, text in summarize(result).items():
        path = out / f"{metric}.csv"
        path.write_text(text)
        written.append(path)

    manifest = {
        "config_hash": result.config.config_hash(),
        "schemes": list(result.config.ordered_schemes()),
        "seeds": list(result.config.seeds),
        "loads": list(result.config.loads),
        "version": __version__,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)

    config_path = out / "config.json"
    config_path.write_text(result.config.to_json())
    written.append(config_path)
    return written


def rows_from_csv(text: str) -> list[CellResult]:
    """Parse a raw sweep CSV back into cell rows (for re-reporting)."""
    reader = csv.DictReader(io.StringIO(text))
    rows = []
    for rec in reader:
        values = {
            name: (None if rec[name] == "" else float(rec[name])) for name in _METRIC_NAMES
        }
        metrics = None
        if rec["status"] == "ok":
            metrics = Metrics(**values)
        rows.append(
            CellResult(
                seed=int(rec["seed"]),
                load=int(rec["load"]),
                scheme=rec["scheme"],
                status=rec["status"],
                metrics=metrics,
                generated=float(rec["generated"]),
                delivered_on_time=float(rec["delivered_on_time"]),
                transmissions=float(rec["transmissions"]),
                error=rec["error"],
            )
        )
    return rows
