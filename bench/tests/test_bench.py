"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run._import_program()
import tracing  # noqa: E402
from cgrlab import contact_graph, experiments, lp_oracle, simulator  # noqa: E402


def tiny(name: str):
    """The named workload on a 12 x 10 plan at one load, with no reference."""
    wl = workloads.WORKLOADS[name]
    small = workloads.scenario(12, 10, wl.cfg.schemes, injection=wl.cfg.traffic.injection,
                               soft=wl.cfg.lp.soft)
    cfg = replace(small, loads=(1,))
    return replace(wl, name=f"{name}-tiny", cfg=cfg)


def spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    doc = spec()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.LAYER_UNITS
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(name, trace):
    result = run.run_workload(tiny(name), seed=3, seconds=0.01, trace=trace)
    units = tracing.LAYER_UNITS if trace else run.END_TO_END_UNITS
    if not trace:
        result["metrics"]["setup_s"] = 1.0
    lines = run.report(result, units)
    for metric, unit in units.items():
        assert any(line.split()[0] == metric and line.split()[2] == unit for line in lines)
    assert lines[-2].startswith("error_rate 0.0 ratio")
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units


def test_command_line_prints_the_result_last(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "study", "--seed", "1",
         "--seconds", "0.01", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert set(last["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v["value"] > 0 for v in last["metrics"].values())


def test_tampered_lp_solution_raises_error_rate(monkeypatch):
    solve = lp_oracle.solve_lp

    def tampered(problem):
        solution = solve(problem)
        key = next(k for k, v in solution.x_flows.items() if v > 0.5)
        solution.x_flows[key] += 1.0
        return solution

    monkeypatch.setattr(lp_oracle, "solve_lp", tampered)
    result = run.run_workload(tiny("bound-perstate"), seed=3, seconds=0.01, trace=False)
    assert result["failed"] > 0


@pytest.mark.parametrize("column, scheme", [("transmissions", "HOPS"), ("delivered_on_time", "LP")])
def test_changed_cell_value_raises_error_rate(monkeypatch, column, scheme):
    wl = tiny("study")
    cells = wl.run_unit(wl, wl.prepare(wl, 3)(3).payload)
    reference = {"cells": {workloads.cell_key(c): c for c in cells}, "tables": {}}
    key = next(k for k, c in reference["cells"].items() if k[2] == scheme and c["status"] == "ok")
    reference["cells"][key] = {**reference["cells"][key], column: "12345"}

    monkeypatch.setattr(run, "load_reference", lambda name: reference)
    result = run.run_workload(wl, seed=3, seconds=0.01, trace=False)
    assert result["failed"] == 1


def test_changed_route_table_fails_the_traced_digest_check(monkeypatch):
    wl = tiny("large-plan")
    owners = range(1, wl.cfg.topology.node_count + 1)
    reference = {"cells": {}, "tables": {3: {owner: "0" * 64 for owner in owners}}}
    monkeypatch.setattr(run, "load_reference", lambda name: reference)
    assert run.run_workload(wl, seed=3, seconds=0.01, trace=False)["failed"] == 0
    assert run.run_workload(wl, seed=3, seconds=0.01, trace=True)["failed"] > 0


FUNCTIONS = [
    (contact_graph, "build_route_table"),
    (contact_graph, "earliest_delivery_route"),
    (simulator, "run_simulation"),
    (lp_oracle, "build_lp"),
    (experiments, "run_sweep"),
    (experiments, "build_route_table"),
]


def test_untraced_run_never_installs_the_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError("wrappers installed in an untraced run")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    for name in run.WORKLOAD_NAMES:
        assert run.run_workload(tiny(name), seed=3, seconds=0.01, trace=False)["failed"] == 0


def test_traced_run_restores_every_function():
    before = [getattr(module, attr) for module, attr in FUNCTIONS]
    result = run.run_workload(tiny("study"), seed=3, seconds=0.01, trace=True)
    assert result["metrics"]["contact_graph.tables"] > 0
    assert result["metrics"]["contact_graph.searches"] > 0
    assert [getattr(module, attr) for module, attr in FUNCTIONS] == before


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    times = tracer.self_times()
    assert times == {"a": 7.0, "b": 2.0, "c": 1.0}
    assert tracer.unattributed([(0.0, 20.0)]) == 0.5


def test_rotated_traffic_keeps_the_study_sources_at_seed_1():
    cfg = workloads.WORKLOADS["large-plan"].cfg
    first = workloads.rotated_traffic(cfg, 1)
    assert (first.no_ttl_sources, first.ttl_sources) == ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))
    for seed in range(60):
        traffic = workloads.rotated_traffic(cfg, seed)
        sources = traffic.no_ttl_sources + traffic.ttl_sources
        assert len(set(sources)) == 10 and cfg.traffic.destination not in sources


def test_references_cover_the_default_seeds():
    for name in run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        make = wl.prepare(wl, 1)
        cells = run.load_reference(name)["cells"]
        assert all(make(seed).keys <= cells.keys() for seed in range(1, 26))


def test_unit_times_are_rescaled_to_the_reference_speed(monkeypatch):
    """A machine running the calibration loop at half speed doubles the rate."""
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.REFERENCE_CALIBRATION_S)
    wl = tiny("study")
    phase = run.run_units(wl, wl.prepare(wl, 3), [3], None, {"cells": {}, "tables": {}})
    assert phase.cells_per_s == pytest.approx(2 * phase.raw_cells_per_s)
