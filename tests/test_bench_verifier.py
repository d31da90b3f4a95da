"""The benchmark's bound workload fails a cell whose LP solution is tampered with.

Solver maps are read-only, so the tampering edits a dict copy of the
solution. The failure must come from the verifier's check of the cell,
not from a unit that raised (the runner fails every cell of such a unit).
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run._import_program()
from cgrlab import lp_oracle  # noqa: E402


def test_a_tampered_copy_of_an_lp_solution_fails_the_bound_workload(monkeypatch, capsys):
    solve = lp_oracle.solve_lp

    def tampered(problem):
        solution = solve(problem)
        key = next(k for k, v in solution.x_flows.items() if v > 0.5)
        return replace(solution, x_flows={**solution.x_flows, key: solution.x_flows[key] + 1.0})

    monkeypatch.setattr(lp_oracle, "solve_lp", tampered)
    wl = workloads.WORKLOADS["bound-perstate"]
    small = workloads.scenario(12, 10, wl.cfg.schemes, injection=wl.cfg.traffic.injection,
                               soft=wl.cfg.lp.soft)
    wl = replace(wl, name="bound-perstate-tiny", cfg=replace(small, loads=(1,)))
    result = run.run_workload(wl, seed=3, seconds=0.01, trace=False)
    assert result["failed"] > 0
    assert "raised" not in capsys.readouterr().err
