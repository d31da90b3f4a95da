import json

import pytest

from cgrlab.cli import main
from cgrlab.simulator import Demand, demands_to_json

from conftest import THREE_NODE_PLAN


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "three.cp"
    path.write_text(THREE_NODE_PLAN)
    return path


@pytest.fixture
def demands_file(tmp_path):
    path = tmp_path / "demands.json"
    path.write_text(
        demands_to_json([Demand(1, 3, 0.0, 30.0, 10), Demand(2, 3, 0.0, 20.0, 10)])
    )
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "sim", "--bogus")
    assert code == 2


def test_gen_writes_deterministic_plan(tmp_path, capsys):
    out1, out2 = tmp_path / "a.cp", tmp_path / "b.cp"
    args = ["gen", "--nodes", "11", "--states", "10", "--dur", "10",
            "--density", "0.2", "--seed", "1"]
    assert run_cli(capsys, *args, "--out", out1)[0] == 0
    assert run_cli(capsys, *args, "--out", out2)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("plan 10 10\n")


def test_validate_ok(plan_file, capsys):
    code, out, _ = run_cli(capsys, "validate", "--plan", plan_file)
    assert code == 0
    assert out == ""


def test_validate_reports_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.cp"
    bad.write_text("plan 3 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 9 0 10 5\n")
    code, out, _ = run_cli(capsys, "validate", "--plan", bad)
    assert code == 1
    assert "unknown-node" in out


def test_validate_reports_non_finite_time_with_its_location(tmp_path, capsys):
    bad = tmp_path / "bad.cp"
    bad.write_text("plan 3 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 0 inf 5\n")
    code, out, _ = run_cli(capsys, "validate", "--plan", bad)
    assert code == 1
    assert out.startswith("line 4, column 17: end must be a finite number")


def test_missing_plan_file_is_domain_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", "--plan", tmp_path / "nope.cp")
    assert code == 1
    assert "error:" in err


def test_routes_dump(plan_file, capsys):
    code, out, _ = run_cli(capsys, "routes", "--plan", plan_file, "--owner", "1",
                           "--dest", "3", "-k", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("route_id,")
    assert len(lines) == 3


def test_sim_hops_metrics(plan_file, demands_file, capsys, tmp_path):
    packets = tmp_path / "packets.csv"
    code, out, _ = run_cli(
        capsys, "sim", "--plan", plan_file, "--demands", demands_file,
        "--policy", "hops", "-k", "2", "--packets-csv", packets,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delivery_ratio"] == 1.0
    assert doc["generated"] == 20
    assert doc["dropped"] == 0
    assert packets.exists()


def test_sim_deltime_metrics(plan_file, demands_file, capsys):
    code, out, _ = run_cli(
        capsys, "sim", "--plan", plan_file, "--demands", demands_file,
        "--policy", "deltime", "-k", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delivery_ratio"] == 0.5
    assert doc["dropped"] == 10


def test_lp_solves_verifies_and_saves(plan_file, demands_file, capsys, tmp_path):
    lp_text = tmp_path / "model.lp"
    flows = tmp_path / "flows.csv"
    saved = tmp_path / "solution.json"
    code, out, _ = run_cli(
        capsys, "lp", "--plan", plan_file, "--demands", demands_file,
        "--export-lp", lp_text, "--flows-csv", flows, "--save-solution", saved,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["objective"] == pytest.approx(50.0)
    assert doc["delivery_ratio"] == 1.0
    assert lp_text.read_text().startswith("Minimize")
    assert flows.read_text().startswith("state,contact")
    assert saved.exists()


def test_lp_reports_infeasible(plan_file, tmp_path, capsys):
    demands = tmp_path / "tight.json"
    demands.write_text(
        demands_to_json([Demand(1, 3, 0.0, 10.0, 10), Demand(2, 3, 0.0, 10.0, 10)])
    )
    code, out, _ = run_cli(capsys, "lp", "--plan", plan_file, "--demands", demands)
    assert code == 0
    assert json.loads(out) == {"status": "infeasible"}


def test_verify_accepts_saved_solution(plan_file, demands_file, tmp_path, capsys):
    saved = tmp_path / "solution.json"
    run_cli(capsys, "lp", "--plan", plan_file, "--demands", demands_file,
            "--save-solution", saved)
    code, out, _ = run_cli(
        capsys, "verify", "--plan", plan_file, "--demands", demands_file,
        "--solution", saved,
    )
    assert code == 0
    assert json.loads(out) == {"violations": 0}


def test_verify_rejects_tampered_solution(plan_file, demands_file, tmp_path, capsys):
    saved = tmp_path / "solution.json"
    run_cli(capsys, "lp", "--plan", plan_file, "--demands", demands_file,
            "--save-solution", saved)
    doc = json.loads(saved.read_text())
    doc["x"][0][3] += 1.0
    saved.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "verify", "--plan", plan_file, "--demands", demands_file,
        "--solution", saved,
    )
    assert code == 1
    assert json.loads(out)["violations"] >= 1
    assert "bal" in err


def test_sweep_and_report(tmp_path, capsys):
    config = {
        "topology": {"node_count": 6, "density": 0.3, "capacity": 5,
                     "states": 5, "state_duration": 10.0},
        "traffic": {"destination": 6, "no_ttl_sources": [1, 2],
                    "ttl_sources": [3, 4], "ttl_value": 20.0},
        "routing": {"k_routes": 2},
        "schemes": ["DELTIME", "HOPS", "LP"],
        "seeds": [1, 2],
        "loads": [1, 2],
        "lp": {"weight_exponent": 1.0, "soft": False},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    code, stdout, _ = run_cli(capsys, "sweep", "--config", config_path, "--out", out_a)
    assert code == 0
    assert json.loads(stdout)["cells"] == 12
    assert run_cli(capsys, "sweep", "--config", config_path, "--out", out_b)[0] == 0

    for name in ("raw.csv", "delivery_ratio.csv", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    code, report_out, _ = run_cli(capsys, "report", "--sweep-dir", out_a)
    assert code == 0
    assert "# delivery_ratio" in report_out
