import hashlib
import json
import math

import pytest

from cgrlab.cli import main
from cgrlab.contact_plan import StateGrid
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


@pytest.fixture
def perstate_demands_file(tmp_path):
    """Traffic injected in states 1 and 2, as the per-state study injects
    it: node 1's two no-deadline classes and node 2's two classes due at
    t = 20 each merge into one model commodity."""
    path = tmp_path / "perstate.json"
    path.write_text(
        demands_to_json([
            Demand(1, 3, 0.0, float("inf"), 4),
            Demand(1, 3, 10.0, float("inf"), 4),
            Demand(2, 3, 0.0, 20.0, 4),
            Demand(2, 3, 10.0, 10.0, 4),
        ])
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


@pytest.mark.parametrize("dur, density, message", [
    ("inf", 0.5, "error: state_duration must be finite and > 0, got inf\n"),
    # Two states of 1e308 s: the state-2 contacts end past float range.
    ("1e308", 1, "error: contact 3 runs from 1e+308 to inf; a plan file holds finite times only\n"),
])
def test_gen_rejects_times_a_plan_file_cannot_hold(tmp_path, capsys, dur, density, message):
    out = tmp_path / "plan.cp"
    code, stdout, err = run_cli(capsys, "gen", "--nodes", 3, "--states", 2, "--dur", dur,
                                "--density", density, "--seed", 1, "--out", out)
    assert (code, stdout, err) == (1, "", message)
    assert not out.exists()


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


def test_validate_reports_underflowing_state_duration(tmp_path, capsys):
    bad = tmp_path / "bad.cp"
    bad.write_text("plan 3 1e-320\ncontact 1 1 2 0 10 5\n")
    code, out, _ = run_cli(capsys, "validate", "--plan", bad)
    assert code == 1
    assert "off-grid-timestamp [contact 1]: end 10.0" in out


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


@pytest.mark.parametrize("t_now", [["--t-now", "nan"], ["--t-now", "inf"], ["--t-now=-inf"]])
def test_routes_rejects_a_non_finite_t_now(plan_file, capsys, t_now):
    code, out, err = run_cli(capsys, "routes", "--plan", plan_file, "--owner", "1", *t_now)
    assert code == 1
    assert out == ""
    assert "error: t_now must be a finite number" in err


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


def test_lp_solves_verifies_and_saves(
    plan_file, demands_file, perstate_demands_file, capsys, tmp_path
):
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

    # Per-state traffic: four classes, two model commodities. The export
    # shows the merged model; the flows CSV and the saved solution stay
    # per class.
    code, out, _ = run_cli(
        capsys, "lp", "--soft", "--plan", plan_file, "--demands", perstate_demands_file,
        "--export-lp", lp_text, "--flows-csv", flows, "--save-solution", saved,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] == pytest.approx(4 * 2 + 4 * 2 + 8 * 3)
    assert doc["delivery_ratio"] == 1.0
    text = lp_text.read_text()
    assert "_k1" in text and "_k2" not in text
    # The state-1 class at node 1 is bounded at its generation timestamp.
    assert "Bounds\n B_t1_n1_k0 >= 4\n" in text
    rows = flows.read_text().strip().split("\n")[1:]
    assert {row.split(",")[4] for row in rows} >= {"1", "2", "3"}
    # Each deadline class crosses contact 2 in state 2 with its own units.
    by_class = {row.split(",")[4]: row for row in rows if row.startswith("2,2,")}
    assert by_class["2"].startswith("2,2,2,3,2,2,3,0.0,20.0,4.0")
    assert by_class["3"].startswith("2,2,2,3,3,2,3,10.0,10.0,4.0")
    solution = json.loads(saved.read_text())
    assert {k for _, _, k, _ in solution["x"]} >= {1, 2, 3}
    assert {k for _, _, k, _ in solution["b"]} == {0, 1, 2, 3}
    assert [k for k, _ in solution["slack"]] == [0, 1, 2, 3]


def test_lp_reports_infeasible(plan_file, tmp_path, capsys):
    demands = tmp_path / "tight.json"
    demands.write_text(
        demands_to_json([Demand(1, 3, 0.0, 10.0, 10), Demand(2, 3, 0.0, 10.0, 10)])
    )
    code, out, _ = run_cli(capsys, "lp", "--plan", plan_file, "--demands", demands)
    assert code == 0
    assert json.loads(out) == {"status": "infeasible"}


def test_lp_deadline_past_a_subnormal_grid_clamps_to_its_end(tmp_path, capsys):
    # The 20 s deadline lies far past the 3e-320 s horizon.
    plan = tmp_path / "tiny.cp"
    plan.write_text("plan 3 1e-320\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 0 1e-320 5\n")
    demands = tmp_path / "demands.json"
    demands.write_text('[{"src": 1, "dst": 2, "t_gen": 0, "ttl": 20, "count": 1}]')
    code, out, _ = run_cli(capsys, "lp", "--plan", plan, "--demands", demands)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["delivery_ratio"] == 1.0


def test_verify_accepts_saved_solution(
    plan_file, demands_file, perstate_demands_file, tmp_path, capsys
):
    # The per-state solution is split back from a merged model; verify
    # re-checks it against the per-class model.
    saved = tmp_path / "solution.json"
    for demands, flags in ((demands_file, []), (perstate_demands_file, ["--soft"])):
        code, _, _ = run_cli(capsys, "lp", *flags, "--plan", plan_file, "--demands", demands,
                             "--save-solution", saved)
        assert code == 0
        code, out, _ = run_cli(
            capsys, "verify", *flags, "--plan", plan_file, "--demands", demands,
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


def test_verify_reports_a_nan_solution_as_an_error(plan_file, demands_file, tmp_path, capsys):
    saved = tmp_path / "solution.json"
    run_cli(capsys, "lp", "--plan", plan_file, "--demands", demands_file,
            "--save-solution", saved)
    doc = json.loads(saved.read_text())
    doc["x"][0][3] = "NUMBER"
    saved.write_text(json.dumps(doc).replace('"NUMBER"', "NaN"))
    code, out, err = run_cli(
        capsys, "verify", "--plan", plan_file, "--demands", demands_file,
        "--solution", saved,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed solution document")
    assert "Traceback" not in err


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


@pytest.fixture
def one_contact_plan(tmp_path):
    path = tmp_path / "one.cp"
    path.write_text("plan 10 10\nnode 1 inf\nnode 2 inf\ncontact 1 1 2 10 20 5\n")
    return path


def _one_packet(tmp_path, ttl):
    path = tmp_path / "one.json"
    path.write_text(f'[{{"src": 1, "dst": 2, "t_gen": 0, "ttl": {ttl}, "count": 1}}]')
    return path


@pytest.mark.parametrize("command", [
    ["sim", "--policy", "deltime"], ["sim", "--policy", "hops"], ["lp"], ["lp", "--soft"],
])
def test_a_nan_ttl_is_rejected(one_contact_plan, tmp_path, capsys, command):
    demands = _one_packet(tmp_path, "NaN")
    code, out, err = run_cli(
        capsys, *command[:1], "--plan", one_contact_plan, "--demands", demands, *command[1:]
    )
    assert (code, out) == (1, "")
    assert err == "error: demand 0 is malformed: ttl must be a finite number, got NaN\n"


@pytest.mark.parametrize("exponent", ["nan", "inf", "0", "-1", "400", "1e-300"])
def test_lp_rejects_a_weight_exponent_without_increasing_weights(
    one_contact_plan, tmp_path, capsys, exponent
):
    demands = _one_packet(tmp_path, "null")
    code, out, err = run_cli(
        capsys, "lp", "--plan", one_contact_plan, "--demands", demands,
        "--weight-exponent", exponent,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: weight exponent")


@pytest.mark.parametrize("exponent", [0.0, float("nan"), 400.0])
def test_sweep_rejects_a_weight_exponent_without_increasing_weights(tmp_path, capsys, exponent):
    config = {
        "topology": {"node_count": 6, "density": 0.3, "capacity": 5,
                     "states": 10, "state_duration": 10.0},
        "traffic": {"destination": 6, "no_ttl_sources": [1, 2],
                    "ttl_sources": [3, 4], "ttl_value": 20.0},
        "schemes": ["DELTIME", "HOPS", "LP"],
        "seeds": [1],
        "loads": [1],
        "lp": {"weight_exponent": exponent, "soft": False},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "run"
    code, out, err = run_cli(capsys, "sweep", "--config", config_path, "--out", out_dir)
    assert (code, out) == (1, "")
    assert err.startswith("error: lp: weight exponent")
    assert not out_dir.exists()


_NOT_INTEGERS = [
    ("true", "an integer, got true"),
    ("1.5", "an integer, got 1.5"),
    ('"1"', 'an integer, got "1"'),
    ("1e400", "an integer, got Infinity"),
    (str(10**30), f"at most 2**53 in magnitude, got {10**30}"),
]
_NOT_FINITE_NUMBERS = [
    ("ttl", '"5"', '"5"'),
    ("ttl", '"inf"', '"inf"'),
    ("ttl", "1e400", "Infinity"),
    ("ttl", "-Infinity", "-Infinity"),
    ("ttl", "true", "true"),
    ("t_gen", '"10"', '"10"'),
    ("t_gen", "true", "true"),
    ("t_gen", "null", "null"),
    ("t_gen", "NaN", "NaN"),
    ("t_gen", "1e400", "Infinity"),
]


@pytest.mark.parametrize("field, value, shown", [
    *((field, value, shown) for field in ("src", "dst", "count") for value, shown in _NOT_INTEGERS),
    *((field, value, f"a finite number, got {shown}") for field, value, shown in _NOT_FINITE_NUMBERS),
    pytest.param("t_gen", str(10**400), f"a finite number, got {10**400}", id="t_gen-10**400"),
])
def test_a_demand_field_of_the_wrong_type_is_rejected(
    one_contact_plan, tmp_path, capsys, field, value, shown
):
    entry = {"src": "1", "dst": "2", "t_gen": "0", "ttl": "null", "count": "1", field: value}
    demands = tmp_path / "bad.json"
    demands.write_text("[{" + ", ".join(f'"{k}": {v}' for k, v in entry.items()) + "}]")
    for command in (["sim", "--policy", "hops"], ["lp"], ["lp", "--soft"]):
        code, out, err = run_cli(
            capsys, *command, "--plan", one_contact_plan, "--demands", demands
        )
        assert (code, out) == (1, "")
        assert err == f"error: demand 0 is malformed: {field} must be {shown}\n"


# SHA-256 of every replayed output that does not depend on the LP solver,
# on one plan with 10 s states and one with 0.1 s states, with route tables
# at t = 0 and in the middle of state 3. The LP objective,
# metrics, flows and saved solution are left out: another HiGHS build may
# pick another optimum among ties.
PINNED_OUTPUTS = {
    10.0: {
        "gen": "92d7cd53c90246759283e0f632ecbda2b59bd4e9dee616fb2c920890a0e234fb",
        "routes --t-now 0": "694c039f431133134bb4dc1cb423b30f45e0f28dd94f9a4a557bf37f255a2634",
        "routes --t-now 25": "b9f9f617fc853663a8ab448ec6a720198331b46b86a22784dea06bbd8ed1f85f",
        "sim deltime": "3d2c2db2169480bcea2280c44faab75f18313f4644aa044a6f24442fa93526a2",
        "sim deltime --packets-csv": "b5ee88c6ea06a85a1778b428daa2dc43f62527f6e89a534c7d71e56088470bb1",
        "sim hops": "e7d6394cdc2038b6b5d1ecccad1f99248e2211c6a14eefb6bc41ad9fa328117c",
        "sim hops --packets-csv": "9709f45f6d06dcf716406baf217ebba8dd87c431c08a633e156acbe33ecce29b",
        "lp --export-lp": "06cf8f2bdd4c21b4d66ae835bcac55b7cff8431af854a48ae0cd6392eb8e699b",
        "lp --soft --export-lp": "cac753855331d437fc3e876b2cc3f8782eeb541cf1804a8b6cf52eee06b613be",
    },
    0.1: {
        "gen": "c889a8d0f533ca09770483f6e6a449efe4b55f05d93612bf18ed2f2fe8499f31",
        "routes --t-now 0": "460d41d6efd9980e97884aa1473e697415a5c2ba0edd68fb1cf4e46e7b7cd07e",
        "routes --t-now 0.25": "860c8bff656ce19abeb7381c78faf0c19815dfa6a5d00bd6b14dd50c8cb9f1e5",
        "sim deltime": "0cdd72abf0914e9ae9fdea4798311463527066a8582b89b45dde326552080b60",
        "sim deltime --packets-csv": "aab75196086c4842498802bf62fed5c1d09490e3f887ff59f4a1d9859ce5e12a",
        "sim hops": "6ce2b51686a6bfbfa9a259feab482c24e030a0bfcb13fa2f2cceb3d7b776a4d1",
        "sim hops --packets-csv": "1f7bbb516bab367c466cb597c18d147c353abb1bb716eb7a83a060d40ecca0a5",
        "lp --export-lp": "06cf8f2bdd4c21b4d66ae835bcac55b7cff8431af854a48ae0cd6392eb8e699b",
        "lp --soft --export-lp": "527ffebf93c88e21874bb5bd82cbd27fdfd218f19e3886285d1c0f0239b4a5dc",
    },
}


def _replayed_outputs(tmp_path, capsys, dur: float, t_later: str) -> dict[str, str]:
    """Digest of each command's stdout or written file, by command."""
    digests = {}

    def digest(name: str, text: str) -> None:
        digests[name] = hashlib.sha256(text.encode()).hexdigest()

    code, plan_text, _ = run_cli(capsys, "gen", "--nodes", 8, "--states", 6, "--dur", dur,
                                 "--density", 0.4, "--capacity", 3, "--seed", 7)
    assert code == 0
    digest("gen", plan_text)
    plan = tmp_path / "plan.cp"
    plan.write_text(plan_text)
    grid = StateGrid(6, dur)
    demands = tmp_path / "demands.json"
    demands.write_text(demands_to_json([
        Demand(src, 8, grid.state_start(q), math.inf if src <= 2 else 2 * dur, 3)
        for q in range(1, 7)
        for src in range(1, 5)
    ]))
    for t_now in ("0", t_later):
        code, out, _ = run_cli(capsys, "routes", "--plan", plan, "--owner", 1, "-k", 4,
                               "--t-now", t_now)
        assert code == 0
        digest(f"routes --t-now {t_now}", out)
    for policy in ("deltime", "hops"):
        packets = tmp_path / f"{policy}.csv"
        code, out, _ = run_cli(capsys, "sim", "--plan", plan, "--demands", demands,
                               "--policy", policy, "--packets-csv", packets)
        assert code == 0
        digest(f"sim {policy}", out)
        digest(f"sim {policy} --packets-csv", packets.read_text())
    for flags in ((), ("--soft",)):
        export = tmp_path / "model.lp"
        # The export is written before the solve, whatever its outcome.
        run_cli(capsys, "lp", "--plan", plan, "--demands", demands, *flags, "--export-lp", export)
        digest(" ".join(("lp", *flags, "--export-lp")), export.read_text())
    return digests


@pytest.mark.parametrize("dur, t_later", [(10.0, "25"), (0.1, "0.25")])
def test_replayed_outputs_are_pinned(tmp_path, capsys, dur, t_later):
    assert _replayed_outputs(tmp_path, capsys, dur, t_later) == PINNED_OUTPUTS[dur]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["lp", "verify"])
def test_tol_must_be_finite_and_nonnegative(plan_file, demands_file, tmp_path, capsys, command, tol):
    # A NaN or infinite tol certifies anything (every check is residual >
    # tol) and a negative one fails exact values: both commands refuse one.
    saved = tmp_path / "solution.json"
    run_cli(capsys, "lp", "--plan", plan_file, "--demands", demands_file,
            "--save-solution", saved)
    doc = json.loads(saved.read_text())
    doc["x"][0][3] += 5.0
    saved.write_text(json.dumps(doc))
    extra = ["--solution", saved] if command == "verify" else []
    code, out, err = run_cli(
        capsys, command, "--plan", plan_file, "--demands", demands_file, f"--tol={tol}", *extra
    )
    assert (code, out) == (1, "")
    assert err == f"error: tol must be a finite number >= 0, got {float(tol)}\n"
