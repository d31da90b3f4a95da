import math

import pytest

from cgrlab import experiments
from cgrlab.contact_plan import StateGrid, TopologyConfig
from cgrlab.experiments import (
    CellResult,
    ConfigError,
    LpConfig,
    RoutingConfig,
    ScenarioConfig,
    SweepResult,
    TrafficConfig,
    build_scenario,
    rows_from_csv,
    run_sweep,
    summarize,
    write_sweep_outputs,
)
from cgrlab.forwarding import Policy
from cgrlab.lp_oracle import build_lp, demands_to_commodities, lp_metrics, solve_lp
from cgrlab.simulator import compute_metrics, run_simulation


def study_config(**overrides) -> ScenarioConfig:
    base = dict(
        topology=TopologyConfig(11, 0.2, 10, StateGrid(10, 10.0), seed=0),
        traffic=TrafficConfig(
            destination=11,
            no_ttl_sources=(1, 2, 3, 4, 5),
            ttl_sources=(6, 7, 8, 9, 10),
            ttl_value=20.0,
        ),
        routing=RoutingConfig(k_routes=4),
        schemes=("DELTIME", "HOPS", "LP"),
        seeds=(1, 2),
        loads=(1, 3),
        lp=LpConfig(),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_build_scenario_default_parameters():
    plan, demands = build_scenario(study_config(), seed=7, load=2)
    assert len(plan.nodes) == 11
    assert plan.grid == StateGrid(10, 10.0)
    assert len(demands) == 10
    by_src = {d.src: d for d in demands}
    for src in (1, 2, 3, 4, 5):
        assert math.isinf(by_src[src].ttl)
    for src in (6, 7, 8, 9, 10):
        assert by_src[src].ttl == 20.0
    assert all(d.dst == 11 and d.t_gen == 0.0 and d.count == 2 for d in demands)


def test_build_scenario_zero_load():
    _, demands = build_scenario(study_config(), seed=1, load=0)
    assert demands == []


def test_build_scenario_all_infinite_ttl():
    cfg = study_config(
        traffic=TrafficConfig(
            destination=11,
            no_ttl_sources=(1, 2, 3),
            ttl_sources=(),
            ttl_value=20.0,
        )
    )
    _, demands = build_scenario(cfg, seed=1, load=1)
    assert demands and all(math.isinf(d.ttl) for d in demands)


def test_build_scenario_per_state_injection():
    cfg = study_config(
        traffic=TrafficConfig(
            destination=11,
            no_ttl_sources=(1,),
            ttl_sources=(),
            ttl_value=20.0,
            injection="per-state",
        )
    )
    _, demands = build_scenario(cfg, seed=1, load=2)
    assert len(demands) == 10  # one burst per state
    assert sorted(d.t_gen for d in demands) == [10.0 * q for q in range(10)]


def test_config_validation():
    with pytest.raises(ConfigError):
        study_config(
            traffic=TrafficConfig(11, (1, 2), (2, 3), 20.0)
        ).validate()  # overlapping groups
    with pytest.raises(ConfigError):
        study_config(
            traffic=TrafficConfig(5, (1, 2), (5,), 20.0)
        ).validate()  # destination sends to itself
    with pytest.raises(ConfigError):
        study_config(schemes=("DELTIME", "FLOOD")).validate()
    with pytest.raises(ConfigError):
        study_config(loads=()).validate()


def test_config_json_round_trip():
    cfg = study_config()
    again = ScenarioConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_single_cell_sweep():
    cfg = study_config(schemes=("DELTIME",), seeds=(3,), loads=(2,))
    result = run_sweep(cfg)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert (row.seed, row.load, row.scheme, row.status) == (3, 2, "DELTIME", "ok")
    assert row.metrics is not None


def test_sweep_covers_all_cells_and_is_sorted():
    cfg = study_config()
    result = run_sweep(cfg)
    assert len(result.rows) == 2 * 2 * 3
    keys = [(r.seed, r.load, r.scheme) for r in result.rows]
    order = {"DELTIME": 0, "HOPS": 1, "LP": 2}
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], order[k[2]]))


def test_sweep_is_deterministic():
    cfg = study_config()
    a = run_sweep(cfg).raw_csv()
    b = run_sweep(cfg).raw_csv()
    assert a == b


def test_lp_upper_bound_within_sweep():
    cfg = study_config(seeds=(1, 2, 3), loads=(2,))
    result = run_sweep(cfg)
    for seed in cfg.seeds:
        lp_row = result.cell(seed, 2, "LP")
        if lp_row.status != "ok":
            continue
        assert lp_row.metrics.delivery_ratio == pytest.approx(1.0)
        for scheme in ("DELTIME", "HOPS"):
            other = result.cell(seed, 2, scheme)
            assert lp_row.metrics.delivery_ratio >= other.metrics.delivery_ratio - 1e-9


def test_summarize_column_order_and_shape(fig1_plan, fig1_demands):
    # a hand-built one-seed sweep around the canonical three-node example
    cfg = study_config(
        topology=TopologyConfig(3, 0.2, 10, StateGrid(3, 10.0), seed=0),
        traffic=TrafficConfig(3, (1,), (2,), 20.0),
        seeds=(1,),
        loads=(10,),
    )
    rows = []
    for scheme, policy in (("DELTIME", Policy.DELTIME), ("HOPS", Policy.HOPS)):
        sim = run_simulation(fig1_plan, fig1_demands, policy, 2)
        rows.append(
            CellResult(
                seed=1,
                load=10,
                scheme=scheme,
                status="ok",
                metrics=compute_metrics(sim, fig1_demands),
                generated=sim.generated(),
                delivered_on_time=sim.count("delivered_on_time"),
                transmissions=sim.total_transmissions(),
            )
        )
    commodities = demands_to_commodities(fig1_demands)
    solution = solve_lp(build_lp(fig1_plan, commodities))
    rows.append(
        CellResult(
            seed=1,
            load=10,
            scheme="LP",
            status="ok",
            metrics=lp_metrics(fig1_plan, commodities, solution),
            generated=20.0,
            delivered_on_time=20.0,
            transmissions=solution.total_flow(),
        )
    )
    tables = summarize(SweepResult(config=cfg, rows=rows))
    assert set(tables) == {"delivery_ratio", "mean_hops", "mean_delay", "energy_efficiency"}
    lines = tables["delivery_ratio"].strip().split("\n")
    assert lines[0] == (
        "load,deltime_mean,deltime_std,deltime_n,hops_mean,hops_std,hops_n,"
        "lp_mean,lp_std,lp_n"
    )
    cells = lines[1].split(",")
    assert cells[0] == "10"
    assert float(cells[1]) == pytest.approx(0.5)  # earliest-delivery policy
    assert float(cells[4]) == pytest.approx(1.0)  # fewest-hops policy
    assert float(cells[7]) == pytest.approx(1.0)  # optimal flow bound


def test_undefined_metrics_excluded_from_aggregates():
    cfg = study_config(schemes=("DELTIME",), seeds=(1, 2), loads=(0,))
    result = run_sweep(cfg)
    tables = summarize(result)
    line = tables["delivery_ratio"].strip().split("\n")[1]
    assert line == "0,,,0"  # no defined values, count reported as zero


def test_write_outputs_round_trip(tmp_path):
    cfg = study_config(seeds=(1,), loads=(1,))
    result = run_sweep(cfg)
    paths = write_sweep_outputs(result, tmp_path)
    names = {p.name for p in paths}
    assert names == {
        "raw.csv",
        "delivery_ratio.csv",
        "mean_hops.csv",
        "mean_delay.csv",
        "energy_efficiency.csv",
        "manifest.json",
        "config.json",
    }
    rows = rows_from_csv((tmp_path / "raw.csv").read_text())
    assert rows == result.rows


def test_parallel_sweep_matches_serial():
    cfg = study_config(seeds=(1, 2, 3), loads=(1,), schemes=("DELTIME", "LP"))
    assert run_sweep(cfg, jobs=2).raw_csv() == run_sweep(cfg, jobs=1).raw_csv()


def test_failed_cell_keeps_its_row_and_prints_the_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiments, "run_simulation", broken)
    result = run_sweep(study_config(seeds=(1,), loads=(2,)))
    row = result.cell(1, 2, "HOPS")
    assert (row.status, row.error) == ("error", "RuntimeError: boom")
    assert result.cell(1, 2, "LP").status == "ok"
    assert "RuntimeError: boom" in result.raw_csv()
    err = capsys.readouterr().err
    assert "cell seed=1 load=2 scheme=HOPS failed:" in err
    assert "Traceback (most recent call last)" in err
    assert 'raise RuntimeError("boom")' in err
