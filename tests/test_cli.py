import json

import pytest

from edgeflight.cli import EXIT_CONFIG, EXIT_OK, EXIT_STUCK, main
from edgeflight.config import (
    PRESETS,
    config_from_dict,
    config_to_dict,
    default_config,
    preset_config,
)
from edgeflight.scenario import _MAX_RAY_TABLE_ENTRIES, ScenarioConfig
from oracles import load_grid


@pytest.fixture()
def small_config_path(tmp_path):
    import dataclasses

    cfg = default_config(seed=4)
    cfg = dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(
            cfg.scenario,
            map_size_m=(200.0, 200.0),
            endpoint_distance_m=(80.0, 160.0),
        ),
    )
    p = tmp_path / "small.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    return p


def test_generate_writes_grid_and_scenario(tmp_path, small_config_path):
    out = tmp_path / "world"
    rc = main(["generate", "--config", str(small_config_path), "--out", str(out)])
    assert rc == EXIT_OK
    heights, s = load_grid(out / "city.grid")
    assert heights.shape == (40, 40)
    assert s == 5.0
    doc = json.loads((out / "scenario.json").read_text())
    assert doc["rng_seed"] == 4
    assert len(doc["bs_positions"]) == 3
    assert any("master_seed 4" in line for line in doc["provenance"])
    grid_text = (out / "city.grid").read_text()
    assert "# edgeflight v" in grid_text
    assert "# config sha256:" in grid_text


def test_run_writes_metrics_and_trajectories(tmp_path, small_config_path):
    out = tmp_path / "mission"
    rc = main([
        "run", "--config", str(small_config_path), "--out", str(out),
        "--planners", "baseline,global",
    ])
    assert rc == EXIT_OK
    text = (out / "metrics.csv").read_text()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("kind,distance_m,duration_s")
    assert {l.split(",")[0] for l in lines[1:]} == {"baseline", "global"}
    assert (out / "trajectory_baseline.csv").exists()
    assert (out / "trajectory_global.csv").exists()
    assert not (out / "trajectory_explored.csv").exists()
    tlines = (out / "trajectory_global.csv").read_text().splitlines()
    header = next(l for l in tlines if not l.startswith("#"))
    assert header.startswith("time_s,x_m,y_m,z_m,speed_mps")


def test_batch_is_byte_deterministic(tmp_path, small_config_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main([
            "batch", "--config", str(small_config_path), "--out", str(out),
            "--episodes", "2", "--export-trajectories",
        ])
        assert rc == EXIT_OK
        outs.append(out)
    for fname in ("episodes.csv", "aggregate.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    logs0 = sorted(p.name for p in outs[0].glob("trajectory_ep*.csv"))
    logs1 = sorted(p.name for p in outs[1].glob("trajectory_ep*.csv"))
    assert logs0 == logs1 and len(logs0) == 6
    for name in logs0:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_seed_override_changes_output(tmp_path, small_config_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    main(["generate", "--config", str(small_config_path), "--out", str(out1)])
    main(["generate", "--config", str(small_config_path), "--seed", "99",
          "--out", str(out2)])
    g1, _ = load_grid(out1 / "city.grid")
    g2, _ = load_grid(out2 / "city.grid")
    assert g1.shape == g2.shape
    assert (g1 != g2).any()
    doc = json.loads((out2 / "scenario.json").read_text())
    assert doc["rng_seed"] == 99


def test_config_and_preset_conflict(tmp_path, small_config_path, capsys):
    rc = main([
        "generate", "--config", str(small_config_path), "--preset", "flat",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_unknown_planner_is_config_error(tmp_path, small_config_path, capsys):
    rc = main([
        "run", "--config", str(small_config_path), "--planners", "psychic",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == EXIT_CONFIG
    assert "unknown planner" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "batch"])
def test_repeated_planner_is_config_error_naming_it(tmp_path, small_config_path, capsys,
                                                    command):
    out = tmp_path / "x"
    rc = main([
        command, "--config", str(small_config_path), "--planners", "global,explored, global",
        "--out", str(out),
    ])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'global'" in err and "--planners" in err
    assert not out.exists()


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", ["generate", "run", "batch"])
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, small_config_path, capsys,
                                                        command, under_file):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under_file else afile
    extra = ["--episodes", "1"] if command == "batch" else []
    rc = main([command, "--config", str(small_config_path), "--out", str(out), *extra])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--out" in err and str(out) in err
    assert afile.read_text() == "kept\n"


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["generate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG


def test_negative_nlos_penalty_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "neg.json"
    cfg.write_text(json.dumps({"planner": {"nlos_penalty": -2}}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    assert "nlos_penalty" in capsys.readouterr().err


def test_batch_rejects_non_positive_episodes(tmp_path, capsys):
    for n in ("0", "-1"):
        rc = main(["batch", "--preset", "default", "--episodes", n,
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG
        assert "--episodes" in capsys.readouterr().err


@pytest.mark.parametrize("text, extra, field", [
    ('{"scenario": {"map_size_m": ["a", 200]}}', [], "map_size_m"),
    ('{"sim": {"tick_s": NaN}}', [], "tick_s"),
    ('{"sim": {"timeout_s": Infinity}}', [], "timeout_s"),
    ('{"scenario": {"n_bs": 1.5}}', [], "n_bs"),
    ('{"scenario": {"rng_seed": -1}}', [], "rng_seed"),
    ('{}', ["--seed", "-1"], "rng_seed"),
    ('{"planner": {"horizon_s": NaN}}', [], "horizon_s"),
    ('{"sim": {"tick_s": "x"}}', [], "tick_s"),
])
def test_malformed_value_is_config_error_naming_the_field(tmp_path, capsys, text, extra, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x"), *extra])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


def test_map_too_large_for_memory_is_config_error(tmp_path, capsys):
    # 6e6 x 6e6 cells of 5 m: ScenarioConfig's ray-table budget rejects the
    # config before any grid is allocated, so this exits at once on any host
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"scenario": {"map_size_m": [3e7, 3e7],
                                            "street_width_m": 1e4}}))
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "scenario.map_size_m" in err and "scenario.cell_size_m" in err


def test_map_just_over_the_ray_table_budget_is_config_error(tmp_path, capsys):
    # three tables over 282 x 282 cells of 5 m need up to 6 * 282**3 entries,
    # just over the budget; 281 x 281 cells fit
    assert 6 * 281**3 <= _MAX_RAY_TABLE_ENTRIES < 6 * 282**3
    ScenarioConfig(map_size_m=(1405.0, 1405.0))
    cfg = tmp_path / "over.json"
    cfg.write_text(json.dumps({"scenario": {"map_size_m": [1410.0, 1410.0]}}))
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "scenario.map_size_m" in err and "scenario.cell_size_m" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("altitude, codes", [
    (1e160, {EXIT_CONFIG}),          # its squared distances overflow
    (1e20, {EXIT_OK, EXIT_STUCK}),   # absurd but finite link budgets
])
def test_absurd_altitude_is_rejected_only_where_distances_overflow(
        tmp_path, capsys, small_config_path, altitude, codes):
    d = json.loads(small_config_path.read_text())
    d["scenario"]["uav_altitude_m"] = altitude
    cfg = tmp_path / "alt.json"
    cfg.write_text(json.dumps(d))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc in codes
    if rc == EXIT_CONFIG:
        assert "scenario.uav_altitude_m" in capsys.readouterr().err


@pytest.mark.parametrize("channel, field", [
    ({"bs_tx_power_dbm": -4000}, "channel.bs_tx_power_dbm"),  # received powers underflow
    ({"nlos_excess_db": 4000}, "channel.nlos_excess_db"),     # NLoS powers underflow
    ({"bs_tx_power_dbm": 4000}, "channel.bs_tx_power_dbm"),   # received powers overflow
    ({"noise_figure_db": 4000}, "channel.noise_figure_db"),   # the noise power overflows
])
def test_power_outside_a_float_is_config_error_naming_the_field(
        tmp_path, capsys, small_config_path, channel, field):
    d = json.loads(small_config_path.read_text())
    d["channel"].update(channel)
    cfg = tmp_path / "power.json"
    cfg.write_text(json.dumps(d))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("offload, field", [
    ({"v_max_mps": 5e-324}, "offload.v_max_mps"),                # every speed underflows
    ({"frames_per_meter": 1e308}, "offload.frames_per_meter"),   # local speed underflows
])
def test_speed_whose_path_costs_overflow_is_config_error_naming_the_field(
        tmp_path, capsys, small_config_path, offload, field):
    # before the check every arm printed [stuck] and the run exited 3, after
    # an overflow in the cost field's edge weights
    d = json.loads(small_config_path.read_text())
    d["offload"].update(offload)
    cfg = tmp_path / "speed.json"
    cfg.write_text(json.dumps(d))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert field in err
    assert not (tmp_path / "x").exists()


def test_power_check_accepts_the_presets_golden_and_dead_link_configs(small_config_path):
    from test_golden import golden_config

    configs = [preset_config(name) for name in PRESETS]
    configs += [golden_config(), golden_config(sticky_nlos=False)]
    for cfg in configs:
        assert config_from_dict(config_to_dict(cfg)) == cfg
    # a dead link: no local processing and an uplink that cannot carry a frame
    d = json.loads(small_config_path.read_text())
    d["channel"]["uav_tx_power_dbm"] = -60.0
    d["offload"]["local_fps"] = 0.0
    assert config_from_dict(d).channel.uav_tx_power_dbm == -60.0


def test_memory_error_outside_the_map_grid_keeps_its_traceback(
        monkeypatch, small_config_path, tmp_path):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("edgeflight.cli.run_episode", out_of_memory)
    with pytest.raises(MemoryError):
        main(["run", "--config", str(small_config_path), "--out", str(tmp_path / "x")])
