import json
import math
from decimal import Decimal

import numpy as np
import pytest

from edgeflight.cli import EXIT_CONFIG, EXIT_OK, EXIT_STUCK, main
from edgeflight.config import (
    PRESETS,
    config_from_dict,
    config_to_dict,
    default_config,
    preset_config,
    sensor_reach_m,
)
from edgeflight.scenario import _MAX_RAY_TABLE_ENTRIES, HeightField, ScenarioConfig, grid_cell
from edgeflight.worldmap import ExploredMap, sense
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


@pytest.mark.parametrize("tick_s", [0.05, 0.25])
def test_time_columns_print_every_tick_as_an_exact_multiple(tmp_path, small_config_path, tick_s,
                                                           capsys):
    # printed to 0.1 s, 0.05 s ticks once read 0.0, 0.1, 0.1, 0.2, 0.2, 0.2
    # and 0.25 s ticks 0.2, 0.5, 0.8; `run`'s summary line once printed
    # 43.9 s where its metrics.csv held 43.95
    d = json.loads(small_config_path.read_text())
    d["sim"]["tick_s"] = tick_s
    cfg = tmp_path / "tick.json"
    cfg.write_text(json.dumps(d))
    out = tmp_path / "b"
    rc = main(["batch", "--config", str(cfg), "--out", str(out), "--episodes", "2",
               "--planners", "global", "--export-trajectories"])
    assert rc == EXIT_OK

    def rows(name, where=out):
        lines = [l for l in (where / name).read_text().splitlines() if not l.startswith("#")]
        return [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]

    tick = Decimal(repr(tick_s))
    durations = []
    for ep in rows("episodes.csv"):
        times = [r["time_s"] for r in rows(f"trajectory_ep{int(ep['episode']):03d}_global.csv")]
        assert times == [f"{k * tick:.2f}" for k in range(len(times))]
        assert ep["reached"] == "1" and Decimal(ep["duration_s"]) == len(times) * tick
        durations.append(Decimal(ep["duration_s"]))
    (agg,) = rows("aggregate.csv")
    assert agg["total_duration_s"] == f"{sum(durations):.2f}"

    run_out = tmp_path / "r"
    capsys.readouterr()
    rc = main(["run", "--config", str(cfg), "--out", str(run_out), "--planners", "global"])
    assert rc == EXIT_OK
    (summary,) = capsys.readouterr().out.splitlines()
    (m,) = rows("metrics.csv", run_out)
    assert f"duration {m['duration_s']} s," in summary
    assert Decimal(m["duration_s"]) % tick == 0


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
    ('{"sim": {"tick_s": 0}}', [], "sim.tick_s"),
    ('{"sim": {"timeout_s": 0}}', [], "sim.timeout_s"),
    ('{"scenario": {"cell_size_m": 0}}', [], "scenario.cell_size_m"),
    ('{"scenario": {"map_size_m": [200, 0]}}', [], "scenario.map_size_m"),
    ('{"scenario": {"bs_height_m": 0}}', [], "scenario.bs_height_m"),
    ('{"scenario": {"uav_altitude_m": 0}}', [], "scenario.uav_altitude_m"),
    ('{"scenario": {"n_bs": 0}}', [], "scenario.n_bs"),
    ('{"channel": {"carrier_hz": 0}}', [], "channel.carrier_hz"),
    ('{"offload": {"frame_bits": 0}}', [], "offload.frame_bits"),
    ('{"sensor": {"fov_deg": 0}}', [], "sensor.fov_deg"),
    ('{"sensor": {"range_m": 0}}', [], "sensor.range_m"),
    ('{"planner": {"safety_margin_cells": 0}}', [], "planner.safety_margin_cells"),
    ('{"planner": {"commit_within_sensed": true}}', [], "unknown keys in [planner]"),
    ('{"sim": 3}', [], "[sim]"),
    ('[1]', [], "config root"),
    # integers too large for a float: a float field and an integer field
    pytest.param('{"sim": {"timeout_s": 1%s}}' % ("0" * 400), [], "sim.timeout_s",
                 id="timeout_s-1e400-int"),
    pytest.param('{"scenario": {"n_bs": 1%s}}' % ("0" * 400), [], "scenario.n_bs",
                 id="n_bs-1e400-int"),
    ('{"sim": {"sticky_nlos": false}}', [], "unknown keys in [sim]"),
])
def test_malformed_value_is_config_error_naming_the_field(tmp_path, capsys, text, extra, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x"), *extra])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize("text, field", [
    # 40 base stations a quarter diagonal apart do not fit on a 100 m map
    ('{"scenario": {"map_size_m": [100, 100], "endpoint_distance_m": [40, 80], "n_bs": 40}}',
     "scenario.n_bs"),
    # a shell wider than the default map leaves no free cell
    ('{"planner": {"safety_margin_cells": 1%s}}' % ("0" * 400), "planner.safety_margin_cells"),
], ids=["n_bs-40", "margin-1e400-int"])
def test_placement_failure_is_scenario_error_naming_the_field(tmp_path, capsys, text, field):
    cfg = tmp_path / "crowded.json"
    cfg.write_text(text)
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and field in err
    assert not (tmp_path / "x" / "city.grid").exists()


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


@pytest.mark.parametrize("section, values, field", [
    ("channel", {"plos_a": 1e308}, "channel.plos_a"),            # exp overflows
    ("channel", {"plos_b": 1e308}, "channel.plos_b"),            # exponent overflows
    ("channel", {"plos_b": -1e308}, "channel.plos_b"),           # exponent overflows
    ("offload", {"frames_per_meter": 5e-324}, "offload.frames_per_meter"),  # speeds overflow
    # a remote frame that costs no time: the per-tick rate divided by zero
    ("offload", {"frame_bits": 5e-324, "feedback_bits": 0.0, "remote_processing_s": 0.0},
     "offload.frame_bits"),
])
def test_overflowing_link_curve_or_frame_rate_is_config_error_naming_the_field(
        tmp_path, capsys, section, values, field):
    # before the checks each ran on a 100 m default map and printed a numpy
    # overflow warning, then exited 0; the zero-time frame raised
    # ZeroDivisionError instead
    assert_100m_run_is_config_error_naming(tmp_path, capsys, section, values, field)


@pytest.mark.parametrize("section, values, field", [
    ("scenario", {"cell_size_m": 5e-324}, "scenario.cell_size_m"),  # infinitely many cells
    ("scenario", {"cell_size_m": 1e12}, "scenario.cell_size_m"),    # not one cell
    ("scenario", {"rayleigh_scale_m": 1e308}, "scenario.rayleigh_scale_m"),  # heights overflow
    ("sim", {"tick_s": 1e308}, "sim.tick_s"),                       # a tick's frames overflow
    ("sim", {"tick_s": 1e-300}, ("sim.tick_s", "offload.v_max_mps")),  # a tick moves nothing
])
def test_grid_height_or_tick_outside_a_float_is_config_error_naming_the_field(
        tmp_path, capsys, section, values, field):
    # before the checks the cell sizes raised OverflowError and
    # ZeroDivisionError, the height scale a numpy overflow warning and the
    # tick OverflowError while counting its frames; the 1e-300 s tick was
    # accepted, and none of its 6e302 ticks could move the vehicle
    assert_100m_run_is_config_error_naming(tmp_path, capsys, section, values, field)


def assert_100m_run_is_config_error_naming(tmp_path, capsys, section, values, field):
    d = config_to_dict(default_config(seed=4))
    d["scenario"]["map_size_m"] = [100.0, 100.0]
    d["scenario"]["endpoint_distance_m"] = [40.0, 80.0]
    d[section].update(values)
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(d))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for name in (field,) if isinstance(field, str) else field:
        assert name in err
    assert not (tmp_path / "x").exists()


def test_huge_replan_period_flies_like_a_merely_large_one(tmp_path):
    # 1e308 / tick_s overflows to inf; the run once died counting the ticks of
    # its fly-ahead window with OverflowError
    bodies = []
    for period in (1e308, 1e300):
        d = config_to_dict(default_config(seed=4))
        d["scenario"]["map_size_m"] = [100.0, 100.0]
        d["scenario"]["endpoint_distance_m"] = [40.0, 80.0]
        d["planner"]["replan_period_s"] = period
        cfg = tmp_path / f"replan_{period}.json"
        cfg.write_text(json.dumps(d))
        out = tmp_path / f"out_{period}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        text = (out / "metrics.csv").read_text()
        bodies.append([l for l in text.splitlines() if not l.startswith("#")])
    assert bodies[0] == bodies[1]
    assert len(bodies[0]) == 4  # header and three arms


def test_power_check_accepts_the_presets_golden_and_dead_link_configs(small_config_path):
    from test_golden import golden_config

    configs = [preset_config(name) for name in PRESETS]
    configs.append(golden_config())
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


@pytest.mark.parametrize("range_m, code", [(10.5, EXIT_CONFIG), (10.7, EXIT_OK)])
def test_sensor_range_short_of_a_neighbouring_centre_is_config_error(
        tmp_path, capsys, range_m, code):
    # on 5 m cells a diagonal neighbour's centre can lie 1.5 * sqrt(2) * 5 =
    # 10.61 m from the vehicle; below that range a vehicle whose next hop is
    # such a centre never senses it, and stands until the timeout
    d = config_to_dict(default_config())
    d["sensor"]["range_m"] = range_m
    cfg = tmp_path / "sensor.json"
    cfg.write_text(json.dumps(d))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == code
    err = capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert err.startswith("config error:")
        assert "sensor.range_m" in err and "scenario.cell_size_m" in err
        assert not (tmp_path / "x").exists()
    else:
        assert err == "" and (tmp_path / "x" / "metrics.csv").is_file()


@pytest.mark.parametrize("s", [0.7, 4.2, 1.1, 0.3, 5.0])
def test_smallest_accepted_sensor_range_sees_every_hinted_diagonal_neighbour(
        tmp_path, capsys, s):
    """The corner probe: from every cell corner of an 80 x 80 grid, a 1e-9 deg
    wedge at the smallest range Config accepts, turned by the planner's
    heading hint toward the farthest diagonal neighbour's centre, reveals it.
    The other three diagonal neighbours lie at most sqrt(2.5) cells away.
    On all but 5 m cells `sense` rounds some of those centres up to
    1.4e-14 m beyond 1.5 * sqrt(2) * s. One representable range below, the
    CLI exits 2."""
    n = 80
    d = config_to_dict(default_config())
    d["scenario"].update(map_size_m=[n * s, n * s], cell_size_m=s,
                         building_footprint_m=3 * s, street_width_m=6 * s)
    reach = sensor_reach_m(s, (n * s, n * s))
    d["sensor"] = {"fov_deg": 1e-9, "range_m": reach}
    sensor = config_from_dict(d).sensor
    truth = HeightField(np.zeros((n, n)), s)
    explored = ExploredMap(n, n, s)
    missed = []
    for a in range(1, n):
        for b in range(1, n):
            p = np.array([a * s, b * s, 50.0])
            ix, iy = grid_cell(p, s, n, n)
            # the diagonal neighbour farther from p on each axis
            cell = tuple(i + (1 if i * s == c else -1) for i, c in zip((ix, iy), p[:2]))
            if not all(0 <= i < n for i in cell):
                continue
            ahead = truth.cell_center(*cell)
            hint = math.degrees(float(np.arctan2(ahead[1] - p[1], ahead[0] - p[0])))
            explored.known[:] = False
            sense(truth, explored, p, hint, sensor)
            if not explored.known[cell]:
                missed.append((a, b))
    assert not missed, missed[:5]
    d["sensor"]["range_m"] = math.nextafter(reach, 0.0)
    cfg = tmp_path / "sensor.json"
    cfg.write_text(json.dumps(d))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "sensor.range_m" in err and "scenario.cell_size_m" in err
