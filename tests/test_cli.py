import json

import pytest

from edgeflight.cli import EXIT_CONFIG, EXIT_OK, main
from edgeflight.config import config_to_dict, default_config
from edgeflight.gridfile import load_grid


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
