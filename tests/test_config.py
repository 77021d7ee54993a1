import json

import pytest

from edgeflight.config import (
    Config,
    config_digest,
    config_from_dict,
    config_to_dict,
    default_config,
    flat_city_config,
    load_config,
    preset_config,
    with_seed,
)
from edgeflight.errors import ConfigError


def test_roundtrip_through_file(tmp_path):
    cfg = default_config(seed=9)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config_to_dict(cfg)))
    back = load_config(p)
    assert back == cfg
    assert config_digest(back) == config_digest(cfg)


def test_empty_object_is_all_defaults():
    assert config_from_dict({}) == Config()


def test_partial_sections_fill_defaults():
    cfg = config_from_dict({"offload": {"v_max_mps": 10.0}})
    assert cfg.offload.v_max_mps == 10.0
    assert cfg.offload.frame_bits == Config().offload.frame_bits
    assert cfg.channel == Config().channel


def test_tuple_fields_accept_lists():
    cfg = config_from_dict({"scenario": {"map_size_m": [300.0, 200.0]}})
    assert cfg.scenario.map_size_m == (300.0, 200.0)
    d = config_to_dict(cfg)
    assert d["scenario"]["map_size_m"] == [300.0, 200.0]


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"radio": {}})


def test_unknown_field_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"offload": {"warp_factor": 9}})


def test_invalid_value_surfaces_as_config_error():
    with pytest.raises(ConfigError):
        config_from_dict({"offload": {"v_max_mps": -1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": {"map_size_m": [300.0]}})


@pytest.mark.parametrize("field, value", [
    ("horizon_s", 0.0),
    ("replan_period_s", 0.0),
    ("nlos_penalty", -2.0),
    ("interference_weight", -0.5),
    ("safety_margin_cells", -1),
    ("safety_margin_cells", 0),
])
def test_planner_section_rejects_bad_value(field, value):
    with pytest.raises(ConfigError, match=field):
        config_from_dict({"planner": {field: value}})


def test_malformed_json_is_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_digest_tracks_content_not_formatting(tmp_path):
    cfg = default_config()
    d = config_to_dict(cfg)
    p = tmp_path / "spaced.json"
    p.write_text(json.dumps(d, indent=7))
    assert config_digest(load_config(p)) == config_digest(cfg)
    changed = with_seed(cfg, 1234)
    assert config_digest(changed) != config_digest(cfg)


def test_presets():
    assert preset_config("default") == default_config()
    flat = preset_config("flat")
    assert flat.scenario.rayleigh_scale_m == 0.0
    assert flat == flat_city_config()
    with pytest.raises(ConfigError):
        preset_config("imaginary")
    seeded = preset_config("flat", seed=5)
    assert seeded.scenario.rng_seed == 5


def test_with_seed_touches_only_the_seed():
    cfg = default_config(seed=0)
    other = with_seed(cfg, 42)
    assert other.scenario.rng_seed == 42
    assert config_to_dict(other)["offload"] == config_to_dict(cfg)["offload"]
    assert other.scenario.map_size_m == cfg.scenario.map_size_m


@pytest.mark.parametrize("sim", [
    {"tick_s": 5e-324},                    # 600 s over a denormal tick
    {"tick_s": 1e-300, "timeout_s": 1e10},
])
def test_tick_count_that_is_not_finite_is_config_error(sim):
    with pytest.raises(ConfigError, match="tick_s"):
        config_from_dict({"sim": sim})
