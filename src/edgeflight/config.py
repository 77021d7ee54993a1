"""Structured configuration: JSON file schema, validation, digest, presets.

A config file is a JSON object with up to six sections, each mapping directly
onto one parameter dataclass:

    {
      "scenario": {... ScenarioConfig fields ...},
      "sensor":   {"fov_deg": ..., "range_m": ...},
      "channel":  {... ChannelParams fields ...},
      "offload":  {... OffloadConfig fields ...},
      "planner":  {... PlanConfig fields ...},
      "sim":      {"tick_s": ..., "timeout_s": ..., "sticky_nlos": ...}
    }

Missing sections and missing fields take their defaults; unknown sections or
fields raise ConfigError, and so does a value whose type does not match the
field's default (bool, int, finite float, or a two-element list of finite
floats for the tuple-valued scenario fields).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, dbm_to_mw, free_space_path_loss_db
from .errors import ConfigError
from .offload import OffloadConfig
from .planner import PlanConfig
from .scenario import ScenarioConfig
from .worldmap import SensorModel


@dataclass(frozen=True)
class SimParams:
    tick_s: float = 0.1
    timeout_s: float = 600.0
    sticky_nlos: bool = True

    def __post_init__(self):
        if self.tick_s <= 0 or self.timeout_s <= 0:
            raise ConfigError("tick and timeout must be positive")
        if not math.isfinite(self.timeout_s / self.tick_s):
            raise ConfigError(
                f"sim.timeout_s / sim.tick_s ({self.timeout_s!r} / {self.tick_s!r}) "
                "is not a finite number of ticks; raise sim.tick_s")


def _check_link_powers(ch: ChannelParams, sc: ScenarioConfig) -> None:
    """Reject a channel whose powers over this map leave a float's range.

    The noise power, and every received power at the nearest and the
    farthest BS-to-vehicle distance the map allows, in LoS and NLoS and
    through either antenna level, must be a positive finite float in mW, and
    so must its ratio to the noise. Otherwise the link budgets divide zero
    by zero or overflow.
    """
    dz = abs(sc.uav_altitude_m - sc.bs_height_m)
    powers = [("the noise power from channel.noise_figure_db", ch.noise_dbm)]
    for name, tx in (("uav_tx_power_dbm", ch.uav_tx_power_dbm),
                     ("bs_tx_power_dbm", ch.bs_tx_power_dbm),
                     ("bs_tx_power_dbm through channel.antenna_backlobe_db",
                      ch.bs_tx_power_dbm + ch.antenna_backlobe_db)):
        for d in (dz, math.hypot(*sc.map_size_m, dz)):
            los = tx - float(free_space_path_loss_db(d, ch.carrier_hz))
            what = f"the power received {d:.6g} m away from channel.{name}"
            powers += [(f"{what} in LoS", los),
                       (f"{what} in NLoS, less channel.nlos_excess_db", los - ch.nlos_excess_db)]
    with np.errstate(over="ignore"):
        noise_mw = float(dbm_to_mw(ch.noise_dbm))
        for what, dbm in powers:
            mw = float(dbm_to_mw(dbm))
            if not (0.0 < mw < math.inf and mw / noise_mw < math.inf):
                raise ConfigError(
                    f"{what} is {dbm:.6g} dBm, {mw!r} mW against a noise power of "
                    f"{noise_mw!r} mW; keep powers and their ratios within a float's range")


def _check_edge_weights(oc: OffloadConfig, pc: PlanConfig, sc: ScenarioConfig) -> None:
    """Reject speeds and cost rates whose path costs leave a float's range.

    A cost-field edge is at most √2 cells long, costs at most
    1 + nlos_penalty + interference_weight per second, and is flown no
    slower than local processing allows, min(v_max_mps, local_fps /
    frames_per_meter). A path crosses each cell at most once, so that
    largest weight times the cell count must be a finite float; otherwise
    every edge weight overflows to inf and the planner finds no path over
    free cells. With local_fps 0 a dead link has no speed at all, which the
    planner reads as "no path" by design, so that case is not checked.
    """
    if oc.local_fps == 0:
        return
    local = oc.local_fps / oc.frames_per_meter
    which = "offload.v_max_mps" if oc.v_max_mps <= local else (
        "offload.local_fps / offload.frames_per_meter")
    v_min = min(oc.v_max_mps, local)
    rate = 1.0 + pc.nlos_penalty + pc.interference_weight
    cells = sc.width_cells * sc.depth_cells
    cost = math.inf if v_min == 0 else math.sqrt(2.0) * sc.cell_size_m * rate / v_min * cells
    if not math.isfinite(cost):
        raise ConfigError(
            f"a path over the {cells} cells can cost {cost!r}, not a finite float: an "
            "edge costs sqrt(2) * scenario.cell_size_m * (1 + planner.nlos_penalty + "
            f"planner.interference_weight) / the slowest speed, {which} = {v_min!r} "
            f"m/s; raise {which} or lower the planner's cost weights")


@dataclass(frozen=True)
class Config:
    scenario: ScenarioConfig = ScenarioConfig()
    sensor: SensorModel = SensorModel()
    channel: ChannelParams = ChannelParams()
    offload: OffloadConfig = OffloadConfig()
    planner: PlanConfig = PlanConfig()
    sim: SimParams = SimParams()

    def __post_init__(self):
        _check_link_powers(self.channel, self.scenario)
        _check_edge_weights(self.offload, self.planner, self.scenario)


_SECTIONS = {
    "scenario": ScenarioConfig,
    "sensor": SensorModel,
    "channel": ChannelParams,
    "offload": OffloadConfig,
    "planner": PlanConfig,
    "sim": SimParams,
}


def _finite_real(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _checked(default, v, where: str):
    """A field value type-checked against the field's default: bools take
    bools, ints take non-bool ints, floats take finite reals and pairs take
    two finite reals."""
    if isinstance(default, tuple):
        if not (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite_real, v))):
            raise ConfigError(f"{where} must be a list of two finite numbers, got {v!r}")
        return (float(v[0]), float(v[1]))
    if isinstance(default, bool):
        ok, kind = isinstance(v, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = isinstance(v, int) and not isinstance(v, bool), "an integer"
    else:
        ok, kind = _finite_real(v), "a finite number"
    if not ok:
        raise ConfigError(f"{where} must be {kind}, got {v!r}")
    return v


def _build_section(cls, data: dict, name: str):
    if not isinstance(data, dict):
        raise ConfigError(f"[{name}] must be an object, got {data!r}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
    kwargs = {k: _checked(defaults[k], v, f"{name}.{k}") for k, v in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"bad [{name}] section: {e}") from None


def config_from_dict(d: dict) -> Config:
    if not isinstance(d, dict):
        raise ConfigError("config root must be an object")
    unknown = set(d) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    parts = {
        name: _build_section(cls, d.get(name, {}), name)
        for name, cls in _SECTIONS.items()
    }
    return Config(**parts)


def config_to_dict(cfg: Config) -> dict:
    out = {}
    for name in _SECTIONS:
        section = dataclasses.asdict(getattr(cfg, name))
        for k, v in section.items():
            if isinstance(v, tuple):
                section[k] = list(v)
        out[name] = section
    return out


def load_config(path) -> Config:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    return config_from_dict(data)


def config_digest(cfg: Config) -> str:
    """Stable short hash of the full parameter set, for provenance headers."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---- presets ----

def default_config(seed: int = 0) -> Config:
    return Config(scenario=ScenarioConfig(rng_seed=seed))


def flat_city_config(seed: int = 0) -> Config:
    """Degenerate all-LoS world with the speed governor unbound.

    Buildings are removed and the offload pipeline is configured so the update
    rate never caps speed below v_max; missions then expose pure kinematics.
    """
    return Config(
        scenario=ScenarioConfig(
            rayleigh_scale_m=0.0,
            endpoint_distance_m=(320.0, 320.0),
            rng_seed=seed,
        ),
        offload=OffloadConfig(
            frame_bits=2.0e5,
            feedback_bits=0.0,
            remote_processing_s=0.0,
        ),
    )


def example_config(seed: int = 7) -> Config:
    """A single-mission showcase: 320 m separation on the default city."""
    return Config(
        scenario=ScenarioConfig(endpoint_distance_m=(320.0, 320.0), rng_seed=seed)
    )


PRESETS = {
    "default": default_config,
    "flat": flat_city_config,
    "example": example_config,
}


def preset_config(name: str, seed: int | None = None) -> Config:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; pick from {sorted(PRESETS)}") from None
    cfg = factory() if seed is None else factory(seed)
    return cfg


def with_seed(cfg: Config, seed: int) -> Config:
    return replace(cfg, scenario=replace(cfg.scenario, rng_seed=seed))
