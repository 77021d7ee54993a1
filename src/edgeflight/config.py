"""Structured configuration: JSON file schema, validation, digest, presets.

A config file is a JSON object with up to six sections, each mapping directly
onto one parameter dataclass:

    {
      "scenario": {... ScenarioConfig fields ...},
      "sensor":   {"fov_deg": ..., "range_m": ...},
      "channel":  {... ChannelParams fields ...},
      "offload":  {... OffloadConfig fields ...},
      "planner":  {... PlanConfig fields ...},
      "sim":      {"tick_s": ..., "timeout_s": ...}
    }

Missing sections and missing fields take their defaults; unknown sections or
fields raise ConfigError, and so does a value whose type does not match the
field's default (int, finite float, or a two-element list of finite floats
for the tuple-valued scenario fields).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, dbm_to_mw, free_space_path_loss_db
from .errors import ConfigError, require
from .linkfield import capacities
from .offload import STEP_FLOOR_M, OffloadConfig, remote_update_rate
from .planner import PlanConfig
from .scenario import ScenarioConfig
from .worldmap import SensorModel


@dataclass(frozen=True)
class SimParams:
    tick_s: float = 0.1
    timeout_s: float = 600.0

    def __post_init__(self):
        require("sim", self, lambda v: v > 0, "positive", "tick_s", "timeout_s")
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


def _check_plos_curve(ch: ChannelParams) -> None:
    """Reject a LoS-probability curve that overflows at some elevation.

    The baseline prices 1 / (1 + plos_a exp(-plos_b (theta - plos_a))) over
    elevations theta in [0, 90] degrees. The exponent is linear in theta and
    the rest is monotone in it, so the values at 0 and 90 degrees bound every
    other: there the exponent and the denominator must be finite floats.
    """
    with np.errstate(over="ignore"):
        for theta in (0.0, 90.0):
            exponent = float(-ch.plos_b * (theta - ch.plos_a))
            denominator = float(1.0 + ch.plos_a * np.exp(exponent))
            if not (math.isfinite(exponent) and math.isfinite(denominator)):
                raise ConfigError(
                    f"at {theta:g} degrees elevation the LoS probability 1 / (1 + channel.plos_a "
                    f"* exp(-channel.plos_b * (theta - channel.plos_a))) has exponent "
                    f"{exponent!r} and denominator {denominator!r}, not finite floats; keep "
                    f"channel.plos_a ({ch.plos_a!r}) and channel.plos_b ({ch.plos_b!r}) "
                    "within a float's range")


def _check_frame_rate(oc: OffloadConfig, ch: ChannelParams, sc: ScenarioConfig,
                      sim: SimParams) -> None:
    """Reject a frames_per_meter whose speed limits overflow, or a tick whose frames do.

    The fastest frame rate any arm can reach is the larger of local_fps and
    the remote rate over the best links: no interference, in LoS, at the
    nearest BS-to-vehicle distance the map allows. That rate, the rate
    divided by frames_per_meter and the rate times tick_s must be finite
    floats, or the per-tick rate divides by zero, the speed-limit grids
    overflow or a tick's frame count cannot be counted.
    """
    dz = abs(sc.uav_altitude_m - sc.bs_height_m)
    with np.errstate(over="ignore", divide="ignore"):
        up, dn, *_ = capacities(-free_space_path_loss_db(dz, ch.carrier_hz), 0.0, ch,
                                dbm_to_mw(ch.noise_dbm))
        fps = max(oc.local_fps, float(remote_update_rate(up, dn, oc)))
        speed = fps / oc.frames_per_meter
        frames = fps * sim.tick_s
    if not math.isfinite(fps):
        raise ConfigError(
            f"a remote frame takes no time over the fastest links ({float(up)!r} bps up, "
            f"{float(dn)!r} bps down): offload.frame_bits ({oc.frame_bits!r}), "
            f"offload.remote_processing_s ({oc.remote_processing_s!r}) and "
            f"offload.feedback_bits ({oc.feedback_bits!r}) give {fps!r} frames/s; "
            "raise one of them")
    if not math.isfinite(speed):
        raise ConfigError(
            f"the fastest frame rate, {fps!r} frames/s, over offload.frames_per_meter "
            f"({oc.frames_per_meter!r}) is a speed of {speed!r} m/s, not a finite float; "
            "raise offload.frames_per_meter")
    if not math.isfinite(frames):
        raise ConfigError(
            f"the fastest frame rate, {fps!r} frames/s, times sim.tick_s ({sim.tick_s!r} s) "
            f"is {frames!r} frames a tick, not a finite float; lower sim.tick_s")


def _check_tick_moves(oc: OffloadConfig, sim: SimParams) -> None:
    """Reject a tick too short to move the vehicle.

    No arm flies faster than v_max_mps, and a tick whose flight budget is
    no longer than STEP_FLOOR_M moves nothing, so every mission would time
    out where it started.
    """
    flight = oc.v_max_mps * sim.tick_s
    if flight <= STEP_FLOOR_M:
        raise ConfigError(
            f"offload.v_max_mps ({oc.v_max_mps!r} m/s) times sim.tick_s ({sim.tick_s!r} s) "
            f"is a flight of {flight!r} m a tick, no longer than the {STEP_FLOOR_M!r} m a "
            "tick must fly to move the vehicle; raise sim.tick_s")


def _check_sensor_reach(sensor: SensorModel, sc: ScenarioConfig) -> None:
    """Reject a sensor range that cannot reach a neighbouring cell's centre.

    A plan commits only sensed cells, and with one cell committed the
    heading hint turns the camera toward the next cell's centre. From a
    stop in the current cell a diagonal neighbour's centre lies up to
    1.5 * sqrt(2) cell widths away. Beyond the sensor's range it is never
    sensed, no plan commits past the current cell, and the vehicle stands
    until the timeout.
    """
    reach = 1.5 * math.sqrt(2.0) * sc.cell_size_m
    if sensor.range_m < reach:
        raise ConfigError(
            f"sensor.range_m ({sensor.range_m!r} m) is below 1.5 * sqrt(2) * "
            f"scenario.cell_size_m ({sc.cell_size_m!r} m) = {reach!r} m, the farthest a "
            "neighbouring cell's centre lies from the current cell, so the vehicle could "
            "stand until the timeout; raise sensor.range_m")


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
        _check_plos_curve(self.channel)
        _check_frame_rate(self.offload, self.channel, self.scenario, self.sim)
        _check_tick_moves(self.offload, self.sim)
        _check_sensor_reach(self.sensor, self.scenario)
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
    """A field value type-checked against the field's default: ints take
    non-bool ints, floats take finite reals and pairs take two finite reals."""
    if isinstance(default, tuple):
        if not (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite_real, v))):
            raise ConfigError(f"{where} must be a list of two finite numbers, got {v!r}")
        return (float(v[0]), float(v[1]))
    if isinstance(default, int):
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
    return cls(**{k: _checked(defaults[k], v, f"{name}.{k}") for k, v in data.items()})


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
