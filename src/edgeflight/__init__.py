"""Edge-assisted UAV flight simulator.

A cellular-connected UAV flies through a procedurally generated city while
offloading its visual navigation workload to an edge server behind the
serving base station. Link quality gates how fast the vehicle may safely fly,
so the trajectory planner trades distance against expected connectivity using
a radio map built from whatever geometry the UAV has discovered so far.

The public surface is re-exported here; see the subpackages for detail:

    scenario   city synthesis, base-station and endpoint placement
    worldmap   explored-geometry state, ray casting, sensing
    channel    path loss, antenna, SINR, and capacity models
    radiomap   discovered-geometry link-state map with CSI correction
    offload    frame-offloading latency model and speed governor
    planner    connectivity-aware grid planner (three policy arms)
    simcore    closed-loop episode and batch drivers
    config     JSON-serializable run configuration and presets
    cli        `edgeflight` command-line entry point
"""

from .channel import (
    ChannelParams,
    LinkState,
    capacity_bps,
    expected_path_loss_db,
    free_space_path_loss_db,
    path_loss_db,
    plos_probability,
)
from .config import (
    Config,
    SimParams,
    config_digest,
    config_from_dict,
    config_to_dict,
    default_config,
    example_config,
    flat_city_config,
    load_config,
    preset_config,
    save_config,
    with_seed,
)
from .errors import ConfigError, ScenarioError, StuckError
from .gridfile import load_grid, parse_grid, save_grid
from .linkfield import TruthLink, ray_table_for
from .offload import OffloadConfig, ProcessingMode, remote_update_rate, select_mode, speed_limit
from .planner import PlanConfig, Planner, PlannerKind
from .radiomap import RadioMap
from .scenario import HeightField, Scenario, ScenarioConfig, build_scenario
from .simcore import BatchResult, Metrics, TrajectoryLog, UavState, run_batch, run_episode
from .worldmap import ExploredMap, RayTable, SensorModel, UnknownPolicy, ray_blocked, sense

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "ChannelParams",
    "Config",
    "ConfigError",
    "ExploredMap",
    "HeightField",
    "LinkState",
    "Metrics",
    "OffloadConfig",
    "PlanConfig",
    "Planner",
    "PlannerKind",
    "ProcessingMode",
    "RadioMap",
    "RayTable",
    "Scenario",
    "ScenarioConfig",
    "ScenarioError",
    "SensorModel",
    "SimParams",
    "StuckError",
    "TrajectoryLog",
    "TruthLink",
    "UavState",
    "UnknownPolicy",
    "capacity_bps",
    "config_digest",
    "config_from_dict",
    "config_to_dict",
    "default_config",
    "example_config",
    "expected_path_loss_db",
    "flat_city_config",
    "free_space_path_loss_db",
    "load_config",
    "load_grid",
    "parse_grid",
    "path_loss_db",
    "plos_probability",
    "preset_config",
    "ray_blocked",
    "ray_table_for",
    "remote_update_rate",
    "run_batch",
    "run_episode",
    "save_config",
    "save_grid",
    "select_mode",
    "sense",
    "speed_limit",
    "with_seed",
]
