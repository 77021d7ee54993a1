"""Property test: every small config is rejected cleanly or flown to an outcome
without a tick inside a building."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeflight.config import config_from_dict, sensor_reach_m
from edgeflight.errors import ConfigError, ScenarioError
from edgeflight.planner import PlannerKind
from edgeflight.scenario import build_scenario
from edgeflight.simcore import run_episode


@st.composite
def small_configs(draw):
    """Config documents for maps of at most 100 m; some fail validation or placement."""
    s = draw(st.sampled_from([5.0, 10.0]))
    cells = st.integers(4, int(100.0 / s))
    nx, ny = draw(cells), draw(cells)
    # a street period that fits the shorter side, an endpoint band at least
    # one cell wide that starts within half the longer side, and a Rayleigh
    # scale between two thirds and twice the flight altitude: each building
    # is then as tall as the altitude with probability 0.32-0.88, so most
    # flown draws hold an obstacle, and most leave free cells
    footprint = draw(st.integers(1, 3))
    street = draw(st.integers(1, min(3, min(nx, ny) - footprint)))
    map_size_m = [nx * s, ny * s]
    lo = draw(st.floats(1.0, min(60.0, max(map_size_m) / 2)))
    altitude = draw(st.floats(10.0, 120.0))
    # no shorter than config's reach check (test_cli covers its rejection),
    # so that the draws fly rather than fail validation
    sensor_range = draw(st.floats(sensor_reach_m(s, map_size_m), 80.0))
    return {
        "scenario": {
            "map_size_m": map_size_m,
            "cell_size_m": s,
            "rayleigh_scale_m": draw(st.floats(altitude / 1.5, min(80.0, 2.0 * altitude))),
            "building_footprint_m": footprint * s,
            "street_width_m": street * s,
            "n_bs": draw(st.integers(1, 3)),
            "bs_height_m": draw(st.floats(5.0, 60.0)),
            "uav_altitude_m": altitude,
            "endpoint_distance_m": [lo, lo + draw(st.floats(s, 60.0))],
            "rng_seed": draw(st.integers(0, 2**16)),
        },
        "sensor": {"fov_deg": draw(st.floats(30.0, 360.0)), "range_m": sensor_range},
        # one frame needed per 0.5-3 sensor ranges flown, and frames too large
        # to offload half the time: a local-mode vehicle can then fly past its
        # sensed ground between two frames, where a plan that committed
        # unsensed cells would take it into a building
        "offload": {"frames_per_meter": 1.0 / (sensor_range * draw(st.floats(0.5, 3.0))),
                    "local_fps": draw(st.floats(0.2, 2.0)),
                    "frame_bits": draw(st.sampled_from([1e10, 1e6]))},
        "planner": {"safety_margin_cells": draw(st.integers(1, 2))},
        "sim": {"tick_s": draw(st.sampled_from([0.1, 0.25, 0.5])),
                "timeout_s": draw(st.floats(1.0, 60.0))},
    }


# A draw whose baseline, flying in local mode with frames too large to
# offload, would enter a building before its first frame if a plan committed
# unsensed cells. Kept explicit so the check does not depend on the draw
# sequence of one Hypothesis version.
UNSENSED_BUILDING = {
    "scenario": {"map_size_m": [40.0, 95.0], "cell_size_m": 5.0,
                 "rayleigh_scale_m": 59.443952788487756,
                 "building_footprint_m": 15.0, "street_width_m": 15.0, "n_bs": 3,
                 "bs_height_m": 49.606125644276396, "uav_altitude_m": 72.33339358351395,
                 "endpoint_distance_m": [10.312051955020648, 31.01445436723781],
                 "rng_seed": 160},
    "sensor": {"fov_deg": 231.32567834885927, "range_m": 66.37553747228642},
    "offload": {"frames_per_meter": 0.008396847497259156,
                "local_fps": 0.8155737284914604, "frame_bits": 1e10},
    "planner": {"safety_margin_cells": 1},
    "sim": {"tick_s": 0.5, "timeout_s": 25.81818765344572},
}


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(small_configs())
@example(UNSENSED_BUILDING)
def test_small_configs_are_rejected_or_flown_to_an_outcome(doc):
    try:
        cfg = config_from_dict(doc)
        sc = build_scenario(cfg.scenario, cfg.planner.safety_margin_cells)
    except (ConfigError, ScenarioError):
        return
    alt = cfg.scenario.uav_altitude_m
    for kind in PlannerKind:
        m, log = run_episode(sc, kind, cfg)
        assert m.reached != m.stuck, kind
        assert all(math.isfinite(v) for v in (
            m.flight_distance_m, m.flight_duration_s,
            m.avg_uplink_capacity_bps, m.nlos_distance_ratio)), (kind, m)
        # acceptance gate 09's check: no logged tick lies in a truth cell as
        # tall as the flight altitude
        inside = [r[:3] for r in log.rows if sc.truth.heights[sc.truth.cell_of(r[1:3])] >= alt]
        assert not inside, (kind, inside[:3])
