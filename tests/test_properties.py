"""Property test: every small config is rejected cleanly or flown to an outcome
without a tick inside a building."""

import math

from hypothesis import given, settings
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
    # scale no larger than the flight altitude, which leaves free cells when
    # the altitude is drawn low, so that most draws reach the flight
    footprint = draw(st.integers(1, 3))
    street = draw(st.integers(1, min(3, min(nx, ny) - footprint)))
    map_size_m = [nx * s, ny * s]
    lo = draw(st.floats(1.0, min(60.0, max(map_size_m) / 2)))
    altitude = draw(st.floats(10.0, 120.0))
    return {
        "scenario": {
            "map_size_m": map_size_m,
            "cell_size_m": s,
            "rayleigh_scale_m": draw(st.floats(0.0, min(80.0, altitude))),
            "building_footprint_m": footprint * s,
            "street_width_m": street * s,
            "n_bs": draw(st.integers(1, 3)),
            "bs_height_m": draw(st.floats(5.0, 60.0)),
            "uav_altitude_m": altitude,
            "endpoint_distance_m": [lo, lo + draw(st.floats(s, 60.0))],
            "rng_seed": draw(st.integers(0, 2**16)),
        },
        # no shorter than config's reach check (test_cli covers its rejection),
        # so that the draws fly rather than fail validation
        "sensor": {"fov_deg": draw(st.floats(30.0, 360.0)),
                   "range_m": draw(st.floats(sensor_reach_m(s, map_size_m), 80.0))},
        "planner": {"safety_margin_cells": draw(st.integers(1, 2))},
        "sim": {"tick_s": draw(st.sampled_from([0.1, 0.25, 0.5])),
                "timeout_s": draw(st.floats(1.0, 60.0))},
    }


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(small_configs())
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
