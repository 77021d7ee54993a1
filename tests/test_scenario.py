import numpy as np
import pytest

from edgeflight.channel import ChannelParams
from edgeflight.errors import ConfigError, ScenarioError
from edgeflight.offload import OffloadConfig
from edgeflight.planner import PlanConfig, Planner, PlannerKind
from edgeflight.scenario import (
    HeightField,
    ScenarioConfig,
    build_scenario,
    generate_city,
    sample_building_heights,
    street_mask,
)
from edgeflight.simcore import batch_seeds
from edgeflight.worldmap import ExploredMap


def small_cfg(**kw) -> ScenarioConfig:
    base = dict(
        map_size_m=(200.0, 200.0),
        cell_size_m=5.0,
        building_footprint_m=20.0,
        street_width_m=20.0,
        endpoint_distance_m=(80.0, 160.0),
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_same_seed_same_world():
    a = build_scenario(small_cfg(rng_seed=11))
    b = build_scenario(small_cfg(rng_seed=11))
    assert np.array_equal(a.truth.heights, b.truth.heights)
    assert all(np.array_equal(p, q) for p, q in zip(a.bs_positions, b.bs_positions))
    assert a.serving_bs == b.serving_bs
    assert np.array_equal(a.start, b.start)
    assert np.array_equal(a.goal, b.goal)


def test_different_seeds_differ():
    a = build_scenario(small_cfg(rng_seed=0))
    b = build_scenario(small_cfg(rng_seed=1))
    assert not np.array_equal(a.truth.heights, b.truth.heights)


def test_street_pattern_periodicity():
    cfg = small_cfg(rng_seed=3)
    city = generate_city(cfg, np.random.default_rng(3))
    streets = street_mask(city)
    s = cfg.cell_size_m
    fp_c = int(cfg.building_footprint_m / s)
    st_c = int(cfg.street_width_m / s)
    period = fp_c + st_c
    # street columns repeat with the block period in both axes
    for ix in range(city.width_cells):
        col_is_street = streets[ix, :].all()
        jx = ix + period
        if jx < city.width_cells and col_is_street:
            assert streets[jx, :].all()
    # buildings never stand on street cells
    assert np.all(city.heights[streets] == 0.0)
    # every non-street cell belongs to a building block with positive height
    assert np.all(city.heights[~streets] > 0.0)


def test_block_heights_are_uniform_within_a_block():
    cfg = small_cfg(rng_seed=5)
    city = generate_city(cfg, np.random.default_rng(5))
    streets = street_mask(city)
    blocks = ~streets
    # flood over one known block region: its cells share a single height
    xs, ys = np.nonzero(blocks)
    x0, y0 = xs[0], ys[0]
    h = city.heights[x0, y0]
    fp_c = int(cfg.building_footprint_m / cfg.cell_size_m)
    assert np.all(city.heights[x0 : x0 + fp_c, y0 : y0 + fp_c] == h)


def test_rayleigh_sampling_statistics():
    rng = np.random.default_rng(123)
    draws = sample_building_heights(rng, 35.0, 20000)
    assert np.all(draws >= 0)
    mean = draws.mean()
    want = 35.0 * np.sqrt(np.pi / 2.0)
    assert abs(mean - want) / want < 0.02


def test_endpoints_respect_distance_range_and_freedom():
    for seed in range(6):
        sc = build_scenario(small_cfg(rng_seed=seed))
        d = float(np.linalg.norm(sc.goal[:2] - sc.start[:2]))
        lo, hi = sc.cfg.endpoint_distance_m
        assert lo - 1e-6 <= d <= hi + 1e-6
        for p in (sc.start, sc.goal):
            c = sc.truth.cell_of(p)
            assert sc.truth.heights[c] < sc.cfg.uav_altitude_m
            assert p[2] == sc.cfg.uav_altitude_m


def test_endpoints_stay_outside_a_wider_planner_margin():
    # a one-cell placement margin leaves 12 starts and 13 goals of these
    # default-preset scenarios inside the planner's 2-cell shell
    pc = PlanConfig(safety_margin_cells=2)
    for seed in batch_seeds(0, 200):
        sc = build_scenario(ScenarioConfig(rng_seed=seed), pc.safety_margin_cells)
        # the baseline arm's grids need neither a radio map nor truth links
        pl = Planner(PlannerKind.BASELINE, sc, ExploredMap.fully_known(sc.truth),
                     None, None, ChannelParams(), OffloadConfig(), pc)
        forb = pl.forbidden_mask()
        for p in (sc.start, sc.goal):
            assert not forb[sc.truth.cell_of(p)], seed


def test_bs_on_streets_and_separated():
    for seed in range(6):
        sc = build_scenario(small_cfg(rng_seed=seed))
        streets = street_mask(sc.truth)
        assert len(sc.bs_positions) == sc.cfg.n_bs
        for p in sc.bs_positions:
            assert streets[sc.truth.cell_of(p)]
            assert p[2] == sc.cfg.bs_height_m
        diag = float(np.hypot(*sc.cfg.map_size_m))
        for i in range(len(sc.bs_positions)):
            for j in range(i + 1, len(sc.bs_positions)):
                sep = np.linalg.norm(sc.bs_positions[i][:2] - sc.bs_positions[j][:2])
                assert sep >= diag / 4.0 - 1e-9
        # serving BS is the nearest one to the start
        dists = [np.linalg.norm(p[:2] - sc.start[:2]) for p in sc.bs_positions]
        assert sc.serving_bs == int(np.argmin(dists))


def test_flat_city_when_scale_zero():
    cfg = small_cfg(rayleigh_scale_m=0.0, rng_seed=2)
    city = generate_city(cfg, np.random.default_rng(2))
    assert np.all(city.heights == 0.0)


def test_cell_addressing_roundtrip():
    field = HeightField(np.zeros((8, 6)), 5.0)
    assert field.cell_of((0.0, 0.0, 0)) == (0, 0)
    assert field.cell_of((39.999, 29.999, 0)) == (7, 5)
    center = field.cell_center(3, 4)
    assert field.cell_of(center) == (3, 4)
    assert np.allclose(center, [17.5, 22.5])


def test_config_rejections():
    with pytest.raises(ConfigError):
        small_cfg(cell_size_m=3.0)  # map size not divisible
    with pytest.raises(ConfigError):
        small_cfg(building_footprint_m=22.0)  # footprint not divisible
    with pytest.raises(ConfigError):
        small_cfg(building_footprint_m=150.0, street_width_m=100.0)  # exceeds map
    with pytest.raises(ConfigError):
        small_cfg(n_bs=0)
    with pytest.raises(ConfigError):
        small_cfg(endpoint_distance_m=(50.0, 20.0))
    with pytest.raises(ConfigError):
        small_cfg(rayleigh_scale_m=-1.0)


def test_unplaceable_endpoints_raise():
    # endpoint range wider than the map diagonal cannot be satisfied
    with pytest.raises(ScenarioError):
        build_scenario(small_cfg(endpoint_distance_m=(400.0, 500.0), rng_seed=0))
