import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import binary_dilation, label

import edgeflight
from edgeflight.channel import ChannelParams
from edgeflight.errors import ConfigError, ScenarioError
from edgeflight.linkfield import TruthLink
from edgeflight.offload import OffloadConfig
from edgeflight.planner import PlanConfig, Planner, PlannerKind
from edgeflight.scenario import (
    HeightField,
    ScenarioConfig,
    build_scenario,
    free_components,
    generate_city,
    grid_cell,
    inflate_obstacles,
    place_bs_and_endpoints,
    sample_building_heights,
    street_mask,
)
from edgeflight.config import default_config
from edgeflight.simcore import batch_seeds, run_batch
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


def clamped_floor_cell(point, s: float, nx: int, ny: int) -> tuple[int, int]:
    """The cell lookup as `cell_of` wrote it before it read Python floats."""
    return (min(max(int(point[0] // s), 0), nx - 1),
            min(max(int(point[1] // s), 0), ny - 1))


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (6, 6)])
@pytest.mark.parametrize("s", [5.0, 0.3])
def test_shared_cell_lookup_equals_the_clamped_floor_division(shape, s):
    """`grid_cell` and `HeightField.cell_of` give the old lookup's cells.

    Points on and beside cell edges and corners, on the map border, at
    negative and beyond-map coordinates and at random, each given as an
    ndarray, a tuple and a list.
    """
    nx, ny = shape
    rng = np.random.default_rng(17)
    lines = np.arange(-2, max(nx, ny) + 3) * s
    near = np.concatenate([lines, np.nextafter(lines, -np.inf), np.nextafter(lines, np.inf),
                           lines + s / 2, [-0.0, -1e-300, 1e-300]])
    xs = np.concatenate([near, rng.uniform(-2 * s, (nx + 2) * s, 300)])
    ys = np.concatenate([near, rng.uniform(-2 * s, (ny + 2) * s, 300)])
    field = HeightField(np.zeros(shape), s)
    points = list(zip(xs, ys)) + list(itertools.product(near, near))
    for x, y in points:
        for point in (np.array([x, y, 7.0]), (float(x), float(y), 7.0), [float(x), float(y)]):
            want = clamped_floor_cell(point, s, nx, ny)
            assert grid_cell(point, s, nx, ny) == want, (point, s, shape)
            assert field.cell_of(point) == want
    assert field.cell_of((0, 0, 0)) == (0, 0)  # integer coordinates


def test_truth_link_flat_cell_is_the_shared_lookup():
    cfg = small_cfg(map_size_m=(200.0, 120.0), endpoint_distance_m=(80.0, 100.0), rng_seed=3)
    sc = build_scenario(cfg)
    tl = TruthLink(sc, ChannelParams(), sc.cfg.uav_altitude_m)
    nx, ny = sc.truth.width_cells, sc.truth.depth_cells
    s = sc.truth.cell_size_m
    rng = np.random.default_rng(3)
    edges = rng.integers(-1, max(nx, ny) + 2, size=(200, 2)) * s
    for x, y in np.vstack([edges, rng.uniform(-10.0, 210.0, size=(200, 2))]):
        ix, iy = clamped_floor_cell(np.array([x, y, 50.0]), s, nx, ny)
        assert tl._flat_cell(np.array([x, y, 50.0])) == ix * ny + iy


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


def dilation_masks():
    rng = np.random.default_rng(5)
    yield np.ones((1, 1), dtype=bool)
    yield np.zeros((1, 1), dtype=bool)
    yield np.eye(1, 9, 4, dtype=bool)
    yield np.eye(9, 1, 8, dtype=bool)
    for shape in ((1, 12), (12, 1), (7, 13), (20, 20)):
        for p in (0.05, 0.3):
            mask = rng.random(shape) < p
            mask[0, 0] = mask[-1, -1] = True  # obstacles on the borders
            yield mask


@pytest.mark.parametrize("margin", range(5))
def test_inflate_obstacles_equals_iterated_binary_dilation(margin):
    for mask in dilation_masks():
        got = inflate_obstacles(mask, margin)
        if margin == 0:
            assert got is mask
            continue
        want = binary_dilation(mask, structure=np.ones((3, 3), dtype=bool), iterations=margin)
        assert got.dtype == bool
        assert np.array_equal(got, want), (mask.shape, margin)


def test_import_leaves_scipy_ndimage_out():
    # a fresh interpreter that finds the package where this one does
    src = str(Path(edgeflight.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, edgeflight; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_free_components_partition_the_free_cells_as_8_connected_labels():
    for mask in dilation_masks():
        free = ~mask
        got = free_components(free)[free]
        want = label(free, structure=np.ones((3, 3), dtype=bool))[0][free]
        # the same partition: the label pairs map one to one
        pairs = set(zip(got.tolist(), want.tolist()))
        assert len(pairs) == len(set(got.tolist())) == len(set(want.tolist()))


def test_endpoints_share_a_free_component_where_the_first_draw_did_not():
    # seed 4 with tall buildings and a 3-cell margin forbids most cells; the
    # second episode's first endpoint draw lands in two components
    cfg = default_config(seed=4)
    cfg = dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(cfg.scenario, map_size_m=(200.0, 200.0),
                                     endpoint_distance_m=(80.0, 160.0),
                                     rayleigh_scale_m=120.0),
        planner=dataclasses.replace(cfg.planner, safety_margin_cells=3))
    seed = batch_seeds(4, 2)[1]
    sc = build_scenario(dataclasses.replace(cfg.scenario, rng_seed=seed), 3)
    free = ~inflate_obstacles(sc.truth.heights >= sc.cfg.uav_altitude_m, 3)
    labels, _ = label(free, structure=np.ones((3, 3), dtype=bool))
    start, goal = sc.truth.cell_of(sc.start), sc.truth.cell_of(sc.goal)
    assert free[start] and free[goal]
    assert labels[start] == labels[goal]
    rows = run_batch(cfg, episodes=2).rows
    assert any(r.metrics.reached for r in rows if r.episode == 1)


def test_endpoints_that_no_free_path_can_join_are_refused():
    # walls along column 20 and row 20 cut the 200 m map into four 100 m
    # quadrants, and no two cells of one quadrant lie 150 m apart
    heights = np.zeros((40, 40))
    heights[20, :] = heights[:, 20] = 100.0
    cfg = small_cfg(endpoint_distance_m=(150.0, 200.0))
    with pytest.raises(ScenarioError, match="joined by free cells") as err:
        place_bs_and_endpoints(cfg, HeightField(heights, 5.0), np.random.default_rng(0), 0)
    assert "scenario.endpoint_distance_m = [150.0, 200.0]" in str(err.value)
    assert "planner.safety_margin_cells = 0" in str(err.value)


@pytest.mark.parametrize("heights, kw, names", [
    (np.full((40, 40), 10.0), {"n_bs": 1},
     ["not enough street cells (0)", "scenario.n_bs = 1"]),
    # 40 base stations a quarter diagonal apart do not fit on a 200 m map
    (np.zeros((40, 40)), {"n_bs": 40},
     ["could not separate", "scenario.n_bs = 40"]),
    # 100 m blocks but for street row 20, which lies inside their one-cell shell
    (np.repeat(np.where(np.arange(40) == 20, 0.0, 100.0)[:, None], 40, axis=1),
     {"n_bs": 1, "uav_altitude_m": 50.0},
     ["no collision-free cells", "scenario.uav_altitude_m = 50.0",
      "planner.safety_margin_cells = 1"]),
], ids=["no-street", "crowded-bs", "no-free-cell"])
def test_placement_failures_name_their_fields_with_values(heights, kw, names):
    with pytest.raises(ScenarioError) as err:
        place_bs_and_endpoints(small_cfg(**kw), HeightField(heights, 5.0),
                               np.random.default_rng(0), 1)
    for name in names:
        assert name in str(err.value)
