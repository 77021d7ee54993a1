import numpy as np
import pytest

from edgeflight.scenario import HeightField, ScenarioConfig, generate_city
from edgeflight.worldmap import (
    ExploredMap,
    RayResult,
    RayTable,
    SensorModel,
    UnknownPolicy,
    ray_blocked,
    sense,
)
from oracles import fine_sample_blocked, wedge_cells


def random_city(seed: int) -> HeightField:
    cfg = ScenarioConfig(
        map_size_m=(200.0, 200.0),
        cell_size_m=5.0,
        building_footprint_m=20.0,
        street_width_m=20.0,
        rng_seed=seed,
    )
    return generate_city(cfg, np.random.default_rng(seed))


def random_endpoints(rng, field: HeightField, n: int):
    s = field.cell_size_m
    nx, ny = field.width_cells, field.depth_cells
    for _ in range(n):
        ca = (rng.integers(nx), rng.integers(ny))
        cb = (rng.integers(nx), rng.integers(ny))
        a = np.array([(ca[0] + 0.5) * s, (ca[1] + 0.5) * s, rng.uniform(10.0, 80.0)])
        b = np.array([(cb[0] + 0.5) * s, (cb[1] + 0.5) * s, rng.uniform(10.0, 80.0)])
        yield a, b


def test_ray_verdicts_match_fine_sampling():
    rng = np.random.default_rng(2024)
    checked = 0
    for seed in range(4):
        field = random_city(seed)
        for a, b in random_endpoints(rng, field, 60):
            want = fine_sample_blocked(field.heights, field.cell_size_m, a, b)
            got = ray_blocked(field, a, b) is RayResult.BLOCKED
            assert got == want, f"seed={seed} a={a} b={b}"
            checked += 1
    assert checked == 240


def test_ray_endpoint_cells_exempt():
    heights = np.zeros((5, 5))
    heights[0, 0] = 100.0
    heights[4, 4] = 100.0
    field = HeightField(heights, 5.0)
    a = np.array([2.5, 2.5, 10.0])
    b = np.array([22.5, 22.5, 10.0])
    # both endpoints sit inside tall cells; the ray between them is judged
    # only on the interior cells
    assert ray_blocked(field, a, b) is RayResult.CLEAR


def test_ray_against_explored_map_tristate():
    truth = HeightField(np.zeros((6, 6)), 5.0)
    em = ExploredMap(6, 6, 5.0)
    a = np.array([2.5, 2.5, 10.0])
    b = np.array([27.5, 27.5, 10.0])
    assert ray_blocked(em, a, b, UnknownPolicy.FREE) is RayResult.CROSSES_UNKNOWN
    assert ray_blocked(em, a, b, UnknownPolicy.BLOCKED) is RayResult.BLOCKED
    sense(truth, em, a, 45.0, SensorModel(fov_deg=360.0, range_m=100.0))
    assert ray_blocked(em, a, b, UnknownPolicy.FREE) is RayResult.CLEAR
    # a known obstacle wins over unknown cells elsewhere on the ray
    em2 = ExploredMap(6, 6, 5.0)
    em2.known[2, 2] = True
    em2.heights[2, 2] = 50.0
    assert ray_blocked(em2, a, b, UnknownPolicy.FREE) is RayResult.BLOCKED


def test_ray_rejects_outside_endpoints():
    field = HeightField(np.zeros((4, 4)), 5.0)
    with pytest.raises(ValueError):
        ray_blocked(field, (-1.0, 0.0, 10.0), (10.0, 10.0, 10.0))


def test_sense_full_coverage():
    truth = random_city(1)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    diag = np.hypot(200.0, 200.0)
    sense(truth, em, (100.0, 100.0, 50.0), 0.0, SensorModel(360.0, diag))
    assert em.explored_cell_count == truth.width_cells * truth.depth_cells
    assert np.array_equal(em.heights, truth.heights)


def test_sense_wedge_matches_cell_oracle():
    truth = random_city(2)
    rng = np.random.default_rng(7)
    for _ in range(8):
        pos = (rng.uniform(0, 200), rng.uniform(0, 200), 50.0)
        heading = rng.uniform(-180, 180)
        sensor = SensorModel(fov_deg=120.0, range_m=50.0)
        em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
        sense(truth, em, pos, heading, sensor)
        want = wedge_cells(
            truth.width_cells, truth.depth_cells, truth.cell_size_m,
            pos, heading, sensor.fov_deg, sensor.range_m,
        )
        got = set(map(tuple, np.argwhere(em.known)))
        assert got == want


def test_sense_heading_east_reveals_nothing_west():
    truth = random_city(3)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    pos = (100.0, 100.0, 50.0)
    sense(truth, em, pos, 0.0, SensorModel(fov_deg=120.0, range_m=50.0))
    own = em.cell_of(pos)
    for ix, iy in np.argwhere(em.known):
        if (ix, iy) == own:
            continue
        assert (ix + 0.5) * truth.cell_size_m >= pos[0] - truth.cell_size_m


def test_knowledge_is_monotone():
    truth = random_city(4)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    rng = np.random.default_rng(11)
    seen = 0
    for _ in range(10):
        pos = (rng.uniform(0, 200), rng.uniform(0, 200), 50.0)
        before = em.known.copy()
        sense(truth, em, pos, rng.uniform(-180, 180), SensorModel(120.0, 50.0))
        assert np.all(em.known[before])  # nothing forgotten
        assert em.explored_cell_count >= seen
        seen = em.explored_cell_count
        # heights agree with truth wherever known
        assert np.array_equal(em.heights[em.known], truth.heights[em.known])


def test_sensor_validation():
    with pytest.raises(ValueError):
        SensorModel(fov_deg=0.0)
    with pytest.raises(ValueError):
        SensorModel(range_m=-5.0)


def test_ray_table_matches_ray_blocked_on_truth():
    field = random_city(5)
    origin = np.array([102.5, 97.5, 25.0])
    table = RayTable(origin, field.width_cells, field.depth_cells,
                     field.cell_size_m, target_z=50.0)
    blocked = table.classify_truth(field.heights)
    s = field.cell_size_m
    rng = np.random.default_rng(9)
    for _ in range(200):
        ix = int(rng.integers(field.width_cells))
        iy = int(rng.integers(field.depth_cells))
        tgt = np.array([(ix + 0.5) * s, (iy + 0.5) * s, 50.0])
        want = ray_blocked(field, origin, tgt) is RayResult.BLOCKED
        assert bool(blocked[ix * field.depth_cells + iy]) == want


def test_ray_table_matches_ray_blocked_on_partial_map():
    truth = random_city(6)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    sense(truth, em, (60.0, 140.0, 50.0), 30.0, SensorModel(200.0, 80.0))
    origin = np.array([57.5, 142.5, 25.0])
    table = RayTable(origin, truth.width_cells, truth.depth_cells,
                     truth.cell_size_m, target_z=50.0)
    s = truth.cell_size_m
    rng = np.random.default_rng(10)
    cells = [(int(rng.integers(truth.width_cells)), int(rng.integers(truth.depth_cells)))
             for _ in range(200)]
    rays = np.array([ix * truth.depth_cells + iy for ix, iy in cells])
    blocked, crosses = table.classify_subset(rays, em.known, em.heights)
    for (ix, iy), b, c in zip(cells, blocked, crosses):
        tgt = np.array([(ix + 0.5) * s, (iy + 0.5) * s, 50.0])
        verdict = ray_blocked(em, origin, tgt, UnknownPolicy.FREE)
        assert bool(b) == (verdict is RayResult.BLOCKED)
        if not b:
            assert bool(c) == (verdict is RayResult.CROSSES_UNKNOWN)


def test_explored_export_sentinel():
    em = ExploredMap(3, 3, 5.0)
    em.known[1, 1] = True
    em.heights[1, 1] = 12.0
    out = em.export_heights(sentinel=-1.0)
    assert out[1, 1] == 12.0
    assert out[0, 0] == -1.0
