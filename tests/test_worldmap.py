import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from edgeflight import worldmap
from edgeflight.config import default_config
from edgeflight.errors import ConfigError
from edgeflight.linkfield import ray_table_for
from edgeflight.planner import PlannerKind
from edgeflight.scenario import HeightField, ScenarioConfig, build_scenario, generate_city
from edgeflight.simcore import run_episode
from edgeflight.worldmap import ExploredMap, RayTable, SensorModel, sense
from oracles import (
    RayResult,
    fine_sample_blocked,
    padded_ray_table,
    ray_blocked,
    wedge_cells,
)


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
    assert ray_blocked(em, a, b) is RayResult.CROSSES_UNKNOWN
    sense(truth, em, a, 45.0, SensorModel(fov_deg=360.0, range_m=100.0))
    assert ray_blocked(em, a, b) is RayResult.CLEAR
    # a known obstacle wins over unknown cells elsewhere on the ray
    em2 = ExploredMap(6, 6, 5.0)
    em2.known[2, 2] = True
    em2.heights[2, 2] = 50.0
    assert ray_blocked(em2, a, b) is RayResult.BLOCKED


def test_ray_rejects_outside_endpoints():
    field = HeightField(np.zeros((4, 4)), 5.0)
    with pytest.raises(ValueError):
        ray_blocked(field, (-1.0, 0.0, 10.0), (10.0, 10.0, 10.0))


def test_sense_full_coverage():
    truth = random_city(1)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    diag = np.hypot(200.0, 200.0)
    sense(truth, em, (100.0, 100.0, 50.0), 0.0, SensorModel(360.0, diag))
    assert int(em.known.sum()) == truth.width_cells * truth.depth_cells
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
    own = truth.cell_of(pos)
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
        assert int(em.known.sum()) >= seen
        seen = int(em.known.sum())
        # heights agree with truth wherever known
        assert np.array_equal(em.heights[em.known], truth.heights[em.known])


def test_sense_over_a_known_window_changes_nothing():
    truth = random_city(5)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    pos = (100.0, 100.0, 50.0)
    sense(truth, em, pos, 0.0, SensorModel(360.0, 80.0))  # covers the window below
    known, heights = em.known.copy(), em.heights.copy()
    assert sense(truth, em, pos, 30.0, SensorModel(120.0, 50.0)) is em
    assert np.array_equal(em.known, known)
    assert np.array_equal(em.heights, heights)


def test_sense_reveals_the_one_unknown_cell_of_a_known_window():
    # each cell of the sensor's bounding window in turn is the only unknown
    # cell, and is revealed exactly when it lies in the wedge; positions off
    # the cell grid put the window's first or last row in range
    truth = random_city(6)
    s = truth.cell_size_m
    for c, sensor in itertools.product((97.0, 103.0), (SensorModel(120.0, 50.0),
                                                        SensorModel(360.0, 50.0))):
        pos = (c, c, 50.0)
        lo, hi = int((c - 50.0) // s), int((c + 50.0) // s) + 1
        wedge = wedge_cells(truth.width_cells, truth.depth_cells, s, pos, 30.0,
                            sensor.fov_deg, sensor.range_m)
        for cell in np.ndindex(hi - lo, hi - lo):
            cell = (cell[0] + lo, cell[1] + lo)
            em = ExploredMap.fully_known(truth)
            em.known[cell] = False
            em.heights[cell] = -1.0
            sense(truth, em, pos, 30.0, sensor)
            revealed = cell in wedge
            assert em.known[cell] == revealed
            assert em.heights[cell] == (truth.heights[cell] if revealed else -1.0)


def spy_windows(monkeypatch) -> list:
    """Record every sensor window `sense` builds."""
    calls = []
    window = worldmap.disk_window
    monkeypatch.setattr(worldmap, "disk_window",
                        lambda *a: calls.append(a) or window(*a))
    return calls


def test_sense_on_a_map_known_from_construction_builds_one_window(monkeypatch):
    truth = random_city(7)
    em = ExploredMap.fully_known(truth)
    known, heights = em.known.copy(), em.heights.copy()
    windows = spy_windows(monkeypatch)
    rng = np.random.default_rng(3)
    for _ in range(5):
        pos = (rng.uniform(0, 200), rng.uniform(0, 200), 50.0)
        assert sense(truth, em, pos, rng.uniform(-180, 180), SensorModel(120.0, 50.0)) is em
    assert len(windows) == 1
    assert em.complete
    assert np.array_equal(em.known, known)
    assert np.array_equal(em.heights, heights)


def test_sense_on_a_map_completed_by_sensing_returns_before_its_window(monkeypatch):
    truth = random_city(8)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    windows = spy_windows(monkeypatch)
    centre, east = (100.0, 100.0, 50.0), (180.0, 100.0, 50.0)
    sense(truth, em, east, 0.0, SensorModel(360.0, 80.0))
    before = em.known.copy()
    sense(truth, em, east, 0.0, SensorModel(120.0, 50.0))  # a known window, not a known map
    assert np.array_equal(em.known, before)
    assert not em.complete and len(windows) == 2
    sense(truth, em, centre, 0.0, SensorModel(360.0, np.hypot(200.0, 200.0)))
    assert em.known.all() and not em.complete  # the wedge was built
    known, heights = em.known.copy(), em.heights.copy()
    sense(truth, em, centre, 90.0, SensorModel(120.0, 50.0))
    assert em.complete and len(windows) == 4
    for heading in (0.0, 90.0, -135.0):
        sense(truth, em, east, heading, SensorModel(120.0, 50.0))
    assert len(windows) == 4
    assert np.array_equal(em.known, known)
    assert np.array_equal(em.heights, heights)


def test_sensor_validation():
    with pytest.raises(ConfigError, match="sensor.fov_deg"):
        SensorModel(fov_deg=0.0)
    with pytest.raises(ConfigError, match="sensor.range_m"):
        SensorModel(range_m=-5.0)


def _neighbourhood_rays(table: RayTable, ix: int, iy: int) -> np.ndarray:
    """Flat indices of a cell and its 8 neighbours."""
    return np.array([(ix + dx) * table.ny + iy + dy
                     for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


@pytest.mark.parametrize("oz", [25.0, 80.0])  # below and above the 50 m layer
@pytest.mark.parametrize("x, y", [
    (102.5, 97.5),                                         # cut; the rest are traced
    (100.0, 97.5),
    (100.0, 95.0),
    tuple(np.random.default_rng(3).uniform(0.0, 200.0, 2)),
    (200.0, 63.0),
], ids=["centre", "edge", "corner", "interior", "border"])
def test_ray_table_matches_ray_blocked_on_truth(x, y, oz):
    field = random_city(5)
    origin = np.array([x, y, oz])
    table = RayTable(origin, field.width_cells, field.depth_cells,
                     field.cell_size_m, target_z=50.0)
    known = np.ones_like(field.heights, dtype=bool)
    blocked, crosses = table.classify_subset(np.arange(known.size), known, field.heights)
    assert not crosses.any()
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
    # one call mixes long rays with the zero-crossing rays around the origin
    rays = np.concatenate([
        [ix * truth.depth_cells + iy for ix, iy in cells[:100]],
        _neighbourhood_rays(table, 11, 28),
        [ix * truth.depth_cells + iy for ix, iy in cells[100:]],
    ])
    blocked, crosses = table.classify_subset(rays, em.known, em.heights)
    verdicts = set()
    for r, b, c in zip(rays, blocked, crosses):
        ix, iy = divmod(int(r), truth.depth_cells)
        tgt = np.array([(ix + 0.5) * s, (iy + 0.5) * s, 50.0])
        verdict = ray_blocked(em, origin, tgt)
        verdicts.add(verdict)
        assert (bool(b), bool(c)) == (verdict is RayResult.BLOCKED,
                                      verdict is RayResult.CROSSES_UNKNOWN)
    assert verdicts == set(RayResult)


def test_classify_subset_of_no_rays_is_empty():
    truth = random_city(7)
    table = RayTable(np.array([57.5, 142.5, 25.0]), truth.width_cells, truth.depth_cells,
                     truth.cell_size_m, target_z=50.0)
    known = np.ones_like(truth.heights, dtype=bool)
    blocked, crosses = table.classify_subset(np.array([], dtype=np.int64), known,
                                             truth.heights)
    assert blocked.shape == (0,) and crosses.shape == (0,)
    assert blocked.dtype == bool and crosses.dtype == bool


def test_rays_without_crossings_are_clear_and_known():
    truth = random_city(7)
    table = RayTable(np.array([57.5, 142.5, 25.0]), truth.width_cells, truth.depth_cells,
                     truth.cell_size_m, target_z=50.0)
    rays = _neighbourhood_rays(table, 11, 28)
    assert np.all(table.offsets[rays + 1] == table.offsets[rays])
    # nothing known and every building far above the rays: still no verdict
    # but (False, False), since the endpoint cells are exempt
    tall = np.full_like(truth.heights, 1e3)
    for known in (np.zeros_like(tall, dtype=bool), np.ones_like(tall, dtype=bool)):
        blocked, crosses = table.classify_subset(rays, known, tall)
        assert not blocked.any() and not crosses.any()


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 40), (7, 13), (37, 50), (80, 80)])
def test_block_build_equals_the_padded_build(nx, ny):
    # 1, 40, 91 and 1,850 rays are not multiples of the build block
    s = 5.0
    rng = np.random.default_rng(nx * 1000 + ny)
    w, d = nx * s, ny * s
    origins = [
        (0.0, 0.0), (w, 0.0), (0.0, d), (w, d),            # map corners
        (s * (nx // 2), s * (ny // 2)), (s, s),             # cell corners
        (s * (nx // 2), 0.5 * s), (0.5 * s, s * (ny // 2)),  # cell edges
        *rng.uniform(0.0, 1.0, size=(3, 2)) * (w, d),       # random points
    ]
    for (x, y), (oz, tz) in itertools.product(origins, ((25.0, 50.0), (60.0, 50.0))):
        table = RayTable(np.array([x, y, oz]), nx, ny, s, tz)
        offsets, cells, minz = padded_ray_table((x, y, oz), nx, ny, s, tz)
        assert np.array_equal(table.offsets, offsets)
        assert np.array_equal(table.cells, cells)
        assert table.minz.tobytes() == minz.tobytes()


@pytest.mark.parametrize("nx, ny", [(1, 6), (9, 14), (16, 16)])
def test_build_equals_the_padded_build_at_level_and_edge_origins(nx, ny):
    s = 5.0
    w, d = nx * s, ny * s
    ix, iy = nx // 2, ny // 3
    centre = ((ix + 0.5) * s, (iy + 0.5) * s)  # its column and row cross no x or y line
    origins = [
        (w, d), (w, 0.5 * d), (0.5 * w, d), (w, 0.0), (0.0, d),  # far map edges
        (s * ix, s * iy), (s * (nx - 1), s),                     # cell corners
        centre,
        (w, (iy + 0.5) * s), ((ix + 0.5) * s, d),                # edge origins on a centre line
    ]
    heights = ((50.0, 50.0), (80.0, 50.0), (25.0, 50.0), (50.0, 25.0), (0.0, 0.0))
    for (x, y), (oz, tz) in itertools.product(origins, heights):
        table = RayTable(np.array([x, y, oz]), nx, ny, s, tz)
        offsets, cells, minz = padded_ray_table((x, y, oz), nx, ny, s, tz)
        assert np.array_equal(table.offsets, offsets), (x, y, oz, tz)
        assert np.array_equal(table.cells, cells), (x, y, oz, tz)
        assert table.minz.tobytes() == minz.tobytes(), (x, y, oz, tz)
        if tz == oz:
            assert np.all(table.minz == oz)
    table = RayTable(np.array([*centre, 25.0]), nx, ny, s, 50.0)
    for k in range(nx * ny):
        crossed = table.cells[table.offsets[k]:table.offsets[k + 1]]
        if k // ny == ix:  # same column: only cells of that column
            assert np.all(crossed // ny == ix)
        if k % ny == iy:  # same row: only cells of that row
            assert np.all(crossed % ny == iy)


@pytest.mark.parametrize("s", [5.0, 2.5, 0.3])
@pytest.mark.parametrize("nx, ny", [(1, 9), (9, 1), (7, 7), (11, 6), (5, 12)])
def test_cut_equals_the_padded_build_from_every_cell_centre(nx, ny, s, monkeypatch):
    traced = []
    build = RayTable._build

    def spy(self, targets):
        traced.append(self)
        build(self, targets)

    monkeypatch.setattr(RayTable, "_build", spy)
    cut = 0
    heights = ((25.0, 50.0), (60.0, 50.0), (50.0, 50.0), (0.0, 0.0))
    for (oz, tz), ix, iy in itertools.product(heights, range(nx), range(ny)):
        origin = ((ix + 0.5) * s, (iy + 0.5) * s, oz)
        table = RayTable(np.array(origin), nx, ny, s, tz)
        offsets, cells, minz = padded_ray_table(origin, nx, ny, s, tz)
        assert np.array_equal(table.offsets, offsets), (origin, tz)
        assert np.array_equal(table.cells, cells), (origin, tz)
        assert table.minz.tobytes() == minz.tobytes(), (origin, tz)
        # only an origin whose coordinates divide back to exact halves is cut
        exact = origin[0] / s == ix + 0.5 and origin[1] / s == iy + 0.5
        assert all(t is not table for t in traced) == exact, origin
        cut += exact
    # at s = 0.3 some centres (i + 0.5) * s / s miss i + 0.5 by an ulp
    total = len(heights) * nx * ny
    assert cut == total if s != 0.3 else 0 < cut < total


@pytest.mark.parametrize("long_axis", [0, 1])
def test_cut_of_a_strip_builds_its_half_table_on_the_strip(long_axis, monkeypatch):
    # the 50-cell strip first: a half table on a max(nx, ny)² grid fails
    # there, before the 2,000-cell strip would build one of 4 million rays
    for n in (50, 2000):
        nx, ny = (n, 1) if long_axis == 0 else (1, n)
        for end in (0, n - 1):
            monkeypatch.setattr(worldmap, "_half", None)
            cell = [0, 0]
            cell[long_axis] = end
            origin = np.array([(cell[0] + 0.5) * 5.0, (cell[1] + 0.5) * 5.0, 25.0])
            table = RayTable(origin, nx, ny, 5.0, 50.0)
            key, (offsets, u, v, minz) = worldmap._half
            assert key == (1, n, 25.0, 50.0)
            assert len(offsets) == nx * ny + 1
            assert len(u) == len(v) == len(minz) <= len(table.cells)
            cut = table.offsets, table.cells, table.minz
            table._build(np.arange(nx * ny))
            assert np.array_equal(cut[0], table.offsets)
            assert np.array_equal(cut[1], table.cells)
            assert cut[2].tobytes() == table.minz.tobytes()


def test_ray_table_build_memory_is_bounded_by_the_table(monkeypatch):
    # a cell centre, cut from a half table built inside the traced window,
    # and a point on a cell edge, traced
    for origin in ((402.5, 397.5), (400.0, 397.5)):
        monkeypatch.setattr(worldmap, "_half", None)
        tracemalloc.start()
        try:
            table = RayTable(np.array([*origin, 25.0]), 160, 160, 5.0, 50.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = table.offsets.nbytes + table.cells.nbytes + table.minz.nbytes
        assert peak <= 3 * size, origin


def test_classify_subset_of_unsorted_duplicated_and_empty_rays():
    truth = random_city(6)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    sense(truth, em, (60.0, 140.0, 50.0), 30.0, SensorModel(200.0, 80.0))
    origin = np.array([57.5, 142.5, 25.0])
    table = RayTable(origin, truth.width_cells, truth.depth_cells,
                     truth.cell_size_m, target_z=50.0)
    s = truth.cell_size_m
    ny = truth.depth_cells
    rng = np.random.default_rng(12)
    long_rays = rng.permutation(truth.width_cells * ny)[:150]
    # zero-crossing rays (the origin cell and a neighbour) open and close the call
    rays = np.concatenate([[11 * ny + 28], long_rays, long_rays[[7]], [12 * ny + 29]])
    assert np.all(table.offsets[rays[[0, -1]] + 1] == table.offsets[rays[[0, -1]]])
    assert not np.all(np.diff(rays) > 0)
    blocked, crosses = table.classify_subset(rays, em.known, em.heights)
    verdicts = set()
    for r, b, c in zip(rays, blocked, crosses):
        ix, iy = divmod(int(r), ny)
        tgt = np.array([(ix + 0.5) * s, (iy + 0.5) * s, 50.0])
        verdict = ray_blocked(em, origin, tgt)
        verdicts.add(verdict)
        assert (bool(b), bool(c)) == (verdict is RayResult.BLOCKED,
                                      verdict is RayResult.CROSSES_UNKNOWN)
    assert verdicts == set(RayResult)
    assert (blocked[-2], crosses[-2]) == (blocked[8], crosses[8])


def spy_kernel(monkeypatch) -> list:
    """Patch the RayTable kernel to record, per call, (knowledge read, heights read).

    `_classify` is called at most once per classify_subset, and not when the
    call has nothing to read.
    """
    reads = []
    kernel = RayTable._classify

    def spying(table, rays, known, heights, blocked, crosses):
        reads.append((known is not None, heights is not None))
        return kernel(table, rays, known, heights, blocked, crosses)

    monkeypatch.setattr(RayTable, "_classify", spying)
    return reads


def test_fully_known_grid_reads_no_knowledge_and_matches_the_oracle(monkeypatch):
    truth = random_city(5)
    origin = np.array([57.5, 142.5, 25.0])
    table = RayTable(origin, truth.width_cells, truth.depth_cells,
                     truth.cell_size_m, target_z=50.0)
    ny = truth.depth_cells
    long_rays = np.random.default_rng(14).permutation(truth.width_cells * ny)[:300]
    # unsorted, one ray twice, zero-crossing rays first and last: gathered ranges
    rays = np.concatenate([[11 * ny + 28], long_rays, long_rays[[7]], [12 * ny + 29]])
    reads = spy_kernel(monkeypatch)
    ranges_calls = []
    ranges = worldmap._ranges
    monkeypatch.setattr(worldmap, "_ranges", lambda *a: ranges_calls.append(1) or ranges(*a))
    blocked, crosses = table.classify_subset(rays, np.ones_like(truth.heights, dtype=bool),
                                             truth.heights)
    # one kernel call, whose entries fit one chunk: one gather
    assert np.diff(table.offsets)[rays].sum() <= worldmap._RUN_CHUNK
    assert reads == [(False, True)] and len(ranges_calls) == 1
    assert not crosses.any()
    s = truth.cell_size_m
    verdicts = [ray_blocked(truth, origin, np.array([(r // ny + 0.5) * s, (r % ny + 0.5) * s,
                                                     50.0])) for r in rays]
    assert blocked.tolist() == [v is RayResult.BLOCKED for v in verdicts]
    assert set(verdicts) == {RayResult.BLOCKED, RayResult.CLEAR}
    assert blocked[-2] == blocked[8]


@pytest.mark.parametrize("origin", [(57.5, 142.5, 25.0), (57.5, 142.5, 80.0), (100.0, 63.0, 25.0)],
                         ids=["cut-rising", "cut-falling", "traced"])
def test_heights_at_or_below_the_lowest_entry_are_not_read(monkeypatch, origin):
    truth = random_city(6)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    sense(truth, em, (60.0, 140.0, 50.0), 30.0, SensorModel(200.0, 80.0))
    origin = np.array(origin)
    table = RayTable(origin, truth.width_cells, truth.depth_cells,
                     truth.cell_size_m, target_z=50.0)
    low = table.low
    assert low == table.minz.min()
    # every known cell at or below the lowest entry, half of them exactly on it
    rng = np.random.default_rng(15)
    em.heights[:] = np.where(rng.random(em.heights.shape) < 0.5, low,
                             low * rng.random(em.heights.shape))
    rays = np.arange(em.known.size)
    reads = spy_kernel(monkeypatch)
    blocked, crosses = table.classify_subset(rays, em.known, em.heights)
    assert reads == [(True, False)]
    want_blocked, want_crosses = _oracle_verdicts(table, em, rays)
    assert blocked.tolist() == want_blocked and crosses.tolist() == want_crosses
    assert not blocked.any() and crosses.any() and not crosses.all()
    # on a fully known grid the same heights are answered without a scan
    reads.clear()
    known = np.ones_like(em.known)
    blocked, crosses = table.classify_subset(rays, known, em.heights)
    assert reads == [] and not blocked.any() and not crosses.any()

    # one known cell just above the lowest entry, the entry's own cell, blocks
    cell = int(table.cells[np.argmin(table.minz)])
    em.known.reshape(-1)[cell] = True
    em.heights.reshape(-1)[cell] = low + 1e-6
    reads.clear()
    blocked, crosses = table.classify_subset(rays, em.known, em.heights)
    assert reads == [(True, True)]
    want_blocked, want_crosses = _oracle_verdicts(table, em, rays)
    assert blocked.tolist() == want_blocked and crosses.tolist() == want_crosses
    assert blocked.any()


def test_lowest_entry_is_computed_on_first_use():
    # read from the rays' ends, it must equal the whole table's scan
    for (x, y), z in itertools.product(((57.5, 142.5), (100.0, 63.0)),  # cut, traced
                                       (25.0, 50.0, 80.0)):  # climbing, level, descending
        table = RayTable(np.array([x, y, z]), 40, 40, 5.0, target_z=50.0)
        assert "low" not in vars(table)
        assert table.low == table.minz.min()
        assert "low" in vars(table)
    empty = RayTable(np.array([2.5, 2.5, 25.0]), 1, 1, 5.0, target_z=50.0)
    assert len(empty.minz) == 0 and empty.low == np.inf


def _oracle_verdicts(table: RayTable, em: ExploredMap, rays) -> tuple[list, list]:
    s, ny = em.cell_size_m, em.depth_cells
    verdicts = [ray_blocked(em, table.origin, np.array([(r // ny + 0.5) * s,
                                                       (r % ny + 0.5) * s, table.target_z]))
                for r in rays]
    return ([v is RayResult.BLOCKED for v in verdicts],
            [v is RayResult.CROSSES_UNKNOWN for v in verdicts])


def test_consecutive_rays_read_as_one_slice_match_the_oracle_and_any_order(monkeypatch):
    truth = random_city(6)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    sense(truth, em, (60.0, 140.0, 50.0), 30.0, SensorModel(200.0, 80.0))
    table = RayTable(np.array([57.5, 142.5, 25.0]), truth.width_cells, truth.depth_cells,
                     truth.cell_size_m, target_z=50.0)
    ny = truth.depth_cells
    origin_ray = 11 * ny + 28  # no crossing, nor have the rays beside it
    runs = [
        np.arange(100, 700),                          # over several chunks
        np.arange(origin_ray, origin_ray + 300),      # starts on zero-crossing rays,
        np.arange(origin_ray - 299, origin_ray + 1),  # ends on them,
        np.arange(10 * ny + 20, 12 * ny + 35),        # passes through them
        np.arange(origin_ray - 1, origin_ray + 2),    # or holds nothing else
        np.array([5 * ny + 3]),                       # single rays
        np.array([origin_ray]),
    ]
    ranges_calls = []
    ranges = worldmap._ranges
    monkeypatch.setattr(worldmap, "_ranges",
                        lambda *a: ranges_calls.append(1) or ranges(*a))
    rng = np.random.default_rng(13)
    seen = set()
    for run in runs:
        blocked, crosses = table.classify_subset(run, em.known, em.heights)
        assert not ranges_calls  # every chunk of a run is one slice of the table
        want_blocked, want_crosses = _oracle_verdicts(table, em, run)
        assert blocked.tolist() == want_blocked and crosses.tolist() == want_crosses
        # the same rays out of order, or a single ray twice, take the gathered ranges
        order = rng.permutation(len(run)) if len(run) > 1 else np.array([0, 0])
        assert not np.all(np.diff(run[order]) == 1)
        b, c = table.classify_subset(run[order], em.known, em.heights)
        assert np.array_equal(b, blocked[order]) and np.array_equal(c, crosses[order])
        assert ranges_calls or not np.diff(table.offsets)[run].any()
        ranges_calls.clear()
        seen.update(zip(want_blocked, want_crosses))
    assert seen == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("chunk", [None, 1, 7, 1000])
@pytest.mark.parametrize("origin", [(57.5, 142.5, 25.0), (100.0, 63.0, 25.0)],
                         ids=["cut", "traced"])
def test_chunked_kernel_matches_the_oracle_on_runs_and_gathered_rays(monkeypatch, origin, chunk):
    """Runs read as slices and gathered rays, chunk by chunk, with the scalar walk's verdicts.

    Fully and partly known grids, the latter once with their unknown cells
    at height 0 and once at their truth heights; the whole table and partial
    runs that start, end and pass through the zero-crossing rays around the
    origin cell, each also out of order with some rays repeated. Chunks of
    1, 7 and 1,000 entries put multiples of the chunk inside rays, often
    several in one ray; the default chunk reads the whole table in several.
    """
    if chunk is not None:
        monkeypatch.setattr(worldmap, "_RUN_CHUNK", chunk)
    truth = random_city(6)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    sense(truth, em, (60.0, 140.0, 50.0), 30.0, SensorModel(200.0, 80.0))
    table = RayTable(np.array(origin), truth.width_cells, truth.depth_cells,
                     truth.cell_size_m, target_z=50.0)
    ny = truth.depth_cells
    n = truth.width_cells * ny
    origin_ray = 11 * ny + 28  # the cut origin's cell: no crossing, nor its neighbours'
    runs = [
        np.arange(n),
        np.arange(origin_ray, origin_ray + 300),
        np.arange(origin_ray - 299, origin_ray + 1),
        np.arange(10 * ny + 20, 12 * ny + 35),
        np.arange(5 * ny + 3, 5 * ny + 4),
    ]
    if chunk is None:
        assert len(table.cells) > 2 * worldmap._RUN_CHUNK
    full = ExploredMap.fully_known(truth)
    # partly known, its unknown cells holding their truth heights, which
    # must not block
    hidden = ExploredMap.fully_known(truth)
    hidden.known[:] = em.known
    rng = np.random.default_rng(17)
    reads = spy_kernel(monkeypatch)
    ranges_calls = []
    ranges = worldmap._ranges
    monkeypatch.setattr(worldmap, "_ranges", lambda *a: ranges_calls.append(1) or ranges(*a))
    seen = set()
    for m in (em, hidden, full):
        want = np.array(_oracle_verdicts(table, m, np.arange(n)))  # (blocked, crosses) per ray
        for run in runs:
            # the run, then its rays out of order with a tenth of them repeated
            mixed = np.concatenate([rng.permutation(run), rng.choice(run, len(run) // 10 + 2)])
            for rays, gathered in ((run, False), (mixed, True)):
                reads.clear()
                ranges_calls.clear()
                blocked, crosses = table.classify_subset(rays, m.known, m.heights)
                assert reads == [(m is not full, True)]  # one call; no knowledge on the full map
                assert bool(ranges_calls) == gathered
                assert np.array_equal(blocked, want[0, rays])
                assert np.array_equal(crosses, want[1, rays])
                seen.update(zip(blocked.tolist(), crosses.tolist()))
    assert seen == {(True, False), (False, True), (False, False)}
    if origin[:2] == (57.5, 142.5):
        assert not np.diff(table.offsets)[origin_ray - 1:origin_ray + 2].any()


def test_run_classification_memory_is_bounded_by_its_chunks():
    """One 80×80 whole-table classification holds at most two bytes per entry.

    Those are the hits and the knowledge over the run, beside one chunk's
    temporaries and a few arrays per ray; a kernel that gathered the whole
    run at once would hold the table's 8-byte cell indices and heights. The
    same rays out of order are gathered chunk by chunk, within the same
    8 bytes per entry.
    """
    cfg = default_config(seed=3)
    sc = build_scenario(cfg.scenario)
    table = ray_table_for(sc, sc.serving_bs, sc.cfg.uav_altitude_m)
    heights = sc.truth.heights
    n, entries = heights.size, len(table.cells)
    assert (n, table.low < heights.max()) == (80 * 80, True)
    rays = np.arange(n)
    for known in (np.ones(heights.shape, dtype=bool),
                  np.random.default_rng(16).random(heights.shape) < 0.5):
        table.classify_subset(rays, known, heights)
        tracemalloc.start()
        try:
            table.classify_subset(rays, known, heights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = (1 if known.all() else 2) * entries + 24 * worldmap._RUN_CHUNK + 40 * n
        assert peak <= bound, (peak, bound)
        assert peak < 8 * entries
    known = np.random.default_rng(16).random(heights.shape) < 0.5
    rays = np.random.default_rng(18).permutation(n)
    tracemalloc.start()
    try:
        table.classify_subset(rays, known, heights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * entries, (peak, entries)


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 40), (7, 13), (37, 50)])
def test_rays_crossing_matches_a_scan_of_the_table(nx, ny):
    s = 5.0
    w, d = nx * s, ny * s
    origins = [(0.0, 0.0), (w, d), (w, 0.5 * s), (s * (nx // 2), s * (ny // 2))]
    rng = np.random.default_rng(nx * 100 + ny)
    for x, y in origins:
        table = RayTable(np.array([x, y, 25.0]), nx, ny, s, 50.0)
        owner = np.repeat(np.arange(nx * ny), np.diff(table.offsets))
        crossed = np.zeros(nx * ny, dtype=bool)
        crossed[table.cells] = True
        never = np.flatnonzero(~crossed)
        assert len(never)  # the origin cell at least
        some = rng.choice(nx * ny, size=min(nx * ny, 20), replace=False)
        for cells in (np.array([], dtype=np.int64), never, some, np.arange(nx * ny)):
            got = table.rays_crossing(cells)
            want = [r for c in cells for r in owner[table.cells == c]]
            assert np.array_equal(np.sort(got), np.sort(want))
        assert len(table.rays_crossing(never)) == 0


def test_inverse_index_is_built_only_when_asked_for():
    cfg = default_config(seed=2)
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
        cfg.scenario, map_size_m=(200.0, 200.0), endpoint_distance_m=(80.0, 160.0)))
    sc = build_scenario(cfg.scenario)
    table = ray_table_for(sc, sc.serving_bs, sc.cfg.uav_altitude_m)
    assert table._inverse is None
    # the global arm's map is fully known from the start: no cell is ever learned
    metrics, _ = run_episode(sc, PlannerKind.GLOBAL, cfg, collect_log=False)
    assert metrics.reached
    assert sc._ray_tables and all(t._inverse is None for t in sc._ray_tables.values())
    run_episode(sc, PlannerKind.EXPLORED, cfg, collect_log=False)
    assert table._inverse is not None


def test_inverse_index_memory_is_bounded_by_the_table():
    table = RayTable(np.array([202.5, 197.5, 25.0]), 80, 80, 5.0, 50.0)
    tracemalloc.start()
    try:
        table.rays_crossing(np.array([0]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = table.offsets.nbytes + table.cells.nbytes + table.minz.nbytes
    assert peak <= 2 * size


def test_inverse_index_is_the_int32_transpose_built_below_the_table_size():
    table = RayTable(np.array([202.5, 197.5, 25.0]), 80, 80, 5.0, 50.0)
    tracemalloc.start()
    try:
        table.rays_crossing(np.array([0]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    offsets, rays = table._inverse
    assert offsets.dtype == np.int32 and rays.dtype == np.int32
    assert offsets.shape == (80 * 80 + 1,) and rays.shape == table.cells.shape
    assert peak < table.offsets.nbytes + table.cells.nbytes + table.minz.nbytes
