import dataclasses

import numpy as np
import pytest

from edgeflight.channel import LinkState
from edgeflight.config import default_config
from edgeflight.linkfield import TruthLink, ray_table_for
from edgeflight.planner import PlannerKind
from edgeflight.radiomap import _CODE_STATE, _STATE_CODE, MISSING, RadioMap
from edgeflight.scenario import HeightField, ScenarioConfig, build_scenario, generate_city
from edgeflight.simcore import batch_seeds, run_episode
from edgeflight.worldmap import ExploredMap, RayTable, SensorModel, sense
from oracles import FullRefreshRadioMap, RayResult, ray_blocked, ray_blocked_grid, wedge_cells

ALT = 50.0


def city(seed: int) -> HeightField:
    cfg = ScenarioConfig(
        map_size_m=(200.0, 200.0),
        cell_size_m=5.0,
        building_footprint_m=20.0,
        street_width_m=20.0,
        rng_seed=seed,
    )
    return generate_city(cfg, np.random.default_rng(seed))


def make_rm(explored: ExploredMap, bs) -> RadioMap:
    table = RayTable(np.asarray(bs, dtype=float), explored.width_cells,
                     explored.depth_cells, explored.cell_size_m, ALT)
    return RadioMap(table, explored)


BS = np.array([102.5, 102.5, 25.0])


def test_classify_three_verdicts():
    truth = city(0)
    full = ExploredMap.fully_known(truth)
    empty = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    flat = ExploredMap.fully_known(HeightField(np.zeros_like(truth.heights), 5.0))
    # far corner at cruise altitude across a built-up map: the slant ray
    # follows truth when everything is known, crosses unknown when nothing is
    tall = np.array([12.5, 12.5, ALT])
    cell = full.cell_of(tall)
    want_full = (LinkState.NLOS if ray_blocked(truth, BS, tall) is RayResult.BLOCKED
                 else LinkState.LOS)
    for explored, want in ((full, want_full), (empty, LinkState.ASSUMED_LOS),
                           (flat, LinkState.LOS)):
        rm = make_rm(explored, BS)
        rm.ensure_layer_evaluated()
        assert rm.state_grid[cell] == _STATE_CODE[want]


def test_full_knowledge_matches_truth_rays():
    truth = city(2)
    em = ExploredMap.fully_known(truth)
    table = RayTable(BS, truth.width_cells, truth.depth_cells, truth.cell_size_m, ALT)
    rm = RadioMap(table, em)
    rm.ensure_layer_evaluated()
    want_blocked = ray_blocked_grid(truth, BS, ALT)
    got_nlos = rm.state_grid == _STATE_CODE[LinkState.NLOS]
    assert np.array_equal(got_nlos, want_blocked)
    assert not np.any(rm.state_grid == _STATE_CODE[LinkState.ASSUMED_LOS])


def test_optimism_invariant():
    # at 25 m the site sees 0.6% of this layer; at 45 m it sees about 68%,
    # so most sampled cells are truly LoS and most of those are assumed LoS
    truth = city(3)
    bs = np.array([102.5, 102.5, 45.0])
    rng = np.random.default_rng(5)
    truth_blocked = ray_blocked_grid(truth, bs, ALT)
    los = assumed = nlos_est = 0
    for _ in range(4):
        em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
        for _ in range(int(rng.integers(1, 8))):
            pos = (rng.uniform(0, 200), rng.uniform(0, 200), ALT)
            sense(truth, em, pos, rng.uniform(-180, 180), SensorModel(120.0, 50.0))
        rm = make_rm(em, bs)
        rm.ensure_layer_evaluated()
        # LoS and assumed LoS are priced as LoS, so an estimate is never
        # priced below the truth unless it says NLoS where the truth is LoS
        for flat in rng.integers(0, truth.width_cells * truth.depth_cells, 400):
            ix, iy = divmod(int(flat), truth.depth_cells)
            state = _CODE_STATE[rm.state_grid[ix, iy]]
            assert state is not LinkState.NLOS or truth_blocked[ix, iy]
            los += not truth_blocked[ix, iy]
            assumed += state is LinkState.ASSUMED_LOS and not truth_blocked[ix, iy]
            nlos_est += state is LinkState.NLOS
    assert los >= 800 and assumed >= 500 and nlos_est >= 50, (los, assumed, nlos_est)


@pytest.mark.parametrize("measured", [LinkState.LOS, LinkState.NLOS], ids=["los", "nlos"])
@pytest.mark.parametrize("prior", [None, LinkState.ASSUMED_LOS, LinkState.LOS, LinkState.NLOS],
                         ids=["missing", "assumed", "measured-los", "measured-nlos"])
def test_measured_states_are_final(prior, measured):
    # a measurement overwrites every state but NLoS, and the state it leaves
    # survives full sensing and every refresh, on a cell whose ray a fresh
    # estimate over the learned map gives the opposite verdict
    want = LinkState.NLOS if LinkState.NLOS in (prior, measured) else LinkState.LOS
    truth = city(4)
    bs = np.array([102.5, 102.5, 45.0])  # sees about two thirds of the layer
    blocked = ray_blocked_grid(truth, bs, ALT)
    ix, iy = np.argwhere(blocked == (want is LinkState.LOS))[0]
    pos = ((ix + 0.5) * truth.cell_size_m, (iy + 0.5) * truth.cell_size_m, ALT)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    rm = make_rm(em, bs)
    if prior is LinkState.ASSUMED_LOS:
        rm.ensure_layer_evaluated()
    elif prior is not None:
        rm.csi_correct(pos, prior)
    assert rm.state_at(pos) is prior
    rm.csi_correct(pos, measured)
    assert rm.state_at(pos) is want
    sense(truth, em, (100, 100, ALT), 0.0, SensorModel(360.0, 300.0))
    assert em.known.all()
    assert make_rm(em, bs).state_at(pos) is not want
    rm.update_around(pos, 300.0)
    rm.ensure_layer_evaluated()
    assert rm.state_at(pos) is want


def test_csi_rejects_non_measurements():
    em = ExploredMap(10, 10, 5.0)
    rm = make_rm(em, np.array([25.0, 25.0, 25.0]))
    with pytest.raises(ValueError):
        rm.csi_correct((10.0, 10.0, ALT), LinkState.ASSUMED_LOS)


def test_assumed_entries_repriced_as_map_grows():
    truth = city(5)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    rm = make_rm(em, BS)
    rm.ensure_layer_evaluated()
    # nearly everything starts optimistic; the only immediate LoS verdicts
    # are cells whose short ray crosses nothing but the exempt endpoint cells
    assumed_before = int((rm.state_grid == _STATE_CODE[LinkState.ASSUMED_LOS]).sum())
    n_cells = truth.width_cells * truth.depth_cells
    assert assumed_before > 0.95 * n_cells
    los_cells = np.argwhere(rm.state_grid == _STATE_CODE[LinkState.LOS])
    s = truth.cell_size_m
    for ix, iy in los_cells:
        d = np.hypot((ix + 0.5) * s - BS[0], (iy + 0.5) * s - BS[1])
        assert d < 3 * s
    sense(truth, em, (100.0, 100.0, ALT), 0.0, SensorModel(360.0, 80.0))
    rm.ensure_layer_evaluated()
    grid_states = rm.state_grid
    assert int((grid_states == _STATE_CODE[LinkState.NLOS]).sum()) > 0
    # discovered geometry must never be contradicted: every NLoS estimate is
    # NLoS under ground truth too
    truth_blocked = ray_blocked_grid(truth, BS, ALT)
    nlos_mask = grid_states == _STATE_CODE[LinkState.NLOS]
    assert np.all(truth_blocked[nlos_mask])


def test_missing_cell_evaluated_on_demand():
    em = ExploredMap(10, 10, 5.0)
    bs = np.array([25.0, 25.0, 25.0])
    rm = make_rm(em, bs)
    p = (42.5, 42.5, ALT)
    assert rm.state_at(p) is None
    rm.update_around(p, 0.0)
    assert rm.state_at(p) is LinkState.ASSUMED_LOS
    assert rm.state_at((2.5, 2.5, ALT)) is None  # outside the refreshed radius
    # a zero radius reaches only the cell whose centre is `around`
    ix, iy = em.cell_of(p)
    assert np.flatnonzero(rm.state_grid != MISSING).tolist() == [ix * 10 + iy]


def test_a_window_with_no_stale_cell_defers_the_intake_of_learned_cells(monkeypatch):
    """Learned cells are taken in by the first window that holds a stale cell.

    A window of only measured (LoS or NLoS) cells needs no estimate, so it
    leaves the unknown counts and the last seen knowledge as they were. The
    next window holding missing cells takes in everything learned since, and
    its estimates equal a full re-classification: stale counts would settle
    rays that learned buildings block as assumed LoS.
    """
    truth = city(15)
    s = truth.cell_size_m
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    rm = make_rm(em, BS)
    full = FullRefreshRadioMap(rm.table, em)
    centres = [((ix + 0.5) * s, (iy + 0.5) * s, ALT) for ix, iy in ((30, 30), (31, 30))]
    for m in (rm, full):
        m.csi_correct(centres[0], LinkState.LOS)
        m.csi_correct(centres[1], LinkState.NLOS)
    sense(truth, em, (150.0, 150.0, ALT), 45.0, SensorModel(360.0, 60.0))
    seen = rm._known_seen.copy()
    assert not np.array_equal(seen, em.known)
    calls = []
    rays_crossing = RayTable.rays_crossing

    def counting(table, cells):
        calls.append(len(cells))
        return rays_crossing(table, cells)

    monkeypatch.setattr(RayTable, "rays_crossing", counting)
    for c in centres:
        rm.update_around(c, 0.0)
    assert calls == []
    assert np.array_equal(rm._known_seen, seen)
    # missing cells whose rays to the BS cross learned buildings
    for m in (rm, full):
        m.update_around((175.0, 175.0, ALT), 25.0)
    assert calls and np.array_equal(rm._known_seen, em.known)
    assert rm.state_grid.tobytes() == full.state_grid.tobytes()
    window = rm.state_grid[30:, 30:]
    assert (window == _STATE_CODE[LinkState.NLOS]).sum() > 20


def test_update_around_classifies_only_stale_cells_in_range(monkeypatch):
    truth = city(6)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    # a map fully known at construction never looks at its window, so this
    # one learns the whole map after it
    rm = make_rm(em, BS)
    sense(truth, em, (100, 100, ALT), 0.0, SensorModel(360.0, 300.0))
    assert em.known.all()
    rm.ensure_layer_evaluated()
    grid = rm.state_grid.copy()
    calls = []
    classify = RayTable.classify_subset

    def counting(table, rays, known, heights):
        calls.append(list(rays))
        return classify(table, rays, known, heights)

    monkeypatch.setattr(RayTable, "classify_subset", counting)
    for p in ((100.0, 100.0), (12.5, 187.5), (0.0, 0.0), (200.0, 200.0)):
        rm.update_around((*p, ALT), 60.0)
    assert calls == []
    pos = (100.0, 100.0, ALT)
    # a stale cell in the window's corner, 24.7 m out: beyond the radius
    rm.state_grid[16, 16] = MISSING
    rm.update_around(pos, 20.0)
    assert calls == []
    # a stale cell in range, 17.7 m out: one call for its ray alone, restoring
    # its estimate (the BS's own cell, whose ray crosses no cell, is settled
    # LoS without a call)
    rm.state_grid[23, 20] = MISSING
    rm.update_around(pos, 20.0)
    assert calls == [[23 * truth.depth_cells + 20]]
    assert rm.state_grid[23, 20] == grid[23, 20]


def counting_classify(monkeypatch) -> list:
    """Patch RayTable.classify_subset to record the rays of every call."""
    calls = []
    classify = RayTable.classify_subset

    def counting(table, rays, known, heights):
        calls.append(list(rays))
        return classify(table, rays, known, heights)

    monkeypatch.setattr(RayTable, "classify_subset", counting)
    return calls


def test_windows_at_the_map_border_reach_only_the_cells_in_range(monkeypatch):
    """`sense` and `update_around` from beside and across the map's border.

    A window that misses the grid changes nothing and classifies no ray. A
    window the border clips reveals exactly the sensor wedge's cells
    (oracles.wedge_cells) and refreshes exactly the cells whose centres lie
    within the radius, as a whole-layer refresh estimates them.
    """
    truth = city(5)
    nx, ny, s = truth.width_cells, truth.depth_cells, truth.cell_size_m
    sensor, radius = SensorModel(fov_deg=120.0, range_m=30.0), 30.0
    em = ExploredMap(nx, ny, s)
    rm = make_rm(em, BS)
    centre = (100.0, 100.0, ALT)
    sense(truth, em, centre, 0.0, sensor)
    rm.update_around(centre, radius)
    known, heights, states = em.known.copy(), em.heights.copy(), rm.state_grid.copy()
    calls = counting_classify(monkeypatch)
    for x, y, heading in ((-31.0, 100.0, 0.0), (100.0, 231.0, -90.0),
                          (260.0, -40.0, 135.0), (-40.0, 260.0, -45.0)):
        sense(truth, em, (x, y, ALT), heading, sensor)
        rm.update_around((x, y, ALT), radius)
    assert calls == []
    assert np.array_equal(em.known, known) and np.array_equal(em.heights, heights)
    assert np.array_equal(rm.state_grid, states)

    revealed = 0
    for x, y, heading in ((-10.0, 60.0, 0.0), (197.0, 3.0, 135.0), (100.0, 215.0, -90.0),
                          (-25.0, -25.0, 45.0), (-30.0, 100.0, 0.0)):
        pos = (x, y, ALT)
        em = ExploredMap(nx, ny, s)
        rm = make_rm(em, BS)
        sense(truth, em, pos, heading, sensor)
        want = wedge_cells(nx, ny, s, pos, heading, sensor.fov_deg, sensor.range_m)
        assert set(map(tuple, np.argwhere(em.known))) == want, pos
        assert np.array_equal(em.heights[em.known], truth.heights[em.known])
        revealed += len(want)
        rm.update_around(pos, radius)
        in_range = {(ix, iy) for ix in range(nx) for iy in range(ny)
                    if np.hypot((ix + 0.5) * s - x, (iy + 0.5) * s - y) <= radius}
        refreshed = rm.state_grid != MISSING
        assert set(map(tuple, np.argwhere(refreshed))) == in_range, pos
        whole = make_rm(em, BS)
        whole.ensure_layer_evaluated()
        assert np.array_equal(rm.state_grid[refreshed], whole.state_grid[refreshed])
    assert revealed > 50


def test_unchanged_map_classifies_nothing(monkeypatch):
    truth = city(7)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    rm = make_rm(em, BS)
    rm.ensure_layer_evaluated()
    sense(truth, em, (100.0, 100.0, ALT), 45.0, SensorModel(120.0, 80.0))
    rm.ensure_layer_evaluated()  # re-estimates the rays over the learned cells
    assert (rm.state_grid == _STATE_CODE[LinkState.ASSUMED_LOS]).sum() > 100
    calls = counting_classify(monkeypatch)
    rm.ensure_layer_evaluated()
    rm.update_around((100.0, 100.0, ALT), 80.0)
    assert calls == []


def test_refresh_classifies_missing_rays_and_rays_whose_verdict_learned_cells_can_change(
        monkeypatch):
    truth = city(8)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    sensor = SensorModel(120.0, 50.0)
    sense(truth, em, (60.0, 60.0, ALT), 30.0, sensor)
    rm = make_rm(em, BS)
    rm.update_around((80.0, 80.0, ALT), 70.0)  # leaves the far cells missing
    before_known = em.known.copy()
    before = rm.state_grid.copy().ravel()
    sense(truth, em, (150.0, 120.0, ALT), 200.0, sensor)
    learned = em.known & ~before_known
    assert learned.any()

    # per ray, over its own table entries: does it cross a learned cell, a
    # learned cell taller than the lowest minz of the table (the only cells
    # that can block any ray), a learned cell above the entry's own minz
    # (which blocks it), and is it left with no unknown crossing?
    table = rm.table
    low = table.minz.min()
    known, heights = em.known.ravel(), em.heights.ravel()
    crosses_learned, crosses_tall, blocks, emptied = (np.zeros(len(before), dtype=bool)
                                                      for _ in range(4))
    for r in range(len(before)):
        entries = slice(table.offsets[r], table.offsets[r + 1])
        c = table.cells[entries]
        new = learned.ravel()[c]
        crosses_learned[r] = new.any()
        crosses_tall[r] = (new & (heights[c] > low)).any()
        blocks[r] = (new & (heights[c] > table.minz[entries])).any()
        emptied[r] = new.any() and known[c].all()
    assumed = before == _STATE_CODE[LinkState.ASSUMED_LOS]
    missing = before == MISSING
    # exactly the assumed-LoS rays whose verdict changes are classified
    # again: on this city each one that crosses a learned cell tall enough
    # to block some ray is blocked by it
    assert np.array_equal(assumed & crosses_tall, assumed & blocks)
    want = missing | (assumed & (blocks | emptied))
    assert missing.any() and (assumed & blocks).any() and (assumed & emptied).any()
    # rays over learned cells that can change no verdict are left alone
    assert (assumed & crosses_learned & ~want).any()

    # of those, a ray that crosses no known cell is settled without being
    # classified: assumed LoS, or LoS if it crosses no cell
    unseen = np.array([not known[table.cells[table.offsets[r]:table.offsets[r + 1]]].any()
                       for r in range(len(before))])
    assert (want & unseen).any() and (want & ~unseen).any()

    calls = counting_classify(monkeypatch)
    rm.ensure_layer_evaluated()
    assert len(calls) == 1
    assert calls[0] == np.flatnonzero(want & ~unseen).tolist()
    crossing = np.diff(table.offsets)[want & unseen] > 0
    settled = np.where(crossing, _STATE_CODE[LinkState.ASSUMED_LOS], _STATE_CODE[LinkState.LOS])
    assert np.array_equal(rm.state_grid.ravel()[want & unseen], settled)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_dirty_refresh_matches_full_refresh(seed):
    truth = city(seed)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    table = RayTable(BS, truth.width_cells, truth.depth_cells, truth.cell_size_m, ALT)
    assert_matches_full_refresh(truth, em, table, np.random.default_rng(seed))
    assert 0.2 < em.known.mean() < 1.0


@pytest.mark.parametrize("seed", [4, 9, 11])
def test_fully_known_map_is_estimated_at_construction(seed):
    cfg = default_config(seed=seed)
    sc = build_scenario(cfg.scenario)
    alt = sc.cfg.uav_altitude_m
    rm = RadioMap(ray_table_for(sc, sc.serving_bs, alt), ExploredMap.fully_known(sc.truth))
    codes = rm.state_grid.ravel()
    assert not np.any(codes == MISSING)
    assert not np.any(codes == _STATE_CODE[LinkState.ASSUMED_LOS])
    truth_nlos = TruthLink(sc, cfg.channel, alt).blocked[sc.serving_bs]
    assert np.array_equal(codes == _STATE_CODE[LinkState.NLOS], truth_nlos)


@pytest.mark.parametrize("kind, learns", [(PlannerKind.GLOBAL, False),
                                          (PlannerKind.EXPLORED, True)])
def test_update_around_classifies_only_while_the_map_can_learn(monkeypatch, kind, learns):
    cfg = default_config(seed=4)
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
        cfg.scenario, map_size_m=(200.0, 200.0), endpoint_distance_m=(80.0, 160.0)))
    sc = build_scenario(cfg.scenario)
    updates, from_update, inside = [], [], []
    update, classify = RadioMap.update_around, RayTable.classify_subset

    def flagged_update(rm, around, radius_m):
        updates.append(1)
        inside.append(1)
        try:
            return update(rm, around, radius_m)
        finally:
            inside.pop()

    def counting(table, rays, known, heights):
        if inside:
            from_update.append(len(rays))
        return classify(table, rays, known, heights)

    monkeypatch.setattr(RadioMap, "update_around", flagged_update)
    monkeypatch.setattr(RayTable, "classify_subset", counting)
    metrics, _ = run_episode(sc, kind, cfg, collect_log=False)
    assert metrics.reached
    # a map fully known at construction is refreshed only on the ticks that
    # price their own budgets, a map that learns on every tick from its
    # first frame on
    assert len(updates) > (100 if learns else 0)
    assert bool(from_update) is learns


def test_update_around_in_an_episode_refreshes_at_most_the_vehicle_cell(monkeypatch):
    # a default city, whose learning arms refresh the current cell each tick
    cfg = default_config()
    sc = build_scenario(dataclasses.replace(cfg.scenario, rng_seed=batch_seeds(0, 1)[0]),
                        cfg.planner.safety_margin_cells)
    inside, sizes = [], []
    update, refresh = RadioMap.update_around, RadioMap._refresh

    def flagged_update(rm, around, radius_m):
        inside.append(1)
        try:
            return update(rm, around, radius_m)
        finally:
            inside.pop()

    def recording_refresh(rm, idx):
        if inside:
            sizes.append(len(idx))
        return refresh(rm, idx)

    monkeypatch.setattr(RadioMap, "update_around", flagged_update)
    monkeypatch.setattr(RadioMap, "_refresh", recording_refresh)
    for kind in (PlannerKind.BASELINE, PlannerKind.EXPLORED):
        sizes.clear()
        metrics, _ = run_episode(sc, kind, cfg, collect_log=False)
        assert metrics.reached
        assert sizes and max(sizes) == 1, kind


def test_update_around_on_a_global_episode_checks_no_window(monkeypatch):
    # a fully known map can never have a due cell; the episode calls
    # update_around only on the ticks that price their own budgets
    cfg = default_config(seed=4)
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
        cfg.scenario, map_size_m=(200.0, 200.0), endpoint_distance_m=(80.0, 160.0)))
    sc = build_scenario(cfg.scenario)
    updates, due_calls = [], []
    update, due = RadioMap.update_around, RadioMap._due

    def counting_update(rm, around, radius_m):
        updates.append(1)
        return update(rm, around, radius_m)

    def counting_due(rm, win):
        due_calls.append(win)
        return due(rm, win)

    monkeypatch.setattr(RadioMap, "update_around", counting_update)
    monkeypatch.setattr(RadioMap, "_due", counting_due)
    metrics, _ = run_episode(sc, PlannerKind.GLOBAL, cfg, collect_log=False)
    assert metrics.reached
    assert len(updates) >= 1
    assert due_calls == []


def test_measured_nlos_on_a_fully_known_map_survives_update_around():
    truth = city(9)
    em = ExploredMap.fully_known(truth)
    rm = make_rm(em, BS)
    ix, iy = np.argwhere(rm.state_grid == _STATE_CODE[LinkState.LOS])[0]
    pos = ((ix + 0.5) * truth.cell_size_m, (iy + 0.5) * truth.cell_size_m, ALT)
    rm.csi_correct(pos, LinkState.NLOS)
    assert rm.state_at(pos) is LinkState.NLOS
    before = rm.state_grid.copy()
    rm.update_around(pos, 10.0)
    assert rm.state_at(pos) is LinkState.NLOS
    assert np.array_equal(rm.state_grid, before)


@pytest.mark.parametrize("bs, repeats", [((2.5, 2.5, 25.0), 0), ((-7.5, 2.5, 25.0), 1)],
                         ids=["cell-centre", "off-map"])
def test_flat_map_classifies_an_assumed_ray_again_only_once_its_last_unknown_crossing_is_learned(
        monkeypatch, bs, repeats):
    em = ExploredMap(12, 12, 5.0)  # every height 0: no cell can block
    rm = make_rm(em, np.array(bs))
    rm.ensure_layer_evaluated()
    table, known = rm.table, em.known.reshape(-1)
    target = 11 * 12 + 7
    entries = table.cells[table.offsets[target]:table.offsets[target + 1]]
    # from off the map the ray's first piece is clamped onto a border cell,
    # which its table then holds in two entries
    crossed = list(dict.fromkeys(entries.tolist()))
    assert len(crossed) >= 5 and len(entries) - len(crossed) == repeats
    assert rm.state_grid.reshape(-1)[target] == _STATE_CODE[LinkState.ASSUMED_LOS]
    calls = counting_classify(monkeypatch)
    for k, cell in enumerate(crossed):  # learn its crossings one at a time
        known[cell] = True
        rm.ensure_layer_evaluated()
        classified = [int(r) for call in calls for r in call]
        calls.clear()
        assert (target in classified) is (k == len(crossed) - 1)
        # every ray classified again has just lost its last unknown crossing
        for r in classified:
            assert known[table.cells[table.offsets[r]:table.offsets[r + 1]]].all()
            assert rm.state_grid.reshape(-1)[r] == _STATE_CODE[LinkState.LOS]


@pytest.mark.parametrize("bs_z", [25.0, 80.0], ids=["bs-below", "bs-above"])
def test_learned_building_between_the_ray_ends_turns_a_ray_still_crossing_unknown_cells_nlos(
        bs_z):
    em = ExploredMap(12, 12, 5.0)
    rm = make_rm(em, np.array([2.5, 2.5, bs_z]))
    rm.ensure_layer_evaluated()
    table = rm.table
    target = 11 * 12 + 7
    entries = slice(table.offsets[target], table.offsets[target + 1])
    crossed, minz = table.cells[entries], table.minz[entries]
    # a building on the ray's lowest crossing, taller than the lower end of
    # the ray and than the ray there, but lower than its upper end
    k = int(np.argmin(minz))
    height = 0.5 * (bs_z + ALT)
    assert min(bs_z, ALT) <= minz[k] < height < max(bs_z, ALT)
    em.known.reshape(-1)[crossed[k]] = True
    em.heights.reshape(-1)[crossed[k]] = height
    rm.ensure_layer_evaluated()
    assert not em.known.reshape(-1)[crossed].all()
    assert rm.state_grid.reshape(-1)[target] == _STATE_CODE[LinkState.NLOS]


def assert_matches_full_refresh(truth, em, table, rng, steps=150):
    """Fly random operations on RadioMap and FullRefreshRadioMap; their grids stay equal.

    A "tick" is run_episode's call shape: a measurement at a point, then a
    refresh of that point's cell alone, whose window then holds no stale
    cell and takes in nothing learned.
    """
    maps = [RadioMap(table, em), FullRefreshRadioMap(table, em)]
    sensor = SensorModel(120.0, 50.0)
    s = em.cell_size_m
    seen = set()
    for _ in range(steps):
        pos = (rng.uniform(0, 200), rng.uniform(0, 200), ALT)
        op = rng.choice(
            ["sense", "update_around", "csi_correct", "tick", "ensure_layer_evaluated"],
            p=[0.3, 0.2, 0.2, 0.2, 0.1])
        if op == "sense":
            sense(truth, em, pos, rng.uniform(-180, 180), sensor)
        elif op == "update_around":
            radius = rng.uniform(0.0, 60.0)
            for rm in maps:
                rm.update_around(pos, radius)
        elif op in ("csi_correct", "tick"):
            measured = LinkState.NLOS if rng.random() < 0.5 else LinkState.LOS
            ix, iy = em.cell_of(pos)
            for rm in maps:
                rm.csi_correct(pos, measured)
                if op == "tick":
                    rm.update_around(((ix + 0.5) * s, (iy + 0.5) * s, ALT), 0.0)
        else:
            for rm in maps:
                rm.ensure_layer_evaluated()
        fast, full = maps
        assert fast.state_grid.tobytes() == full.state_grid.tobytes(), op
        seen.update(np.unique(fast.state_grid).tolist())
    assert seen == {MISSING, *_CODE_STATE}


def test_dirty_refresh_matches_full_refresh_on_a_map_partly_known_at_construction():
    truth = city(13)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    rng = np.random.default_rng(13)
    for _ in range(4):
        sense(truth, em, (rng.uniform(0, 200), rng.uniform(0, 200), ALT),
              rng.uniform(-180, 180), SensorModel(120.0, 50.0))
    assert 0.05 < em.known.mean() < 0.5
    table = RayTable(BS, truth.width_cells, truth.depth_cells, truth.cell_size_m, ALT)
    assert_matches_full_refresh(truth, em, table, rng)
    assert em.known.mean() < 1.0


@pytest.mark.parametrize("bs", [(102.5, 102.5, 80.0), (-30.0, 117.5, 80.0)],
                         ids=["centre", "off-map"])
def test_dirty_refresh_matches_full_refresh_with_the_bs_above_the_layer(bs):
    # off the map, rays run along the clamped border cells, so a ray can
    # hold one cell in several entries
    truth = city(14)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    table = RayTable(np.array(bs), truth.width_cells, truth.depth_cells, truth.cell_size_m, ALT)
    assert table.origin[2] > table.target_z
    assert_matches_full_refresh(truth, em, table, np.random.default_rng(14))
    assert em.known.mean() < 1.0
