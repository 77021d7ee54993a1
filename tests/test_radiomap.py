import numpy as np
import pytest

from edgeflight.channel import ChannelParams, LinkState, path_loss_db
from edgeflight.radiomap import _CODE_STATE, _STATE_CODE, RadioMap
from edgeflight.scenario import HeightField, ScenarioConfig, generate_city
from edgeflight.worldmap import ExploredMap, RayResult, RayTable, SensorModel, ray_blocked, sense

P = ChannelParams()
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
    return RadioMap(table, explored, P)


BS = np.array([102.5, 102.5, 25.0])


def ray_blocked_grid(truth: HeightField, bs, alt: float = ALT) -> np.ndarray:
    """Truth NLoS verdict per flight-layer cell, one scalar ray_blocked cast each."""
    s = truth.cell_size_m
    out = np.zeros((truth.width_cells, truth.depth_cells), dtype=bool)
    for ix, iy in np.ndindex(out.shape):
        tgt = np.array([(ix + 0.5) * s, (iy + 0.5) * s, alt])
        out[ix, iy] = ray_blocked(truth, bs, tgt) is RayResult.BLOCKED
    return out


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


def test_gain_consistent_with_state_and_distance():
    truth = city(1)
    em = ExploredMap.fully_known(truth)
    rm = make_rm(em, BS)
    rm.ensure_layer_evaluated()
    s = truth.cell_size_m
    for flat in range(0, truth.width_cells * truth.depth_cells, 37):
        ix, iy = divmod(flat, truth.depth_cells)
        state = _CODE_STATE[int(rm.state_grid[ix, iy])]
        center = np.array([(ix + 0.5) * s, (iy + 0.5) * s, ALT])
        d = float(np.linalg.norm(center - BS))
        assert rm.gain_grid[ix, iy] == pytest.approx(-path_loss_db(d, state, P))


def test_full_knowledge_matches_truth_rays():
    truth = city(2)
    em = ExploredMap.fully_known(truth)
    table = RayTable(BS, truth.width_cells, truth.depth_cells, truth.cell_size_m, ALT)
    rm = RadioMap(table, em, P, sticky_nlos=False)
    rm.ensure_layer_evaluated()
    want_blocked = ray_blocked_grid(truth, BS)
    got_nlos = rm.state_grid == _STATE_CODE[LinkState.NLOS]
    assert np.array_equal(got_nlos, want_blocked)
    assert not np.any(rm.state_grid == _STATE_CODE[LinkState.ASSUMED_LOS])


def test_optimism_invariant():
    truth = city(3)
    rng = np.random.default_rng(5)
    truth_blocked = ray_blocked_grid(truth, BS)
    for _ in range(4):
        em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
        for _ in range(int(rng.integers(1, 8))):
            pos = (rng.uniform(0, 200), rng.uniform(0, 200), ALT)
            sense(truth, em, pos, rng.uniform(-180, 180), SensorModel(120.0, 50.0))
        rm = make_rm(em, BS)
        rm.ensure_layer_evaluated()
        s = truth.cell_size_m
        for flat in rng.integers(0, truth.width_cells * truth.depth_cells, 400):
            ix, iy = divmod(int(flat), truth.depth_cells)
            true_state = LinkState.NLOS if truth_blocked[ix, iy] else LinkState.LOS
            d = float(
                np.hypot((ix + 0.5) * s - BS[0], (iy + 0.5) * s - BS[1]) ** 2
                + (ALT - BS[2]) ** 2
            ) ** 0.5
            truth_gain = -path_loss_db(d, true_state, P)
            est_gain = rm.gain_grid[ix, iy]
            assert est_gain >= truth_gain - 1e-9


def test_sticky_nlos_survives_updates():
    truth = city(4)
    em = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    rm = make_rm(em, BS)
    pos = np.array([52.5, 57.5, ALT])
    rm.csi_correct(pos, LinkState.NLOS)
    assert rm.state_at(pos) is LinkState.NLOS
    # exploring the whole map and re-running updates cannot flip it back,
    # even if the explored geometry says the ray is clear
    sense(truth, em, (100, 100, ALT), 0.0, SensorModel(360.0, 300.0))
    rm.update_around(pos, 300.0)
    rm.ensure_layer_evaluated()
    assert rm.state_at(pos) is LinkState.NLOS
    # a later LoS measurement is also ignored: sticky wins by contract
    rm.csi_correct(pos, LinkState.LOS)
    assert rm.state_at(pos) is LinkState.NLOS


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
    truth_blocked = ray_blocked_grid(truth, BS)
    nlos_mask = grid_states == _STATE_CODE[LinkState.NLOS]
    assert np.all(truth_blocked[nlos_mask])


def test_missing_voxel_evaluated_on_demand():
    em = ExploredMap(10, 10, 5.0)
    bs = np.array([25.0, 25.0, 25.0])
    rm = make_rm(em, bs)
    p = (42.5, 42.5, ALT)
    assert rm.state_at(p) is None
    rm.update_around(p, 0.0)
    assert rm.state_at(p) is LinkState.ASSUMED_LOS
    assert rm.state_at((2.5, 2.5, ALT)) is None  # outside the refreshed radius
    d = float(np.linalg.norm(np.array(p) - bs))
    assert rm.gain_grid[em.cell_of(p)] == pytest.approx(-path_loss_db(d, LinkState.LOS, P))
