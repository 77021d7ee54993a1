import dataclasses

import numpy as np

from edgeflight.channel import LinkState
from edgeflight.config import default_config
from edgeflight.linkfield import TruthLink, ray_table_for
from edgeflight.planner import Planner, PlannerKind, capacity_grids, rate_to_limit_grid
from edgeflight.radiomap import RadioMap
from edgeflight.scenario import build_scenario
from edgeflight.worldmap import ExploredMap
from oracles import RayResult, ray_blocked, truth_budgets


def test_truth_budgets_equal_the_per_link_formulas_exactly():
    cfg = default_config()
    rng = np.random.default_rng(21)
    nlos_seen = set()
    size = 200.0
    for seed in (4, 9):
        sc = build_scenario(dataclasses.replace(
            cfg.scenario, map_size_m=(size, size), rng_seed=seed))
        alt = sc.cfg.uav_altitude_m
        truth = sc.truth
        s = truth.cell_size_m
        tl = TruthLink(sc, cfg.channel, alt)
        inner = rng.uniform(0.0, size, size=(200, 2))
        # cell corners and cell edges, the map border included, where the
        # cell lookup changes
        corners = rng.integers(0, int(size / s) + 1, size=(25, 2)) * s
        edges = np.column_stack([corners[:, 0], rng.uniform(0.0, size, 25)])
        for x, y in np.vstack([inner, corners, edges]):
            pos = np.array([x, y, alt])
            center = np.array([*truth.cell_center(*truth.cell_of(pos)), alt])
            nlos = [ray_blocked(truth, bs, center) is RayResult.BLOCKED
                    for bs in sc.bs_positions]
            up, down = truth_budgets(cfg.channel, sc.bs_positions, sc.serving_bs, pos, nlos)
            assert tl.uplink_capacity(pos) == up
            assert tl.downlink(pos) == down
            nlos_seen.update(nlos)
    assert nlos_seen == {False, True}  # both link states were priced


def test_truth_links_on_one_scenario_share_their_masks():
    cfg = default_config()
    sc = build_scenario(dataclasses.replace(
        cfg.scenario, map_size_m=(200.0, 200.0), rng_seed=4))
    alt = sc.cfg.uav_altitude_m
    for b in range(len(sc.bs_positions)):
        ray_table_for(sc, b, alt)
    assert not sc._truth_masks  # ray tables alone classify nothing
    first = TruthLink(sc, cfg.channel, alt)
    second = TruthLink(sc, cfg.channel, alt)
    assert len(first.blocked) == len(sc.bs_positions)
    assert all(a is b for a, b in zip(first.blocked, second.blocked))
    assert not any(m.flags.writeable for m in first.blocked)
    known = np.ones_like(sc.truth.heights, dtype=bool)
    for b, mask in enumerate(first.blocked):
        want, _ = ray_table_for(sc, b, alt).classify_subset(
            np.arange(known.size), known, sc.truth.heights)
        assert np.array_equal(mask, want)
    # another layer is another mask
    other = TruthLink(sc, cfg.channel, alt + 10.0)
    assert all(a is not b for a, b in zip(first.blocked, other.blocked))


def test_global_planning_grids_equal_the_per_tick_budgets_at_cell_centres():
    """The global arm plans on the same bits the simulator flies on.

    At every cell centre of three default cities, the uplink, downlink and
    interference-fraction grids equal the per-tick budgets exactly, and the
    explored arm over the fully known city prices the truth serving gain.
    """
    cfg = default_config()
    ch = cfg.channel
    for seed in (4, 9, 11):
        sc = build_scenario(dataclasses.replace(cfg.scenario, rng_seed=seed))
        alt = sc.cfg.uav_altitude_m
        truth = sc.truth
        nx, ny = truth.width_cells, truth.depth_cells
        tl = TruthLink(sc, ch, alt)
        serving = sc.serving_bs
        gain, int_mw = tl.layer_grids()
        up, dn, sig_mw = capacity_grids(gain, int_mw, ch)
        frac = int_mw / (int_mw + sig_mw)

        tick_up = np.empty((nx, ny))
        tick_dn = np.empty((nx, ny))
        tick_frac = np.empty((nx, ny))
        for ix in range(nx):
            for iy in range(ny):
                pos = np.array([*truth.cell_center(ix, iy), alt])
                tick_up[ix, iy] = tl.uplink_capacity(pos)
                tick_dn[ix, iy], _, tick_frac[ix, iy] = tl.downlink(pos)
        assert np.array_equal(up, tick_up), int((up != tick_up).sum())
        assert np.array_equal(dn, tick_dn), int((dn != tick_dn).sum())
        assert np.array_equal(frac, tick_frac), int((frac != tick_frac).sum())

        explored = ExploredMap.fully_known(truth)
        rm = RadioMap(ray_table_for(sc, serving, alt), explored)
        pl = Planner(PlannerKind.EXPLORED, sc, explored, rm, tl, ch, cfg.offload, cfg.planner)
        limits, nlos, _ = pl._grids()
        up, dn, _ = capacity_grids(gain, 0.0, ch)
        assert np.array_equal(limits, rate_to_limit_grid(up, dn, cfg.offload))
        assert np.array_equal(nlos.ravel(), tl.blocked[serving])


def test_budgets_equal_the_per_point_methods_bit_for_bit():
    """One array pass prices every position with the per-point methods' bits.

    Three default cities, and one with five BSs, whose three interferers make
    the order of the interference sum show. The positions are random ones,
    cell corners and cell edges, points off the map and points straight
    above each BS. They are priced all at once, in batches of 7, one at a
    time, and from arrays whose rows are not contiguous.
    """
    cfg = default_config()
    rng = np.random.default_rng(18)
    cities = [dataclasses.replace(cfg.scenario, rng_seed=seed) for seed in (4, 9, 11)]
    cities.append(dataclasses.replace(cfg.scenario, rng_seed=4, n_bs=5))
    for scfg in cities:
        sc = build_scenario(scfg)
        alt = sc.cfg.uav_altitude_m
        truth = sc.truth
        s = truth.cell_size_m
        nx, ny = truth.width_cells, truth.depth_cells
        size = np.array([nx * s, ny * s])
        corners = rng.integers(0, [nx + 1, ny + 1], size=(40, 2)) * s
        xy = np.vstack([
            rng.uniform(0.0, 1.0, size=(300, 2)) * size,
            corners,
            np.column_stack([corners[:, 0], rng.uniform(0.0, size[1], 40)]),
            np.column_stack([rng.uniform(0.0, size[0], 40), corners[:, 1]]),
            rng.uniform(-0.5, 1.5, size=(40, 2)) * size,
            [bs[:2] for bs in sc.bs_positions],
        ])
        pts = np.column_stack([xy, np.full(len(xy), alt)])
        tl = TruthLink(sc, cfg.channel, alt)
        want = [(tl.uplink_capacity(q), *tl.downlink(q)[:2], tl.serving_state(q) is LinkState.NLOS)
                for q in pts]
        assert {w[3] for w in want} == {False, True}

        def priced(points):
            return list(zip(*(a.tolist() for a in tl.budgets(points))))

        wide = np.zeros((len(pts), 6))
        wide[:, ::2] = pts
        assert not wide[:, ::2].flags.c_contiguous
        assert priced(pts) == want
        assert priced(list(pts)) == want
        assert priced(wide[:, ::2]) == want
        assert priced(np.asfortranarray(pts)) == want
        assert sum((priced(pts[i:i + 7]) for i in range(0, len(pts), 7)), []) == want
        assert [priced(pts[i:i + 1])[0] for i in range(len(pts))] == want
