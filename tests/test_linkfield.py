import dataclasses

import numpy as np

from edgeflight.channel import ChannelParams, LinkState
from edgeflight.config import default_config
from edgeflight.linkfield import TruthLink, capacities, ray_table_for
from edgeflight.offload import remote_update_rate, select_mode, speed_limit
from edgeflight.planner import Planner, PlannerKind
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


def test_capacities_match_channel_math():
    ch = ChannelParams(uav_tx_power_dbm=20.0, bs_tx_power_dbm=30.0)
    gain = np.array([-90.0, -120.0])
    int_mw = np.array([0.0, 1e-9])
    noise_mw = 10 ** (ch.noise_dbm / 10.0)
    up, dn, sinr, frac = capacities(gain, int_mw, ch, noise_mw)
    sig = 10 ** ((30.0 + gain) / 10.0)  # 1e-6 and 1e-9 mW
    assert np.allclose(sinr, sig / (noise_mw + int_mw))
    assert np.allclose(frac, [0.0, 0.5])
    assert np.allclose(up, ch.bandwidth_hz * np.log2(1.0 + 10 ** ((20.0 + gain) / 10.0) / noise_mw))
    assert np.allclose(dn, ch.bandwidth_hz * np.log2(1.0 + sig / (noise_mw + int_mw)))


def inexact_grid_city(scfg):
    """A 70 m city of 0.7 m cells, whose centres are not exact in binary."""
    s = 0.7
    return dataclasses.replace(
        scfg, map_size_m=(100 * s, 100 * s), cell_size_m=s,
        building_footprint_m=21 * s, street_width_m=43 * s,
        endpoint_distance_m=(25 * s, 50 * s), rng_seed=2)


def test_global_planning_grids_equal_the_per_tick_budgets_at_cell_centres():
    """The global arm plans on the same bits the simulator flies on.

    At every cell centre, the global planner's speed-limit, NLoS and
    interference-fraction grids equal what a tick at that centre gets from
    `uplink_capacity`, `downlink`, `remote_update_rate`, `select_mode`,
    `speed_limit` and `serving_state`. Three default cities, whose 5 m cell
    centres are exact in binary, and one of 0.7 m cells, whose centres are
    not. On the default cities the explored arm over the fully known city
    prices the truth serving gain: with equal transmit powers its
    interference-free downlink is the uplink. Its `layer_offsets` distances
    round otherwise on the 0.7 m cells, where that check is skipped.
    """
    cfg = default_config()
    ch, oc = cfg.channel, cfg.offload
    assert ch.uav_tx_power_dbm == ch.bs_tx_power_dbm
    cities = [dataclasses.replace(cfg.scenario, rng_seed=seed) for seed in (4, 9, 11)]
    cities.append(inexact_grid_city(cfg.scenario))
    s = cities[-1].cell_size_m

    def tick_limit(up, dn):
        return speed_limit(select_mode(remote_update_rate(up, dn, oc), oc.local_fps)[1], oc)

    for scfg in cities:
        sc = build_scenario(scfg)
        alt = sc.cfg.uav_altitude_m
        truth = sc.truth
        nx, ny = truth.width_cells, truth.depth_cells
        tl = TruthLink(sc, ch, alt)
        explored = ExploredMap.fully_known(truth)
        rm = RadioMap(ray_table_for(sc, sc.serving_bs, alt), explored)

        def grids(kind):
            return Planner(kind, sc, explored, rm, tl, ch, oc, cfg.planner)._grids()

        limits, nlos, intf = grids(PlannerKind.GLOBAL)
        tick_lim, tick_free, tick_intf = (np.empty((nx, ny)) for _ in range(3))
        tick_nlos = np.empty((nx, ny), dtype=bool)
        for ix in range(nx):
            for iy in range(ny):
                pos = np.array([*truth.cell_center(ix, iy), alt])
                up = tl.uplink_capacity(pos)
                dn, _, tick_intf[ix, iy] = tl.downlink(pos)
                tick_lim[ix, iy] = tick_limit(up, dn)
                tick_free[ix, iy] = tick_limit(up, up)
                tick_nlos[ix, iy] = tl.serving_state(pos) is LinkState.NLOS
        assert np.array_equal(limits, tick_lim), int((limits != tick_lim).sum())
        assert np.array_equal(intf, tick_intf), int((intf != tick_intf).sum())
        assert np.array_equal(nlos, tick_nlos)

        if scfg.cell_size_m == s:
            continue
        assert tick_nlos.any() and not tick_nlos.all()
        limits, nlos, _ = grids(PlannerKind.EXPLORED)
        assert np.array_equal(limits, tick_free), int((limits != tick_free).sum())
        assert np.array_equal(nlos, tick_nlos)


def test_budgets_equal_the_per_point_methods_bit_for_bit():
    """One array pass prices every position with the per-point methods' bits.

    Three default cities, one with five BSs, whose three interferers make
    the order of the interference sum show, and one with a single BS, whose
    interferer stack is empty. The positions are random ones,
    cell corners and cell edges, points off the map and points straight
    above each BS. They are priced all at once, in batches of 7, one at a
    time, and from arrays whose rows are not contiguous.
    """
    cfg = default_config()
    rng = np.random.default_rng(18)
    cities = [dataclasses.replace(cfg.scenario, rng_seed=seed) for seed in (4, 9, 11)]
    cities.append(dataclasses.replace(cfg.scenario, rng_seed=4, n_bs=5))
    cities.append(dataclasses.replace(cfg.scenario, rng_seed=9, n_bs=1))
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
        want = [(tl.uplink_capacity(q), *tl.downlink(q), tl.serving_state(q) is LinkState.NLOS)
                for q in pts]
        assert {w[4] for w in want} == {False, True}

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
