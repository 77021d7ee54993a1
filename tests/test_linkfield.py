import dataclasses

import numpy as np

from edgeflight.config import default_config
from edgeflight.linkfield import TruthLink, ray_table_for
from edgeflight.scenario import build_scenario
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
