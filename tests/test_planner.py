import numpy as np
import pytest

import edgeflight.planner as planner_mod
from edgeflight.channel import ChannelParams, LinkState
from edgeflight.errors import StuckError
from edgeflight.linkfield import TruthLink
from edgeflight.offload import OffloadConfig, remote_update_rate, speed_limit
from edgeflight.planner import (
    PlanConfig,
    Planner,
    PlannerKind,
    rate_to_limit_grid,
    replan_due,
    capacity_grids,
    segment_invalidated,
)
from edgeflight.radiomap import _STATE_CODE, RadioMap
from edgeflight.scenario import HeightField, Scenario, ScenarioConfig
from edgeflight.worldmap import ExploredMap, RayTable, SensorModel, sense
from oracles import enumerate_best_path_cost, relaxed_cost_to_go

CH = ChannelParams()
OC = OffloadConfig()
ALT = 50.0


def make_world(heights: np.ndarray, bs_cell, start_cell, goal_cell,
               cell_size: float = 5.0) -> Scenario:
    """Hand-built scenario: explicit height grid and lattice placements."""
    nx, ny = heights.shape
    cfg = ScenarioConfig(
        map_size_m=(nx * cell_size, ny * cell_size),
        cell_size_m=cell_size,
        building_footprint_m=cell_size,
        street_width_m=cell_size,
        uav_altitude_m=ALT,
        endpoint_distance_m=(cell_size, nx * ny * cell_size),
    )
    truth = HeightField(np.asarray(heights, dtype=float), cell_size)
    bs = np.array([*truth.cell_center(*bs_cell), 25.0])
    start = np.array([*truth.cell_center(*start_cell), ALT])
    goal = np.array([*truth.cell_center(*goal_cell), ALT])
    return Scenario(cfg=cfg, truth=truth, bs_positions=[bs], serving_bs=0,
                    start=start, goal=goal)


def make_planner(sc: Scenario, kind: PlannerKind, pc: PlanConfig | None = None,
                 explored: ExploredMap | None = None, rm: RadioMap | None = None) -> Planner:
    if explored is None:
        explored = ExploredMap.fully_known(sc.truth)
    if rm is None:
        table = RayTable(sc.bs_positions[0], sc.truth.width_cells,
                         sc.truth.depth_cells, sc.truth.cell_size_m, ALT)
        rm = RadioMap(table, explored, CH)
    tl = TruthLink(sc, CH, ALT)
    return Planner(kind, sc, explored, rm, tl, CH, OC,
                   pc or PlanConfig(horizon_s=1e9))


def planner_pen(pl: Planner) -> np.ndarray:
    """The documented per-cell cost rate, rebuilt from the planner's grids."""
    limits, nlos, intf = pl._grids()
    lam = pl.pc.nlos_penalty if pl.kind is not PlannerKind.BASELINE else 0.0
    mu = pl.pc.interference_weight if pl.kind is PlannerKind.GLOBAL else 0.0
    return limits, 1.0 + lam * nlos.astype(float) + mu * intf


def random_world(rng, nx, ny, p_obstacle=0.2):
    from scipy.ndimage import binary_dilation

    heights = np.zeros((nx, ny))
    blocks = rng.random((nx, ny)) < p_obstacle
    heights[blocks] = rng.uniform(20.0, 80.0, size=int(blocks.sum()))
    margin = binary_dilation(heights >= ALT, structure=np.ones((3, 3), dtype=bool))
    free = np.argwhere(~margin)
    picks = free[rng.choice(len(free), size=3, replace=False)]
    return heights, tuple(picks[0]), tuple(picks[1]), tuple(picks[2])


def test_plan_cost_matches_relaxation_oracle():
    rng = np.random.default_rng(77)
    solved = 0
    for _ in range(40):
        heights, bs_c, start_c, goal_c = random_world(rng, 12, 12)
        sc = make_world(heights, bs_c, start_c, goal_c)
        for kind in (PlannerKind.GLOBAL, PlannerKind.EXPLORED, PlannerKind.BASELINE):
            pl = make_planner(sc, kind)
            limits, pen = planner_pen(pl)
            forb = pl.forbidden_mask()
            want = relaxed_cost_to_go(limits, pen, forb, goal_c, 5.0)[start_c]
            if not np.isfinite(want):
                continue
            seg = pl.plan(sc.start)
            assert seg.plan_cost == pytest.approx(float(want), rel=1e-9)
            assert seg.reaches_goal
            assert seg.cost == pytest.approx(seg.plan_cost, rel=1e-9)
            solved += 1
    assert solved >= 60


def test_plan_cost_matches_exhaustive_enumeration_on_tiny_grids():
    rng = np.random.default_rng(3)
    solved = 0
    for _ in range(16):
        heights, bs_c, start_c, goal_c = random_world(rng, 4, 4, p_obstacle=0.12)
        sc = make_world(heights, bs_c, start_c, goal_c)
        pl = make_planner(sc, PlannerKind.GLOBAL)
        limits, pen = planner_pen(pl)
        forb = pl.forbidden_mask()
        want = enumerate_best_path_cost(limits, pen, forb, start_c, goal_c, 5.0)
        relax = relaxed_cost_to_go(limits, pen, forb, goal_c, 5.0)[start_c]
        if not np.isfinite(want):
            continue
        # the two oracles agree with each other, and the planner with both
        assert relax == pytest.approx(want, rel=1e-9)
        seg = pl.plan(sc.start)
        assert seg.plan_cost == pytest.approx(want, rel=1e-9)
        solved += 1
    assert solved >= 6


def test_plan_is_deterministic():
    rng = np.random.default_rng(5)
    heights, bs_c, start_c, goal_c = random_world(rng, 14, 14)
    sc = make_world(heights, bs_c, start_c, goal_c)
    a = make_planner(sc, PlannerKind.GLOBAL).plan(sc.start)
    b = make_planner(sc, PlannerKind.GLOBAL).plan(sc.start)
    assert a.cells == b.cells
    assert np.array_equal(a.points, b.points)


def test_walled_goal_raises_stuck():
    heights = np.zeros((9, 9))
    heights[5, :] = 80.0  # full wall between start and goal
    sc = make_world(heights, (0, 0), (2, 4), (8, 4))
    pl = make_planner(sc, PlannerKind.GLOBAL)
    with pytest.raises(StuckError):
        pl.plan(sc.start)


def test_margin_inflation_blocks_adjacent_cells():
    heights = np.zeros((9, 9))
    heights[4, 4] = 80.0
    sc = make_world(heights, (0, 0), (2, 4), (8, 4))
    pl = make_planner(sc, PlannerKind.GLOBAL, PlanConfig(horizon_s=1e9,
                                                         safety_margin_cells=1))
    forb = pl.forbidden_mask()
    assert forb[4, 4] and forb[3, 4] and forb[4, 3] and forb[5, 5]
    seg = pl.plan(sc.start)
    assert not any(forb[c] for c in seg.cells)
    assert seg.reaches_goal


def test_escape_hop_from_inflated_margin():
    # obstacle appears next to the vehicle: its cell is swallowed by the
    # margin, the plan must step out rather than declare the mission stuck
    heights = np.zeros((9, 9))
    sc = make_world(heights, (0, 0), (3, 4), (8, 4))
    explored = ExploredMap.fully_known(sc.truth)
    explored.heights[3, 5] = 80.0  # adjacent to the start cell
    pl = make_planner(sc, PlannerKind.GLOBAL, explored=explored)
    assert pl.forbidden_mask()[3, 4]
    seg = pl.plan(sc.start)
    assert len(seg.cells) >= 2
    assert not pl.forbidden_mask()[seg.cells[1]]


def test_escape_hop_matches_a_neighbour_loop():
    # reference: scan the eight neighbours with the documented edge cost
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(6):
        heights, bs_c, start_c, goal_c = random_world(rng, 10, 10)
        sc = make_world(heights, bs_c, start_c, goal_c)
        pl = make_planner(sc, PlannerKind.GLOBAL)
        gstar, _, limits, weight, forb = pl._cost_field()
        _, pen = planner_pen(pl)
        for c in np.flatnonzero(forb):
            ux, uy = divmod(int(c), 10)
            best = None
            for vx in range(ux - 1, ux + 2):
                for vy in range(uy - 1, uy + 2):
                    if (vx, vy) == (ux, uy) or not (0 <= vx < 10 and 0 <= vy < 10):
                        continue
                    if forb[vx, vy] or not np.isfinite(gstar[vx * 10 + vy]):
                        continue
                    d = 5.0 * np.hypot(vx - ux, vy - uy)
                    w = d / min(limits[ux, uy], limits[vx, vy]) * 0.5 * (pen[ux, uy] + pen[vx, vy])
                    if best is None or (w + gstar[vx * 10 + vy], vx * 10 + vy) < best:
                        best = (w + gstar[vx * 10 + vy], vx * 10 + vy)
            hop, edge = pl._escape_hop(int(c), gstar, weight, forb)
            if best is None:
                assert hop is None
                continue
            assert hop == best[1]
            assert edge == pytest.approx(best[0] - gstar[best[1]], rel=1e-12)
            checked += 1
    assert checked >= 50


def test_horizon_truncates_commitment_not_reachability():
    heights = np.zeros((16, 16))
    sc = make_world(heights, (0, 0), (0, 8), (15, 8))
    short = make_planner(sc, PlannerKind.GLOBAL,
                         PlanConfig(horizon_s=2.0, commit_within_sensed=False))
    seg = short.plan(sc.start)
    assert not seg.reaches_goal
    assert len(seg.cells) >= 2
    # committed time stays within one edge of the horizon
    t = sum(
        np.linalg.norm(np.diff(seg.points[i : i + 2], axis=0)) / seg.leg_speeds[i]
        for i in range(len(seg.leg_speeds))
    )
    assert t <= 2.0 + 5.0 * np.sqrt(2) / seg.leg_speeds.min()
    # the committed prefix follows the optimum: its cost plus the remaining
    # cost-to-go equals the full plan cost
    assert seg.cost <= seg.plan_cost


def test_commit_within_sensed_stops_at_frontier():
    heights = np.zeros((12, 12))
    sc = make_world(heights, (0, 0), (1, 6), (10, 6))
    explored = ExploredMap(12, 12, 5.0)
    explored.known[:4, :] = True  # knowledge ends at column 3
    pl = make_planner(sc, PlannerKind.EXPLORED,
                      PlanConfig(horizon_s=1e9, commit_within_sensed=True),
                      explored=explored)
    seg = pl.plan(sc.start)
    assert all(explored.known[c] for c in seg.cells[1:])
    assert not seg.reaches_goal


def test_in_goal_cell_plan_closes_the_gap():
    heights = np.zeros((8, 8))
    sc = make_world(heights, (0, 0), (4, 4), (4, 4))
    pl = make_planner(sc, PlannerKind.GLOBAL)
    off = sc.goal + np.array([1.3, -0.9, 0.0])
    seg = pl.plan(off)
    assert seg.reaches_goal
    assert np.allclose(seg.points[-1], sc.goal)
    assert len(seg.leg_speeds) == 1


def test_rate_to_limit_grid_matches_scalar_pipeline():
    up = np.array([[10e6, 1e6], [0.0, 20e6]])
    dn = np.array([[10e6, 5e6], [1e6, 1e5]])
    got = rate_to_limit_grid(up, dn, OC)
    for i in range(2):
        for j in range(2):
            fps = max(remote_update_rate(up[i, j], dn[i, j], OC), OC.local_fps)
            assert got[i, j] == pytest.approx(speed_limit(fps, OC))


def test_capacity_grids_match_channel_math():
    ch = ChannelParams(uav_tx_power_dbm=20.0, bs_tx_power_dbm=30.0)
    gain = np.array([-90.0, -120.0])
    int_mw = np.array([0.0, 1e-9])
    up, dn, sig_mw = capacity_grids(gain, int_mw, ch)
    noise_mw = 10 ** (ch.noise_dbm / 10.0)
    sig = 10 ** ((30.0 + gain) / 10.0)
    assert np.allclose(sig_mw, sig)
    assert np.allclose(up, ch.bandwidth_hz * np.log2(1.0 + 10 ** ((20.0 + gain) / 10.0) / noise_mw))
    assert np.allclose(dn, ch.bandwidth_hz * np.log2(1.0 + sig / (noise_mw + int_mw)))


def test_replan_cadence_and_invalidation():
    pc = PlanConfig(replan_period_s=1.0)
    assert replan_due(1.0, 0.0, pc)
    assert not replan_due(0.5, 0.0, pc)
    assert replan_due(0.5, 0.0, pc, invalidated=True)


def test_segment_invalidated_checks_remaining_cells_only():
    heights = np.zeros((8, 8))
    sc = make_world(heights, (0, 0), (1, 4), (6, 4))
    pl = make_planner(sc, PlannerKind.GLOBAL)
    seg = pl.plan(sc.start)
    forb = np.zeros((8, 8), dtype=bool)
    assert not segment_invalidated(seg, 0, forb)
    forb[seg.cells[0]] = True  # already traversed: no longer relevant
    assert not segment_invalidated(seg, 1, forb)
    forb[seg.cells[-1]] = True
    assert segment_invalidated(seg, 1, forb)


def plan_fields(pl: Planner, position):
    """Every field of the plan from `position`, or None when stuck."""
    try:
        seg = pl.plan(position)
    except StuckError:
        return None
    return (seg.cells, seg.points.tolist(), seg.leg_speeds.tolist(), seg.cost, seg.plan_cost)


def test_cached_fields_plan_like_a_fresh_planner():
    rng = np.random.default_rng(21)
    heights, bs_c, start_c, goal_c = random_world(rng, 16, 16)
    sc = make_world(heights, bs_c, start_c, goal_c)
    explored = ExploredMap(16, 16, 5.0)
    rm = make_planner(sc, PlannerKind.EXPLORED, explored=explored).rm
    kept = {kind: make_planner(sc, kind, explored=explored, rm=rm) for kind in PlannerKind}

    def check():
        for kind, pl in kept.items():
            fresh = make_planner(sc, kind, explored=explored, rm=rm)
            assert plan_fields(pl, sc.start) == plan_fields(fresh, sc.start), kind

    check()
    for heading in (0.0, 90.0, 180.0, 270.0):
        sense(sc.truth, explored, sc.start, heading, SensorModel(120.0, 30.0))
        check()
        if heading == 90.0:
            rm.csi_correct(sc.goal, LinkState.NLOS)
            check()
    assert kept[PlannerKind.BASELINE].forbidden_mask().any()


def test_field_is_rebuilt_only_when_its_inputs_change(monkeypatch):
    calls = []
    dijkstra = planner_mod.csgraph.dijkstra

    def counting(*args, **kwargs):
        calls.append(1)
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(planner_mod.csgraph, "dijkstra", counting)
    sc = make_world(np.zeros((16, 16)), (0, 0), (2, 8), (13, 8))
    explored = ExploredMap(16, 16, 5.0)
    explored_arm = make_planner(sc, PlannerKind.EXPLORED, explored=explored)
    rm = explored_arm.rm
    arms = (
        make_planner(sc, PlannerKind.BASELINE, explored=explored, rm=rm),
        explored_arm,
        # speed limits alone key this one's field
        make_planner(sc, PlannerKind.EXPLORED, PlanConfig(horizon_s=1e9, nlos_penalty=0.0),
                     explored=explored, rm=rm),
    )

    def rebuilds():
        counts = []
        for pl in arms:
            n = len(calls)
            pl.plan(sc.start)
            counts.append(len(calls) - n)
        return tuple(counts)

    assert rebuilds() == (1, 1, 1)
    # free ground: more known cells and assumed-LoS estimates confirmed as LoS
    for heading in (0.0, 90.0, 180.0):
        sense(sc.truth, explored, sc.start, heading, SensorModel(120.0, 30.0))
        assert rebuilds() == (0, 0, 0)
    assert (rm.state_grid == _STATE_CODE[LinkState.LOS]).any()
    # a cell at flight altitude: new forbidden cells and a new NLoS shadow
    explored.known[10, 3] = True
    explored.heights[10, 3] = ALT
    assert rebuilds() == (1, 1, 1)
    assert rebuilds() == (0, 0, 0)
    # a measured NLoS cell changes speed limits and penalties, never the baseline's
    assert rm.state_at(sc.truth.cell_center(3, 12)) is not LinkState.NLOS
    rm.csi_correct(sc.truth.cell_center(3, 12), LinkState.NLOS)
    assert rebuilds() == (0, 1, 1)
    assert rebuilds() == (0, 0, 0)
    # the NLoS penalty alone, as where the speed limit saturates at v_max
    rm.state_grid[5, 12] = _STATE_CODE[LinkState.NLOS]
    assert rebuilds() == (0, 1, 0)
