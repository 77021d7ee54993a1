import dataclasses

import numpy as np
import pytest

import edgeflight.planner as planner_mod
from edgeflight.channel import ChannelParams, LinkState
from edgeflight.config import default_config
from edgeflight.errors import StuckError
from edgeflight.linkfield import TruthLink, ray_table_for
from edgeflight.offload import OffloadConfig, remote_update_rate, speed_limit
from edgeflight.planner import (
    PlanConfig,
    Planner,
    PlannerKind,
    replan_due,
    segment_invalidated,
)
from edgeflight.radiomap import _STATE_CODE, RadioMap
from edgeflight.scenario import HeightField, Scenario, ScenarioConfig, build_scenario
from edgeflight.simcore import run_episode
from edgeflight.worldmap import ExploredMap, RayTable, SensorModel, sense
from oracles import (
    baseline_speed_limit,
    edge_cost,
    enumerate_best_path_cost,
    relaxed_cost_to_go,
    serving_link_speed_limit,
)

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
                 explored: ExploredMap | None = None, rm: RadioMap | None = None,
                 oc: OffloadConfig = OC) -> Planner:
    if explored is None:
        explored = ExploredMap.fully_known(sc.truth)
    if rm is None:
        table = RayTable(sc.bs_positions[0], sc.truth.width_cells,
                         sc.truth.depth_cells, sc.truth.cell_size_m, ALT)
        rm = RadioMap(table, explored)
    tl = TruthLink(sc, CH, ALT)
    return Planner(kind, sc, explored, rm, tl, CH, oc,
                   pc or PlanConfig(horizon_s=1e9))


def planner_pen(pl: Planner) -> np.ndarray:
    """The documented per-cell cost rate, rebuilt from the planner's grids."""
    limits, nlos, intf = pl._grids()
    return limits, 1.0 + pl.pc.nlos_penalty * nlos.astype(float) + pl.pc.interference_weight * intf


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


@pytest.mark.parametrize("shape", [(2, 9), (9, 2), (7, 5), (12, 12)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_cost_field_graph_equals_the_coo_graph_bit_for_bit(monkeypatch, shape):
    # the planner hands its sorted lattice edges to csr_matrix as CSR arrays;
    # they must be exactly what coo.tocsr() makes of the edges in any order
    from scipy import sparse
    from oracles import _NEIGH

    graphs = []
    dijkstra = planner_mod.csgraph.dijkstra

    def keeping(graph, *args, **kwargs):
        graphs.append(graph)
        return dijkstra(graph, *args, **kwargs)

    monkeypatch.setattr(planner_mod.csgraph, "dijkstra", keeping)
    rng = np.random.default_rng(sum(shape))
    nx, ny = shape
    # sparse enough that the margin of one cell leaves free cells on every shape
    heights = np.where(rng.random(shape) < 0.1, 80.0, 0.0)
    free = np.argwhere(heights == 0.0)
    picks = free[rng.choice(len(free), size=3, replace=False)]
    sc = make_world(heights, *map(tuple, picks))
    for kind in (PlannerKind.GLOBAL, PlannerKind.BASELINE):
        pl = make_planner(sc, kind, PlanConfig(horizon_s=1e9, safety_margin_cells=1))
        pl._cost_field()
        limits, pen = planner_pen(pl)
        lim, pen, forb = limits.ravel(), pen.ravel(), pl.forbidden_mask().ravel()
        assert 0 < forb.sum() < forb.size
        u, v, length = [], [], []
        for ddx, ddy, dd in _NEIGH:
            for ix in range(nx):
                for iy in range(ny):
                    jx, jy = ix + ddx, iy + ddy
                    if 0 <= jx < nx and 0 <= jy < ny and not forb[ix * ny + iy]:
                        u.append(ix * ny + iy)
                        v.append(jx * ny + jy)
                        length.append(dd * 5.0)
        u, v, length = np.array(u), np.array(v), np.array(length)
        weight = length / np.minimum(lim[u], lim[v]) * 0.5 * (pen[u] + pen[v])
        want = sparse.coo_matrix((weight, (u, v)), shape=(nx * ny, nx * ny)).tocsr()
        got = graphs.pop()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


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
    # a forbidden cell is a dead end of the sweep: its cost-to-go is the
    # cheapest hop to a free neighbour, scanned here with the documented
    # edge cost, and its next hop is a free neighbour that attains it
    rng = np.random.default_rng(9)
    checked = dead = 0
    for _ in range(6):
        heights, bs_c, start_c, goal_c = random_world(rng, 10, 10)
        sc = make_world(heights, bs_c, start_c, goal_c)
        pl = make_planner(sc, PlannerKind.GLOBAL)
        gstar, pred, _ = pl._cost_field()
        limits, pen = planner_pen(pl)
        forb = pl.forbidden_mask()
        g = gstar.reshape(10, 10)
        for c in map(tuple, np.argwhere(forb)):
            totals = {}
            for vx in range(c[0] - 1, c[0] + 2):
                for vy in range(c[1] - 1, c[1] + 2):
                    v = (vx, vy)
                    if v == c or not (0 <= vx < 10 and 0 <= vy < 10):
                        continue
                    if forb[v] or not np.isfinite(g[v]):
                        continue
                    totals[v] = edge_cost(c, v, limits, pen, 5.0) + g[v]
            flat = c[0] * 10 + c[1]
            if not totals:
                assert g[c] == np.inf and pred[flat] < 0, c
                dead += 1
                continue
            assert g[c] == pytest.approx(min(totals.values()), rel=1e-12), c
            hop = divmod(int(pred[flat]), 10)
            assert hop in totals, c
            assert totals[hop] == pytest.approx(g[c], rel=1e-12), c
            checked += 1
    assert checked >= 50 and dead >= 10


def test_margin_that_leaves_the_start_no_free_neighbour_raises_stuck():
    heights = np.zeros((12, 12))
    sc = make_world(heights, (0, 0), (4, 4), (10, 4))
    explored = ExploredMap.fully_known(sc.truth)
    explored.heights[4, 5] = 80.0  # the margin of 2 covers the start and all its neighbours
    pl = make_planner(sc, PlannerKind.GLOBAL, PlanConfig(horizon_s=1e9, safety_margin_cells=2),
                      explored=explored)
    forb = pl.forbidden_mask()
    assert forb[3:6, 3:6].all()
    gstar, _, _ = pl._cost_field()
    assert gstar[4 * 12 + 4] == np.inf
    assert np.isfinite(gstar[1 * 12 + 4])  # the goal stays reachable from free ground
    with pytest.raises(StuckError):
        pl.plan(sc.start)


def test_hop_out_of_a_swallowed_start_counts_toward_the_horizon():
    heights = np.zeros((16, 16))
    sc = make_world(heights, (0, 0), (1, 8), (15, 8))
    explored = ExploredMap.fully_known(sc.truth)
    explored.heights[1, 9] = 80.0  # adjacent to the start cell
    pl = make_planner(sc, PlannerKind.GLOBAL,
                      PlanConfig(horizon_s=2.0), explored=explored)
    forb = pl.forbidden_mask()
    seg = pl.plan(sc.start)
    assert forb[seg.cells[0]] and not forb[seg.cells[1]]
    assert not seg.reaches_goal and len(seg.cells) >= 3
    leg_s = [
        np.linalg.norm(seg.points[i + 1] - seg.points[i]) / seg.leg_speeds[i]
        for i in range(len(seg.leg_speeds))
    ]
    # the hop out is the first leg, and the horizon caps the committed time
    # with it: the plan stops one edge short of overrunning it
    _, pred, limits = pl._cost_field()
    last = seg.cells[-1]
    nxt = divmod(int(pred[last[0] * 16 + last[1]]), 16)
    next_s = 5.0 * np.hypot(nxt[0] - last[0], nxt[1] - last[1]) / min(limits[last], limits[nxt])
    assert sum(leg_s) <= 2.0 + 1e-9
    assert sum(leg_s) + next_s > 2.0
    assert seg.plan_cost == pytest.approx(seg.cost + pl._cost_field()[0][last[0] * 16 + last[1]],
                                          rel=1e-12)


def test_horizon_truncates_commitment_not_reachability():
    heights = np.zeros((16, 16))
    sc = make_world(heights, (0, 0), (0, 8), (15, 8))
    short = make_planner(sc, PlannerKind.GLOBAL, PlanConfig(horizon_s=2.0))
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
                      PlanConfig(horizon_s=1e9), explored=explored)
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


@pytest.mark.parametrize("ch, oc", [
    (CH, OC),
    # no processing delay and no feedback: the cycle is the uplink transfer
    (CH, OffloadConfig(frame_bits=4e6, feedback_bits=0.0, remote_processing_s=0.0)),
    # a weak uplink: NLoS cells fall back to the local rate, LoS ones stay remote
    (ChannelParams(uav_tx_power_dbm=-5.0), OC),
], ids=["default", "uplink-only", "local-fallback"])
def test_explored_limits_equal_the_per_tick_pipeline_in_every_state(ch, oc):
    """The explored arm's limit at a cell is the per-tick speed governor's.

    On a partly sensed 200 m default city, LoS, NLoS and assumed-LoS cells
    priced by the explored planner equal the scalar pipeline over the serving
    link at the cell centre: NLoS as NLoS, the other two states as LoS.
    """
    cfg = default_config(seed=4)
    sc = build_scenario(dataclasses.replace(
        cfg.scenario, map_size_m=(200.0, 200.0), endpoint_distance_m=(80.0, 160.0)))
    alt = sc.cfg.uav_altitude_m
    truth = sc.truth
    explored = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    rng = np.random.default_rng(8)
    for _ in range(8):
        sense(truth, explored, (*rng.uniform(0.0, 200.0, 2), alt), 0.0, SensorModel(360.0, 50.0))
    bs = sc.bs_positions[sc.serving_bs]
    rm = RadioMap(RayTable(bs, truth.width_cells, truth.depth_cells, truth.cell_size_m, alt),
                  explored)
    pl = Planner(PlannerKind.EXPLORED, sc, explored, rm, TruthLink(sc, ch, alt), ch, oc,
                 cfg.planner)
    limits = pl._grids()[0]
    assert len(np.unique(limits)) > 100  # no limit saturates at v_max
    s = truth.cell_size_m
    for state in (LinkState.LOS, LinkState.NLOS, LinkState.ASSUMED_LOS):
        cells = np.argwhere(rm.state_grid == _STATE_CODE[state])
        assert len(cells) >= 50, state
        for ix, iy in cells[rng.choice(len(cells), 50, replace=False)]:
            # the cell-centre distance, in layer_offsets' order of operations
            dx, dy, dz = (ix + 0.5) * s - bs[0], (iy + 0.5) * s - bs[1], alt - bs[2]
            d = float(np.sqrt(dx * dx + dy * dy + dz * dz))
            want = serving_link_speed_limit(d, state is LinkState.NLOS, ch, oc)
            assert limits[ix, iy] == want, (state, ix, iy)


def test_baseline_grids_equal_the_per_cell_pipeline():
    """The baseline's limit at every cell centre is the scalar expected-loss pipeline.

    Each limit equals oracles.baseline_speed_limit at the cell centre, and
    the LoS-blind baseline believes no cell NLoS and knows no interference.
    Two default cities, and the 0.7 m city whose cell centres are not exact
    in binary.
    """
    from test_linkfield import inexact_grid_city

    cfg = default_config()
    ch, oc = cfg.channel, cfg.offload
    cities = [dataclasses.replace(cfg.scenario, rng_seed=seed) for seed in (4, 9)]
    for scfg in cities + [inexact_grid_city(cfg.scenario)]:
        sc = build_scenario(scfg)
        alt = sc.cfg.uav_altitude_m
        truth = sc.truth
        explored = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
        rm = RadioMap(ray_table_for(sc, sc.serving_bs, alt), explored)
        pl = Planner(PlannerKind.BASELINE, sc, explored, rm, TruthLink(sc, ch, alt), ch, oc,
                     cfg.planner)
        limits, nlos, intf = pl._grids()
        bs = sc.bs_positions[sc.serving_bs]
        want = np.array([[baseline_speed_limit(bs, truth.cell_center(ix, iy), alt, ch, oc)
                          for iy in range(truth.depth_cells)]
                         for ix in range(truth.width_cells)])
        assert len(np.unique(want)) > 100  # no limit saturates at v_max
        assert np.array_equal(limits, want), int((limits != want).sum())
        assert not nlos.any() and not intf.any()


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
            rm.csi_correct(sc.truth.cell_of(sc.goal), LinkState.NLOS)
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
        # and here they saturate at v_max, below every NLoS limit: nothing
        # but the forbidden cells keys this one's field
        make_planner(sc, PlannerKind.EXPLORED, PlanConfig(horizon_s=1e9, nlos_penalty=0.0),
                     explored=explored, rm=rm, oc=OffloadConfig(v_max_mps=4.0)),
    )

    def rebuilds():
        counts = []
        for pl in arms:
            n = len(calls)
            pl.plan(sc.start)
            counts.append(len(calls) - n)
        return tuple(counts)

    assert arms[2]._state_limits[1].min() > 4.0  # every NLoS limit at v_max 15
    assert rebuilds() == (1, 1, 1, 1)
    # free ground: more known cells and assumed-LoS estimates confirmed as LoS
    for heading in (0.0, 90.0, 180.0):
        sense(sc.truth, explored, sc.start, heading, SensorModel(120.0, 30.0))
        assert rebuilds() == (0, 0, 0, 0)
    assert (rm.state_grid == _STATE_CODE[LinkState.LOS]).any()
    # a cell at flight altitude: new forbidden cells and a new NLoS shadow
    explored.known[10, 3] = True
    explored.heights[10, 3] = ALT
    assert rebuilds() == (1, 1, 1, 1)
    assert rebuilds() == (0, 0, 0, 0)
    assert (rm.state_grid == _STATE_CODE[LinkState.NLOS]).any()
    assert np.all(arms[3]._grids()[0] == 4.0)
    # a measured NLoS cell changes speed limits and penalties, never the
    # baseline's, and neither where the limits saturate and no penalty applies
    assert rm.state_at((3, 12)) is not LinkState.NLOS
    rm.csi_correct((3, 12), LinkState.NLOS)
    assert rebuilds() == (0, 1, 1, 0)
    assert rebuilds() == (0, 0, 0, 0)
    # one more NLoS cell: limits and penalty move together
    rm.state_grid[5, 12] = _STATE_CODE[LinkState.NLOS]
    assert rebuilds() == (0, 1, 1, 0)


def count_value_compares(monkeypatch, outside_forbidden: bool = False) -> list:
    """Record every np.array_equal call, optionally only those outside forbidden_mask."""
    calls, inside = [], []
    equal, forbidden = np.array_equal, Planner.forbidden_mask

    def counting(*args, **kwargs):
        if not inside:
            calls.append(1)
        return equal(*args, **kwargs)

    def flagged(pl):
        inside.append(1)
        try:
            return forbidden(pl)
        finally:
            inside.pop()

    monkeypatch.setattr(np, "array_equal", counting)
    if outside_forbidden:
        monkeypatch.setattr(Planner, "forbidden_mask", flagged)
    return calls


def test_fully_known_map_inflates_its_obstacles_once_per_global_episode(monkeypatch):
    cfg = default_config(seed=4)
    cfg = dataclasses.replace(cfg, scenario=dataclasses.replace(
        cfg.scenario, map_size_m=(200.0, 200.0), endpoint_distance_m=(80.0, 160.0)))
    sc = build_scenario(cfg.scenario)
    inflations = []
    inflate = planner_mod.inflate_obstacles

    def counting(obstacles, margin):
        inflations.append(1)
        return inflate(obstacles, margin)

    monkeypatch.setattr(planner_mod, "inflate_obstacles", counting)
    compares = count_value_compares(monkeypatch)
    metrics, _ = run_episode(sc, PlannerKind.GLOBAL, cfg, collect_log=False)
    assert metrics.reached
    assert len(inflations) == 1
    assert compares == []


def test_static_arms_reuse_their_field_without_comparing_grids(monkeypatch):
    sc = make_world(np.zeros((16, 16)), (0, 0), (2, 8), (13, 8))
    explored = ExploredMap(16, 16, 5.0)
    arms = {PlannerKind.BASELINE: make_planner(sc, PlannerKind.BASELINE, explored=explored),
            PlannerKind.GLOBAL: make_planner(sc, PlannerKind.GLOBAL)}
    fields = {kind: pl._cost_field() for kind, pl in arms.items()}
    compares = count_value_compares(monkeypatch, outside_forbidden=True)
    for heading in (0.0, 90.0, 180.0):
        sense(sc.truth, explored, sc.start, heading, SensorModel(120.0, 30.0))
        for kind, pl in arms.items():
            pl.plan(sc.start)
            assert pl._cost_field() is fields[kind], kind
    assert explored.known.any()
    assert compares == []
