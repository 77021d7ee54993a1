import dataclasses
import itertools
import math
from collections import deque

import numpy as np
import pytest

from edgeflight import simcore
from edgeflight.config import default_config, flat_city_config, with_seed
from edgeflight.linkfield import TruthLink
from edgeflight.planner import Planner, PlannerKind
from edgeflight.radiomap import RadioMap
from edgeflight.scenario import build_scenario
from edgeflight.simcore import (
    BatchResult,
    EpisodeRow,
    Metrics,
    TrajectoryLog,
    batch_seeds,
    run_batch,
    run_episode,
)


def small_cfg(seed: int = 0):
    cfg = default_config(seed=seed)
    return dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(
            cfg.scenario,
            map_size_m=(200.0, 200.0),
            endpoint_distance_m=(80.0, 160.0),
        ),
    )


@pytest.fixture(scope="module")
def episode_result():
    cfg = small_cfg(seed=3)
    sc = build_scenario(cfg.scenario)
    out = {}
    for kind in PlannerKind:
        out[kind] = run_episode(sc, kind, cfg)
    return cfg, sc, out


def test_episode_is_deterministic():
    cfg = small_cfg(seed=1)
    sc = build_scenario(cfg.scenario)
    m1, l1 = run_episode(sc, PlannerKind.EXPLORED, cfg)
    sc2 = build_scenario(cfg.scenario)
    m2, l2 = run_episode(sc2, PlannerKind.EXPLORED, cfg)
    assert m1 == m2
    assert l1.rows == l2.rows


def test_logged_and_unlogged_episodes_give_the_same_metrics():
    """`collect_log` changes nothing a batch or the benchmark digest reads.

    The repr of the metrics tuple pins the value and the type of every field,
    numpy float64 or plain float (both occur on these cities), on every arm
    of two golden-config cities.
    """
    cfg = small_cfg(seed=4)
    for seed in batch_seeds(cfg.scenario.rng_seed, 2):
        sc = build_scenario(dataclasses.replace(cfg.scenario, rng_seed=seed),
                            cfg.planner.safety_margin_cells)
        for kind in PlannerKind:
            logged, log = run_episode(sc, kind, cfg, collect_log=True)
            unlogged, empty = run_episode(sc, kind, cfg, collect_log=False)
            assert log.rows and not empty.rows
            assert (repr(dataclasses.astuple(logged))
                    == repr(dataclasses.astuple(unlogged))), (seed, kind)


def test_metrics_invariants(episode_result):
    cfg, sc, out = episode_result
    straight = float(np.linalg.norm(np.asarray(sc.goal) - np.asarray(sc.start)))
    for kind, (m, log) in out.items():
        assert not m.stuck, kind
        assert m.reached
        assert 0.0 <= m.nlos_distance_ratio <= 1.0
        assert m.flight_distance_m >= straight - 1e-6
        assert np.isfinite(m.avg_uplink_capacity_bps)


def test_log_consistency(episode_result):
    cfg, sc, out = episode_result
    dt = cfg.sim.tick_s
    for kind, (m, log) in out.items():
        times = [r[0] for r in log.rows]
        assert all(
            b - a == pytest.approx(dt, abs=1e-9) for a, b in zip(times, times[1:])
        )
        # distance equals the sum of per-tick displacements
        speeds = np.array([r[4] for r in log.rows])
        assert speeds.sum() * dt == pytest.approx(m.flight_distance_m, abs=1e-6)
        # time-weighted capacity mean matches the metric exactly
        caps = np.array([r[8] for r in log.rows])
        want = caps.sum() * dt / m.flight_duration_s
        assert m.avg_uplink_capacity_bps == pytest.approx(want, rel=1e-12)
        # NLoS ratio recomputed from the log
        nlos_moved = sum(r[4] * dt for r in log.rows if r[6] == "nlos")
        assert m.nlos_distance_ratio == pytest.approx(
            nlos_moved / m.flight_distance_m, rel=1e-9
        )


def test_no_tick_inside_a_too_tall_cell(episode_result):
    cfg, sc, out = episode_result
    alt = sc.cfg.uav_altitude_m
    for kind, (m, log) in out.items():
        for r in log.rows:
            cell = sc.truth.cell_of((r[1], r[2], r[3]))
            assert sc.truth.heights[cell] < alt, (kind, r[0])


def test_walled_off_goal_ends_the_episode_stuck():
    """A plan that finds the goal unreachable ends the episode at once.

    A wall spans the map between start and goal. The global arm knows it
    before its first plan. The learning arms first fly toward it, out of
    sensor range of it at the start, and stop once sensing has shown them
    the whole wall. Each episode logs one last row at speed 0 and gives the
    same metrics unlogged.
    """
    from test_planner import make_world

    heights = np.zeros((30, 16))
    heights[20, :] = 80.0
    sc = make_world(heights, (0, 0), (2, 8), (27, 8))
    cfg = default_config()
    dt = cfg.sim.tick_s
    assert 20 * 5.0 - sc.start[0] > cfg.sensor.range_m
    for kind in PlannerKind:
        m, log = run_episode(sc, kind, cfg)
        unlogged, _ = run_episode(sc, kind, cfg, collect_log=False)
        assert repr(dataclasses.astuple(m)) == repr(dataclasses.astuple(unlogged)), kind
        assert not m.reached and m.stuck, kind
        assert log.rows[-1][4] == 0.0, kind
        # every tick flown, then the row of the plan that found no path
        assert len(log.rows) == round(m.flight_duration_s / dt) + 1, kind
        assert all(sc.truth.cell_of(r[1:3])[0] != 20 for r in log.rows), kind
        if kind is PlannerKind.GLOBAL:
            assert len(log.rows) == 1 and m.flight_distance_m == 0.0
        else:
            assert m.flight_distance_m > 0.0
            assert m.flight_duration_s < cfg.sim.timeout_s / 10, kind


def test_learning_arms_commit_only_sensed_cells_when_frames_outrun_the_sensor():
    """No tick enters a building that lies between two frames' sensing.

    Frames land 1 / frames_per_meter = 20 m apart (local processing at 0.5
    fps binds the speed to 10 m/s) and the sensor sees 12 m. A vehicle that
    flew the straight path from the start (x = 7.5 m) without waiting to
    sense would take its first frame at x = 27.5 m, which sees to 39.5 m,
    short of a building across the path at 45-55 m, and its next frame from
    inside it. Each learning arm commits only cells it has sensed, so it
    reaches the goal around the building without a tick in a cell as tall
    as the flight altitude (acceptance gate 09's check).
    """
    from test_planner import make_world

    heights = np.zeros((40, 9))
    heights[9:11, 3:6] = 80.0  # x 45-55 m, across the straight path at y 22.5 m
    sc = make_world(heights, (0, 0), (1, 4), (38, 4))
    cfg = default_config()
    cfg = dataclasses.replace(
        cfg,
        offload=dataclasses.replace(cfg.offload, frames_per_meter=0.05, local_fps=0.5,
                                    frame_bits=1e10),
        sensor=dataclasses.replace(cfg.sensor, range_m=12.0))
    alt = sc.cfg.uav_altitude_m
    assert 1.0 / cfg.offload.frames_per_meter > cfg.sensor.range_m
    for kind in (PlannerKind.BASELINE, PlannerKind.EXPLORED):
        m, log = run_episode(sc, kind, cfg)
        inside = [r[:3] for r in log.rows if sc.truth.heights[sc.truth.cell_of(r[1:3])] >= alt]
        assert not inside, (kind, inside[:3])
        assert m.reached, kind
        assert {r[5] for r in log.rows} == {"local"}
        assert max(r[4] for r in log.rows) == 10.0, kind


def _step_enters_cell(p, q, cell, s):
    """Whether the step from p to q, both (x, y), passes through the open square of `cell`."""
    lo, hi = 0.0, 1.0
    for a, b, i in zip(p, q, cell):
        if a == b:
            if not i * s < a < (i + 1) * s:
                return False
            continue
        t0, t1 = sorted(((i * s - a) / (b - a), ((i + 1) * s - a) / (b - a)))
        lo, hi = max(lo, t0), min(hi, t1)
    return lo < hi


def test_margin_keeps_diagonal_hops_from_off_centre_positions_out_of_building_corners():
    """No step between logged positions crosses the interior of a building cell.

    A cadence replan finds the vehicle between cell centres, and its first
    leg runs from there to the next cell's centre. On this map, without the
    one-cell margin, the explored and global arms' paths from (1, 6) to
    (8, 1) hop diagonally past the building cell (2, 3), and the leg from
    the off-centre position at t = 2.4 s cuts the cell's corner (x 10-15 m,
    y 15-20 m). At margin 1 every cell the path joins is a cell away from
    the building.
    """
    from test_planner import make_world

    heights = np.zeros((10, 8))
    heights[2, 3] = 80.0
    sc = make_world(heights, (0, 0), (1, 6), (8, 1))
    cfg = default_config()
    assert cfg.planner.safety_margin_cells == 1
    s = sc.truth.cell_size_m
    for kind in PlannerKind:
        m, log = run_episode(sc, kind, cfg)
        assert m.reached, kind
        cuts = [(a[0], b[0]) for a, b in zip(log.rows, log.rows[1:])
                if _step_enters_cell(a[1:3], b[1:3], (2, 3), s)]
        assert not cuts, (kind, cuts)


def test_speed_never_exceeds_vmax(episode_result):
    cfg, sc, out = episode_result
    for kind, (m, log) in out.items():
        for r in log.rows:
            assert r[4] <= cfg.offload.v_max_mps + 1e-9


def test_flat_city_runs_at_vmax():
    cfg = flat_city_config(seed=2)
    sc = build_scenario(cfg.scenario)
    straight = float(np.linalg.norm(np.asarray(sc.goal) - np.asarray(sc.start)))
    for kind in PlannerKind:
        m, _ = run_episode(sc, kind, cfg)
        assert m.nlos_distance_ratio == 0.0
        want = straight / cfg.offload.v_max_mps
        assert m.flight_duration_s == pytest.approx(want, abs=2 * cfg.sim.tick_s)


def test_batch_seeds_are_stable():
    a = batch_seeds(0, 5)
    b = batch_seeds(0, 5)
    assert a == b
    assert len(set(a)) == 5
    assert batch_seeds(1, 5) != a


def test_batch_aggregate_shape():
    cfg = small_cfg(seed=0)
    res = run_batch(cfg, episodes=2, collect_logs=False)
    assert res.episodes == 2
    for kind in PlannerKind:
        agg = res.aggregate(kind)
        assert agg["episodes"] == 2
        assert agg["kind"] == kind.value
        rows = res.kind_rows(kind)
        assert agg["total_duration_s"] == pytest.approx(
            sum(r.metrics.flight_duration_s for r in rows)
        )
        # distance-weighted NLoS ratio, not a mean of ratios
        want = sum(
            r.metrics.nlos_distance_ratio * r.metrics.flight_distance_m for r in rows
        ) / agg["total_distance_m"]
        assert agg["nlos_distance_ratio"] == pytest.approx(want)


def test_batch_aggregate_counts_only_reached_episodes():
    def row(episode, kind, dist, dur, uplink, nlos, reached):
        return EpisodeRow(episode, episode, kind,
                          Metrics(dist, dur, uplink, nlos, reached, not reached))

    b, g = PlannerKind.BASELINE, PlannerKind.GLOBAL
    res = BatchResult(rows=[
        row(0, b, 300.0, 150.0, 4e6, 0.5, True),
        row(0, g, 320.0, 100.0, 8e6, 0.25, True),
        row(1, b, 100.0, 200.0, 1e6, 1.0, True),
        row(1, g, 10.0, 2.0, 2e6, 0.0, False),  # gave up after 2 s
    ], episodes=2)
    agg = res.aggregate(g)
    assert (agg["episodes"], agg["stuck_episodes"]) == (2, 1)
    assert agg["total_distance_m"] == 320.0
    assert agg["total_duration_s"] == agg["mean_duration_s"] == 100.0
    assert agg["avg_uplink_capacity_bps"] == 8e6
    assert agg["nlos_distance_ratio"] == 0.25
    agg = res.aggregate(b)
    assert (agg["episodes"], agg["stuck_episodes"]) == (2, 0)
    assert agg["total_duration_s"] == 350.0 and agg["mean_duration_s"] == 175.0
    assert agg["avg_uplink_capacity_bps"] == 2.5e6
    assert agg["nlos_distance_ratio"] == 250.0 / 400.0
    only_stuck = BatchResult(rows=[res.rows[3]], episodes=1).aggregate(g)
    assert (only_stuck["episodes"], only_stuck["stuck_episodes"]) == (1, 1)
    assert only_stuck["total_duration_s"] == only_stuck["mean_duration_s"] == 0.0
    assert only_stuck["avg_uplink_capacity_bps"] == only_stuck["nlos_distance_ratio"] == 0.0


def test_batch_shares_scenarios_across_kinds():
    cfg = small_cfg(seed=0)
    res = run_batch(cfg, episodes=2, collect_logs=False)
    by_ep = {}
    for row in res.rows:
        by_ep.setdefault(row.episode, set()).add(row.scenario_seed)
    for ep, seeds in by_ep.items():
        assert len(seeds) == 1


def test_global_arm_estimates_the_truth_state_from_the_first_tick():
    # this city's first tick comes before its first sensing frame
    cfg = with_seed(default_config(), batch_seeds(0, 6)[0])
    sc = build_scenario(cfg.scenario, cfg.planner.safety_margin_cells)
    metrics, log = run_episode(sc, PlannerKind.GLOBAL, cfg)
    assert metrics.reached
    true_col, est_col = (TrajectoryLog.COLUMNS.index(c) for c in ("true_state", "est_state"))
    assert [r[est_col] for r in log.rows] == [r[true_col] for r in log.rows]


def test_learning_arms_estimate_no_cell_before_their_first_frame(monkeypatch):
    """`est_state` reads `none` on the first row only, which no frame precedes.

    The README batch's first city starts in local mode: its first frame
    comes a few ticks in, and the vehicle waits in its start cell until then.
    The current cell is refreshed only from the first frame on, so tick 0
    reads a cell nothing has written yet. Its CSI measurement is what the
    later ticks before the frame read.
    """
    cfg = with_seed(default_config(), batch_seeds(0, 1)[0])
    sc = build_scenario(cfg.scenario, cfg.planner.safety_margin_cells)
    events = []
    sense, append = simcore.sense, TrajectoryLog.append

    def spy_sense(*args):
        events.append("sense")
        return sense(*args)

    def spy_append(log, *args):
        events.append("log")
        return append(log, *args)

    monkeypatch.setattr(simcore, "sense", spy_sense)
    monkeypatch.setattr(TrajectoryLog, "append", spy_append)
    est_col = TrajectoryLog.COLUMNS.index("est_state")
    for kind in (PlannerKind.BASELINE, PlannerKind.EXPLORED):
        events.clear()
        metrics, log = run_episode(sc, kind, cfg)
        assert metrics.reached
        first_frame = events[:events.index("sense")].count("log")
        assert first_frame > 1, kind
        assert len({sc.truth.cell_of(r[1:3]) for r in log.rows[:first_frame]}) == 1, kind
        none = [r[est_col] == "none" for r in log.rows]
        assert none == [t == 0 for t in range(len(log.rows))], kind


# the calls a tick that took its record skips on a map fully known at construction
SETTLED_SKIPS = ("sense", "update_around", "state_at", "csi_correct", "segment_invalidated",
                 "remote_update_rate")


def test_flying_ahead_gives_the_per_point_flight(monkeypatch):
    """Windows priced ahead change no output bit on any arm.

    Every arm flies one default city twice: as is, and with no window flown
    ahead, so that every tick prices its own budgets and governor and runs
    its own advance. Metrics reprs and log rows must be equal, and so must
    the learning arms' sensed headings. Spies on the tick's calls show the
    paths the first flight took: ticks that adopted a queued record, windows
    abandoned when the true limit bound a later tick, and ticks priced point
    by point. On the global arm, whose map is fully known from construction,
    a tick that took its record calls none of the per-tick map and governor
    calls, and checks its segment only as the first tick of a window; every
    arm still calls each of them in the episode.
    """
    cfg = default_config()
    seed = batch_seeds(0, 1)[0]
    sc = build_scenario(dataclasses.replace(cfg.scenario, rng_seed=seed),
                        cfg.planner.safety_margin_cells)
    events = []

    def spy(owner, name, tag=None):
        orig = getattr(owner, name)

        def wrapper(*args, **kwargs):
            events.append(tag or name)
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    headings = []  # the heading of every sense call
    sense = simcore.sense

    def sensing(truth, explored, pos, heading, sensor):
        events.append("sense")
        headings.append(heading)
        return sense(truth, explored, pos, heading, sensor)

    monkeypatch.setattr(simcore, "sense", sensing)

    def fly(kind):
        events.clear()
        headings.clear()
        metrics, log = run_episode(sc, kind, cfg)
        ticks, tick = [], []
        for e in events:  # a tick's calls end with its log row
            if e == "log":
                ticks.append(tick)
                tick = []
            else:
                tick.append(e)
        assert len(ticks) == len(log.rows)
        return repr(dataclasses.astuple(metrics)), log.rows, ticks, list(headings)

    spy(TruthLink, "uplink_capacity", "point")
    spy(TruthLink, "budgets", "window")
    spy(Planner, "plan", "plan")
    spy(simcore, "_advance", "advance")
    spy(TrajectoryLog, "append", "log")
    for name in ("segment_invalidated", "remote_update_rate"):
        spy(simcore, name)
    for name in ("update_around", "state_at", "csi_correct"):
        spy(RadioMap, name)
    ahead = {kind: fly(kind) for kind in PlannerKind}

    def no_window(tl, oc, pos, waypoints, legs, seg_leg, dt, ticks):
        # budgets still prices the global planner's grids
        return deque()

    monkeypatch.setattr(simcore, "_fly_ahead", no_window)
    per_point = {kind: fly(kind) for kind in PlannerKind}

    counts = {"adopted": 0, "abandoned": 0, "per_point": 0, "window_checks": 0}
    for kind in PlannerKind:
        metrics, rows, ticks, sensed_headings = ahead[kind]
        assert (metrics, rows) == per_point[kind][:2], kind
        if kind is not PlannerKind.GLOBAL:  # every sensed heading, bit for bit
            assert sensed_headings == per_point[kind][3], kind
        assert all("point" in t for t in per_point[kind][2])
        assert "point" in ticks[0]  # every arm prices its first tick point by point
        called = set().union(*ticks)
        assert all(name in called for name in SETTLED_SKIPS), (kind, called)
        for i, t in enumerate(ticks):
            own = "advance" in t and "window" not in t
            adopted = "plan" not in t and "advance" not in t
            counts["adopted"] += adopted
            counts["abandoned"] += "point" not in t and "plan" not in t and own
            counts["per_point"] += "point" in t
            if kind is PlannerKind.GLOBAL and "point" not in t:
                # a window's segment is checked once, on its first tick
                first = "window" in ticks[i - 1]
                assert t.count("segment_invalidated") <= first, (i, t)
                counts["window_checks"] += "segment_invalidated" in t
                assert not set(t) & (set(SETTLED_SKIPS) - {"segment_invalidated"}), t
    assert all(counts.values()), counts


def _ulps_from(x: float, k: int) -> float:
    """x moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


@pytest.mark.parametrize("goal", [(0.0, 0.0), (2.5, 7.5), (123.456, 78.9)])
def test_goal_test_equals_the_exact_norm_within_ulps_of_its_radius(goal):
    """`_at_goal` agrees with the norm of pos[:2] - goal on offsets a few ulps from ±1e-6 m."""
    gx, gy = goal
    axis = [0.0, 5e-7, -5e-7]
    for r in (1e-6, -1e-6, 1e-6 / math.sqrt(2.0), -1e-6 / math.sqrt(2.0)):
        axis += [_ulps_from(g + r, k) - g for g in (gx, gy) for k in range(-3, 4) if k]
        axis.append(r)
    got, want = [], []
    for ox, oy in itertools.product(axis, repeat=2):
        pos = np.array([gx + ox, gy + oy, 50.0])
        off = pos[:2] - np.array(goal)
        want.append(math.sqrt(off.dot(off)) < 1e-6)
        got.append(simcore._at_goal(pos, goal))
    assert got == want
    assert any(want) and not all(want)
