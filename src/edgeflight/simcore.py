"""Closed-loop episode execution and seeded batch comparisons.

Each tick: true link budgets at the current position set the offload mode and
the true speed cap; sensing runs at the effective frame cadence; from the
first frame on, the radio map refreshes the current cell, the only one the
tick reads; the current cell gets a measured (CSI) state every tick (the
three radio-map calls take the map cell the tick looks up once); the
planner re-commits on its cadence or when the committed segment is
invalidated; then the vehicle advances along the committed polyline at the
lesser of the planned and true speed limits.

Right after a plan tick whose speed the true limit does not bind has flown its
own advance, the window up to the next cadence replan is flown ahead at the
planned speeds, and each of its ticks gets a record priced in array passes:
the true budgets, the offload mode, frame rate and true limit. A later tick
takes its record when it reaches the priced position, and the record's
advance while its own speed is still the planned one; every tick's heading
and map cell come from the per-tick path. On a map fully known at
construction, sensing, the radio-map refresh and the measurement change
nothing and the estimate is the truth state, so a tick that took its record
skips them and the cell lookup they need. A committed segment that passed its
check against the forbidden mask is not checked again while the mask is the
same object, so each tick has one check site. No tick's outputs change, nor
do any of their bits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from decimal import Decimal

import numpy as np

from .channel import LinkState
from .config import Config
from .errors import StuckError
from .linkfield import TruthLink, ray_table_for
from .offload import (
    STEP_FLOOR_M,
    OffloadConfig,
    ProcessingMode,
    governor,
    remote_update_rate,
    select_mode,
    speed_limit,
)
from .planner import Planner, PlannerKind, replan_due, segment_invalidated
from .radiomap import RadioMap
from .scenario import Scenario, build_scenario, grid_cell
from .worldmap import ExploredMap, sense


@dataclass
class Metrics:
    flight_distance_m: float
    flight_duration_s: float
    avg_uplink_capacity_bps: float
    nlos_distance_ratio: float
    reached: bool
    stuck: bool


def time_spec(tick_s: float) -> str:
    """Format spec for a time that is a whole number of ticks of `tick_s` seconds.

    A simulated time is a running sum of ticks and carries the sum's
    rounding error, so it is printed to the tick's own decimal places, at
    least one and at most nine: every tick then prints as a distinct, exact
    multiple of the tick, and a 0.1 s tick prints as `.1f`.
    """
    places = -Decimal(repr(tick_s)).as_tuple().exponent
    return f".{min(max(places, 1), 9)}f"


class TrajectoryLog:
    """Per-tick mission record, one row per simulated tick of `tick_s` seconds.

    `true_state` is the serving link's ground-truth state at the tick's
    position; `est_state` is the radio map's estimate of that cell before
    the tick's measurement is written, or `none` if the cell was never
    estimated. The cell is refreshed from the first frame on, so on the
    learning arms `none` appears only before the first frame, on a cell no
    earlier tick has measured (on the explored arm, also only before the
    first plan, which estimates the whole layer). The global arm's map is
    fully known, so it reads the truth state from tick 0.
    """

    COLUMNS = (
        "time_s", "x_m", "y_m", "z_m", "speed_mps", "mode",
        "true_state", "est_state", "uplink_bps", "downlink_sinr_db",
    )

    def __init__(self, tick_s: float):
        self.tick_s = tick_s
        self.rows: list[tuple] = []

    def append(self, time_s, pos, speed, mode, true_state, est_state,
               uplink_bps, downlink_sinr_db):
        # plain floats, so the CSV holds numbers rather than numpy reprs
        self.rows.append((
            float(time_s), float(pos[0]), float(pos[1]), float(pos[2]), float(speed),
            mode.value, true_state.value, est_state, float(uplink_bps),
            float(downlink_sinr_db),
        ))

    def to_csv(self, header_lines: list[str] | None = None) -> str:
        out = [f"# {h}" for h in (header_lines or [])]
        out.append(",".join(self.COLUMNS))
        spec = time_spec(self.tick_s)
        for r in self.rows:
            out.append(
                f"{r[0]:{spec}},{r[1]!r},{r[2]!r},{r[3]!r},{r[4]!r},{r[5]},"
                f"{r[6]},{r[7]},{r[8]!r},{r[9]!r}"
            )
        return "\n".join(out) + "\n"


def _advance(pos, waypoints, legs, seg_leg, v, dt):
    """Fly `v * dt` along the committed polyline from `pos`.

    Returns (position, index of the leg being flown, distance moved). The
    position is `pos` itself when nothing moves.
    """
    moved = 0.0
    p = pos
    if v > 0.0:
        budget = v * dt
        n_legs = len(legs)
        while budget > STEP_FLOOR_M and seg_leg < n_legs:
            tgt = waypoints[seg_leg + 1]
            step = tgt - p
            d = math.sqrt(step.dot(step))  # np.linalg.norm, without its dispatch
            if d <= budget:
                budget -= d
                moved += d
                p = tgt.copy()
                seg_leg += 1
            else:
                p = p + step * (budget / d)
                moved += budget
                budget = 0.0
    return p, seg_leg, moved


def _fly_ahead(tl: TruthLink, oc: OffloadConfig, pos, waypoints, legs, seg_leg, dt,
               ticks: int):
    """The records of the `ticks` ticks after a plan tick whose advance left `pos` on `seg_leg`.

    The ticks fly at the planned leg speeds, up to the segment's end, where
    the tick replans. Their positions are priced in one `TruthLink.budgets`
    call and one `offload.governor` call, each with the bits of the per-tick
    call. A record is (position, advance, uplink, downlink, downlink SINR,
    serving NLoS, mode, effective fps, true limit) of one tick; the advance
    at the segment's end is None.
    """
    points, advances = [], []
    for _ in range(ticks):
        points.append(pos)
        if seg_leg >= len(legs):
            advances.append(None)
            break
        advances.append(_advance(pos, waypoints, legs, seg_leg, legs[seg_leg], dt))
        pos, seg_leg, _ = advances[-1]
    up, dn, sinr, _, nlos = tl.budgets(np.array(points))
    remote, fps, lim = governor(up, dn, oc)
    modes = [ProcessingMode.REMOTE if r else ProcessingMode.LOCAL for r in remote.tolist()]
    return deque(zip(points, advances, up.tolist(), dn.tolist(), sinr.tolist(), nlos.tolist(),
                     modes, fps.tolist(), lim.tolist()))


def _at_goal(pos, goal_xy: tuple[float, float]) -> bool:
    """Whether `pos` is within 1e-6 m of `goal_xy` in the plane: math.sqrt(off.dot(off)) < 1e-6.

    The norm of off = pos[:2] - goal_xy is taken only when both axis offsets
    are below 1e-6 m. That is exact: rounding is monotone and IEEE
    sqrt(fl(x*x)) = |x|, so a larger offset's norm is at least 1e-6.
    """
    gx, gy = goal_xy
    if abs(pos[0] - gx) < 1e-6 and abs(pos[1] - gy) < 1e-6:
        off = pos[:2] - goal_xy
        return math.sqrt(off.dot(off)) < 1e-6
    return False


def run_episode(scenario: Scenario, kind: PlannerKind, cfg: Config,
                collect_log: bool = True) -> tuple[Metrics, TrajectoryLog]:
    """Fly one mission with one policy arm; deterministic for a given scenario."""
    truth = scenario.truth
    alt = scenario.cfg.uav_altitude_m
    dt = cfg.sim.tick_s
    sensor = cfg.sensor
    s = truth.cell_size_m
    nx, ny = truth.width_cells, truth.depth_cells

    if kind is PlannerKind.GLOBAL:
        explored = ExploredMap.fully_known(truth)
    else:
        explored = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    serving = scenario.serving_bs
    table = ray_table_for(scenario, serving, alt)
    rm = RadioMap(table, explored)
    tl = TruthLink(scenario, cfg.channel, alt)
    planner = Planner(kind, scenario, explored, rm, tl, cfg.channel, cfg.offload, cfg.planner)

    pos = np.asarray(scenario.start, dtype=float).copy()
    goal = np.asarray(scenario.goal, dtype=float)
    goal_xy = (float(goal[0]), float(goal[1]))
    heading = math.degrees(float(np.arctan2(goal[1] - pos[1], goal[0] - pos[0])))
    time_s = 0.0
    log = TrajectoryLog(dt)

    # the committed segment's waypoint rows and leg speeds as lists, indexed
    # without a numpy scalar per tick; the speeds stay numpy float64s, whose
    # type the metrics inherit when one binds a tick
    seg = None
    waypoints: list[np.ndarray] = []
    legs: list = []
    seg_leg = 0
    last_plan = -math.inf
    frame_credit = 0.0
    sensed = False
    dist = 0.0
    nlos_dist = 0.0
    cap_integral = 0.0
    reached = False
    max_ticks = int(math.ceil(cfg.sim.timeout_s / dt))
    ahead = deque()  # the window flown ahead after the last plan (_fly_ahead)
    passed = None  # the forbidden mask the committed segment last passed
    known_map = bool(explored.known.all())
    # no episode flies past its timeout, so neither does a window; this also
    # keeps a huge replan period's tick count finite
    window = math.ceil(min(cfg.planner.replan_period_s, cfg.sim.timeout_s) / dt)

    for _ in range(max_ticks):
        # 1-2: true budgets -> mode, rate, speed cap. A tick that reaches the
        # position its queued record was priced at takes the record; any
        # other prices its own. The first tick of an episode comes before
        # any plan, so every arm calls the per-point methods at least once per
        # episode, which the benchmark's traced run checks layer by layer.
        rec = ahead.popleft() if ahead else None
        if rec is not None and rec[0] is pos:
            _, advance, up_true, dn_true, dn_sinr, nlos, mode, eff_fps, true_lim = rec
            true_state = LinkState.NLOS if nlos else LinkState.LOS
        else:
            rec = None
            up_true = tl.uplink_capacity(pos)
            dn_true, dn_sinr, _ = tl.downlink(pos)
            true_state = tl.serving_state(pos)
            remote_fps = remote_update_rate(up_true, dn_true, cfg.offload)
            mode, eff_fps = select_mode(remote_fps, cfg.offload.local_fps)
            true_lim = speed_limit(eff_fps, cfg.offload)
        # on a map fully known at construction, sensing, the refresh and the
        # measurement change nothing, and the estimate is the truth state; a
        # tick that took a record skips them and the cell lookup they need
        settled = rec is not None and known_map

        # 3: sensing at the frame cadence
        frame_credit += eff_fps * dt
        if frame_credit >= 1.0:
            frame_credit -= math.floor(frame_credit)
            if not settled:
                sense(truth, explored, pos, heading, sensor)
            sensed = True

        # 4: the current cell's estimate, refreshed from the first frame on,
        # then its measured state
        if settled:
            est_name = true_state.value
        else:
            cell = grid_cell(pos, s, nx, ny)
            if sensed:
                rm.update_around(cell)
            est = rm.state_at(cell)
            est_name = est.value if est is not None else "none"
            rm.csi_correct(cell, true_state)

        # 5: planning. A segment that passed the check against the current
        # forbidden mask passes it again: the mask is the same object until
        # the obstacles change, and the cells left only shrink. A fresh
        # segment is first checked on the tick after its plan.
        if seg is None or seg_leg >= len(legs):
            invalid = True
        else:
            forbidden = planner.forbidden_mask()
            invalid = (forbidden is not passed
                       and segment_invalidated(seg, seg_leg, forbidden))
            passed = None if invalid else forbidden
        planned = replan_due(time_s, last_plan, cfg.planner, invalidated=invalid)
        if planned:
            try:
                seg = planner.plan(pos)
            except StuckError:
                if collect_log:
                    log.append(time_s, pos, 0.0, mode, true_state, est_name,
                               up_true, 10.0 * math.log10(max(dn_sinr, 1e-30)))
                break
            waypoints = list(seg.points)
            legs = list(seg.leg_speeds)
            seg_leg = 0
            last_plan = time_s
            passed = None

        # 6: advance along the committed polyline. A tick of the window adopts
        # its record's advance only at the planned speed; any other flies its
        # own, after which a plan at the planned speed flies the next window
        # ahead and any other tick drops the queue. The heading follows a
        # step longer than the floor; at speed 0 it takes the segment's hint.
        v_plan = legs[seg_leg] if seg_leg < len(legs) else 0.0
        v = min(v_plan, true_lim)
        if rec is not None and v == v_plan and not planned:
            p, seg_leg, moved = advance
        else:
            p, seg_leg, moved = _advance(pos, waypoints, legs, seg_leg, v, dt)
            if planned and v == v_plan:
                ahead = _fly_ahead(tl, cfg.offload, p, waypoints, legs, seg_leg, dt, window)
            else:
                ahead.clear()
        if moved > STEP_FLOOR_M:
            (px, py, _), (x, y, _) = p.tolist(), pos.tolist()
            heading = math.degrees(float(np.arctan2(py - y, px - x)))
        elif v <= 0.0 and seg.heading_hint is not None:
            heading = seg.heading_hint

        if collect_log:
            log.append(time_s, pos, moved / dt, mode, true_state, est_name,
                       up_true, 10.0 * math.log10(max(dn_sinr, 1e-30)))
        dist += moved
        if true_state is LinkState.NLOS:
            nlos_dist += moved
        cap_integral += up_true * dt
        time_s += dt
        pos = p

        if _at_goal(pos, goal_xy):
            reached = True
            break

    metrics = Metrics(
        flight_distance_m=dist,
        flight_duration_s=time_s,
        avg_uplink_capacity_bps=cap_integral / time_s if time_s > 0 else 0.0,
        nlos_distance_ratio=nlos_dist / dist if dist > 0 else 0.0,
        reached=reached,
        stuck=not reached,
    )
    return metrics, log


@dataclass
class EpisodeRow:
    episode: int
    scenario_seed: int
    kind: PlannerKind
    metrics: Metrics


@dataclass
class BatchResult:
    rows: list[EpisodeRow]
    kinds: tuple[PlannerKind, ...]
    episodes: int
    logs: dict = field(default_factory=dict)  # (episode, kind) -> TrajectoryLog

    def kind_rows(self, kind: PlannerKind) -> list[EpisodeRow]:
        return [r for r in self.rows if r.kind is kind]

    def aggregate(self, kind: PlannerKind) -> dict:
        """One arm's totals and means over the episodes that reached the goal.

        A stuck episode ends early, so counting its distance and duration
        would make an arm that gives up look faster; `episodes` and
        `stuck_episodes` count every episode.
        """
        rows = self.kind_rows(kind)
        reached = [r.metrics for r in rows if r.metrics.reached]
        dist = sum(m.flight_distance_m for m in reached)
        dur = sum(m.flight_duration_s for m in reached)
        nlos = sum(m.nlos_distance_ratio * m.flight_distance_m for m in reached)
        return {
            "kind": kind.value,
            "episodes": len(rows),
            "total_distance_m": dist,
            "total_duration_s": dur,
            "mean_duration_s": dur / len(reached) if reached else 0.0,
            "avg_uplink_capacity_bps": (
                sum(m.avg_uplink_capacity_bps for m in reached) / len(reached)
                if reached else 0.0
            ),
            "nlos_distance_ratio": nlos / dist if dist > 0 else 0.0,
            "stuck_episodes": sum(1 for r in rows if r.metrics.stuck),
        }


def batch_seeds(master_seed: int, episodes: int) -> list[int]:
    """Per-episode scenario seeds spawned from the master seed (SeedSequence)."""
    ss = np.random.SeedSequence(master_seed)
    return [int(child.generate_state(1, np.uint32)[0]) for child in ss.spawn(episodes)]


def run_batch(cfg: Config, episodes: int = 20,
              kinds: tuple[PlannerKind, ...] = (
                  PlannerKind.BASELINE, PlannerKind.EXPLORED, PlannerKind.GLOBAL),
              collect_logs: bool = False,
              progress=None) -> BatchResult:
    """Run every policy arm on the same seeded scenario sequence."""
    seeds = batch_seeds(cfg.scenario.rng_seed, episodes)
    result = BatchResult(rows=[], kinds=tuple(kinds), episodes=episodes)
    for i, seed in enumerate(seeds):
        scenario = build_scenario(replace(cfg.scenario, rng_seed=seed),
                                  cfg.planner.safety_margin_cells)
        for kind in kinds:
            metrics, log = run_episode(scenario, kind, cfg, collect_log=collect_logs)
            result.rows.append(EpisodeRow(i, seed, kind, metrics))
            if collect_logs:
                result.logs[(i, kind)] = log
            if progress is not None:
                progress(i, kind, metrics)
    return result
