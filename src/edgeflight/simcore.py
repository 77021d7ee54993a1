"""Closed-loop episode execution and seeded batch comparisons.

Each tick: true link budgets at the current position set the offload mode and
the true speed cap; sensing and radio-map maintenance run at the effective
frame cadence; the current cell gets a measured (CSI) state every tick; the
planner re-commits on its cadence or when the committed segment is
invalidated; then the vehicle advances along the committed polyline at the
lesser of the planned and true speed limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import LinkState
from .config import Config
from .errors import StuckError
from .linkfield import TruthLink, ray_table_for
from .offload import remote_update_rate, select_mode, speed_limit
from .planner import Planner, PlannerKind, replan_due, segment_invalidated
from .radiomap import RadioMap
from .scenario import Scenario, build_scenario
from .worldmap import ExploredMap, SensorModel, sense


@dataclass
class Metrics:
    flight_distance_m: float
    flight_duration_s: float
    avg_uplink_capacity_bps: float
    nlos_distance_ratio: float
    reached: bool
    stuck: bool


class TrajectoryLog:
    """Per-tick mission record, one row per simulated tick.

    `true_state` is the serving link's ground-truth state at the tick's
    position; `est_state` is the radio map's estimate of that cell before
    the tick's measurement is written, or `none` if the cell was never
    estimated. The global arm's map is fully known, so it reads the truth
    state from tick 0.
    """

    COLUMNS = (
        "time_s", "x_m", "y_m", "z_m", "speed_mps", "mode",
        "true_state", "est_state", "uplink_bps", "downlink_sinr_db",
    )

    def __init__(self):
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
        for r in self.rows:
            out.append(
                f"{r[0]:.1f},{r[1]!r},{r[2]!r},{r[3]!r},{r[4]!r},{r[5]},"
                f"{r[6]},{r[7]},{r[8]!r},{r[9]!r}"
            )
        return "\n".join(out) + "\n"


def run_episode(scenario: Scenario, kind: PlannerKind, cfg: Config,
                collect_log: bool = True) -> tuple[Metrics, TrajectoryLog]:
    """Fly one mission with one policy arm; deterministic for a given scenario."""
    truth = scenario.truth
    alt = scenario.cfg.uav_altitude_m
    dt = cfg.sim.tick_s
    sensor = SensorModel(cfg.sensor.fov_deg, cfg.sensor.range_m)
    update_radius = sensor.range_m + 2.0 * truth.cell_size_m

    if kind is PlannerKind.GLOBAL:
        explored = ExploredMap.fully_known(truth)
    else:
        explored = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
    serving = scenario.serving_bs
    table = ray_table_for(scenario, serving, alt)
    rm = RadioMap(table, explored, sticky_nlos=cfg.sim.sticky_nlos)
    tl = TruthLink(scenario, cfg.channel, alt)
    planner = Planner(kind, scenario, explored, rm, tl, cfg.channel, cfg.offload, cfg.planner)

    pos = np.asarray(scenario.start, dtype=float).copy()
    goal = np.asarray(scenario.goal, dtype=float)
    goal_xy = goal[:2]
    heading = math.degrees(float(np.arctan2(goal[1] - pos[1], goal[0] - pos[0])))
    time_s = 0.0
    log = TrajectoryLog()

    # the committed segment's waypoint rows and leg speeds as lists, indexed
    # without a numpy scalar per tick; the speeds stay numpy float64s, whose
    # type the metrics inherit when one binds a tick
    seg = None
    waypoints: list[np.ndarray] = []
    legs: list = []
    seg_leg = 0
    last_plan = -math.inf
    frame_credit = 0.0
    dist = 0.0
    nlos_dist = 0.0
    cap_integral = 0.0
    reached = False
    max_ticks = int(math.ceil(cfg.sim.timeout_s / dt))

    for _ in range(max_ticks):
        # 1-2: true budgets -> mode, rate, speed cap
        up_true = tl.uplink_capacity(pos)
        dn_true, dn_sinr, _ = tl.downlink(pos)
        remote_fps = remote_update_rate(up_true, dn_true, cfg.offload)
        mode, eff_fps = select_mode(remote_fps, cfg.offload.local_fps)
        true_lim = speed_limit(eff_fps, cfg.offload)

        # 3: sensing and radio-map maintenance at the frame cadence
        frame_credit += eff_fps * dt
        if frame_credit >= 1.0:
            frame_credit -= math.floor(frame_credit)
            sense(truth, explored, pos, heading, sensor)
            rm.update_around(pos, update_radius)

        # 4: measured state of the current cell
        true_state = tl.serving_state(pos)
        est = rm.state_at(pos)
        est_name = est.value if est is not None else "none"
        rm.csi_correct(pos, true_state)

        # 5: planning
        invalid = (seg is None or seg_leg >= len(legs)
                   or segment_invalidated(seg, seg_leg, planner.forbidden_mask()))
        if replan_due(time_s, last_plan, cfg.planner, invalidated=invalid):
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

        # 6: advance along the committed polyline
        n_legs = len(legs)
        v_plan = legs[seg_leg] if seg_leg < n_legs else 0.0
        v = min(v_plan, true_lim)
        moved = 0.0
        p = pos
        if v > 0.0:
            budget = v * dt
            while budget > 1e-12 and seg_leg < n_legs:
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
            if moved > 1e-12:
                delta = p - pos
                heading = math.degrees(float(np.arctan2(delta[1], delta[0])))
        elif seg.heading_hint is not None:
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

        off = pos[:2] - goal_xy
        if math.sqrt(off.dot(off)) < 1e-6:
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
