"""LoS-aware lattice planning over per-cell speed limits.

All three policy arms share one search; they differ only in the per-cell
speed-limit, NLoS, and interference grids fed to the cost model:

    baseline  - elevation-angle LoS probability prices every cell, no NLoS
                penalty (the arm is LoS-blind), explored map used for
                obstacles only.
    explored  - speed limits from the self-built radio map (assumed-LoS cells
                priced as LoS, interference unknown), NLoS penalty from the
                radio map's state estimates.
    global    - truth link states everywhere plus downlink interference, NLoS
                penalty from truth, extra interference-weighted time penalty.

Cost model: an edge u->v of length d is traversed at min(limit(u), limit(v)),
taking time T = d / speed, half inside each cell. Edge cost is
T + lambda * T/2 * (nlos(u) + nlos(v)) + mu * T/2 * (intf(u) + intf(v)).
One goal-rooted shortest-path sweep over the whole lattice prices every
cell, and it is rebuilt only when the speed limits, cost rates or forbidden
cells it was built from change; a plan walks the next-hop chain from the
current cell and commits only the prefix inside the time horizon (and,
optionally, inside sensed ground). Replanning therefore always descends the
same cost-to-go field until new information actually changes it, which rules
out the oscillation a horizon-truncated search can fall into near walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .channel import (
    ChannelParams,
    LinkState,
    capacity_bps,
    dbm_to_mw,
    expected_path_loss_db,
)
from .errors import ConfigError, StuckError
from .linkfield import TruthLink, layer_offsets
from .offload import OffloadConfig
from .radiomap import _STATE_CODE, RadioMap
from .scenario import inflate_obstacles
from .worldmap import ExploredMap

_SQRT2 = float(np.sqrt(2.0))


class PlannerKind(Enum):
    BASELINE = "baseline"
    EXPLORED = "explored"
    GLOBAL = "global"


@dataclass(frozen=True)
class PlanConfig:
    horizon_s: float = 10.0
    replan_period_s: float = 1.0
    nlos_penalty: float = 2.0
    interference_weight: float = 0.5
    safety_margin_cells: int = 1
    commit_within_sensed: bool = True

    def __post_init__(self):
        if self.horizon_s <= 0 or self.replan_period_s <= 0:
            raise ConfigError("planner horizon_s and replan_period_s must be positive")
        if self.nlos_penalty < 0 or self.interference_weight < 0:
            # negative edge weights break the shortest-path sweep
            raise ConfigError("planner nlos_penalty and interference_weight must be >= 0")
        if self.safety_margin_cells < 0:
            raise ConfigError("planner safety_margin_cells must be >= 0")


@dataclass
class TrajectorySegment:
    """Committed motion plan: lattice cells and the polyline through them."""

    cells: list[tuple[int, int]]
    points: np.ndarray        # (n, 3) waypoints, exact current position first
    leg_speeds: np.ndarray    # (n-1,) planned speed per leg, m/s
    cost: float               # cost of the committed cell path
    plan_cost: float          # cost of the full search path before truncation
    reaches_goal: bool
    heading_hint: float | None = None


def rate_to_limit_grid(up_bps: np.ndarray, dn_bps: np.ndarray, oc: OffloadConfig) -> np.ndarray:
    """Vectorized remote-rate pipeline: capacities -> fps -> speed limit."""
    up = np.asarray(up_bps, dtype=float)
    dn = np.asarray(dn_bps, dtype=float)
    with np.errstate(divide="ignore"):
        cycle = oc.frame_bits / up + oc.remote_processing_s + oc.feedback_bits / dn
        remote = np.where((up > 0) & (dn > 0), 1.0 / cycle, 0.0)
    fps = np.maximum(remote, oc.local_fps)
    return np.minimum(fps / oc.frames_per_meter, oc.v_max_mps)


def capacity_grids(gain_db: np.ndarray, int_mw, ch: ChannelParams):
    """(uplink, downlink, downlink signal mW) grids from the serving gain.

    `int_mw` is the downlink interference power; the uplink has none.
    """
    noise_mw = dbm_to_mw(ch.noise_dbm)
    up = capacity_bps(dbm_to_mw(ch.uav_tx_power_dbm + gain_db) / noise_mw, ch.bandwidth_hz)
    sig_mw = dbm_to_mw(ch.bs_tx_power_dbm + gain_db)
    return up, capacity_bps(sig_mw / (noise_mw + int_mw), ch.bandwidth_hz), sig_mw


class Planner:
    """One policy arm bound to an episode's scenario and belief state."""

    def __init__(self, kind: PlannerKind, scenario, explored: ExploredMap,
                 radio_map: RadioMap, truth_link: TruthLink,
                 ch: ChannelParams, oc: OffloadConfig, pc: PlanConfig):
        self.kind = kind
        self.sc = scenario
        self.explored = explored
        self.rm = radio_map
        self.tl = truth_link
        self.ch = ch
        self.oc = oc
        self.pc = pc
        self._nx = scenario.truth.width_cells
        self._ny = scenario.truth.depth_cells
        self._s = scenario.truth.cell_size_m
        self._alt = scenario.cfg.uav_altitude_m
        self._goal_cell = scenario.truth.cell_of(scenario.goal)
        self._static = self._static_grids()
        self._edges = self._lattice_edges()
        # each cache holds the inputs it was built from, compared by value
        self._forbidden_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._field_cache: tuple | None = None

    # ---- per-cell grids ----

    def _static_grids(self):
        if self.kind is PlannerKind.BASELINE:
            dx, dy, dz, _ = layer_offsets(self.sc.bs_positions[self.sc.serving_bs],
                                          self._nx, self._ny, self._s, self._alt)
            # the 3-D distance is rebuilt from the horizontal one the
            # elevation needs; layer_offsets' dist rounds differently
            horiz = np.hypot(dx, dy)
            dist = np.sqrt(horiz**2 + dz**2)
            elev = np.degrees(np.arctan2(dz, horiz))
            up, dn, _ = capacity_grids(-expected_path_loss_db(dist, elev, self.ch), 0.0, self.ch)
            zeros = np.zeros((self._nx, self._ny))
            return rate_to_limit_grid(up, dn, self.oc), zeros.astype(bool), zeros
        if self.kind is PlannerKind.GLOBAL:
            gain, int_mw = self.tl.layer_grids()
            up, dn, sig_mw = capacity_grids(gain, int_mw, self.ch)
            nlos = self.tl.blocked[self.sc.serving_bs].reshape(self._nx, self._ny)
            return rate_to_limit_grid(up, dn, self.oc), nlos, int_mw / (int_mw + sig_mw)
        return None

    def _grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(speed limit, nlos, interference-fraction) grids for this plan."""
        if self._static is not None:
            return self._static
        self.rm.ensure_layer_evaluated()
        up, dn, _ = capacity_grids(self.rm.gain_grid, 0.0, self.ch)
        limits = rate_to_limit_grid(up, dn, self.oc)
        nlos = self.rm.state_grid == _STATE_CODE[LinkState.NLOS]
        return limits, nlos, np.zeros((self._nx, self._ny))

    def forbidden_mask(self) -> np.ndarray:
        """Known obstacle cells at flight altitude, inflated by the margin.

        Returns the same array object until the obstacle cells change.
        """
        obstacles = self.explored.known & (self.explored.heights >= self._alt)
        cache = self._forbidden_cache
        if cache is None or not np.array_equal(obstacles, cache[0]):
            cache = (obstacles, inflate_obstacles(obstacles, self.pc.safety_margin_cells))
            self._forbidden_cache = cache
        return cache[1]

    # ---- search ----

    _NEIGH = ((-1, -1, _SQRT2), (-1, 0, 1.0), (-1, 1, _SQRT2),
              (0, -1, 1.0), (0, 1, 1.0),
              (1, -1, _SQRT2), (1, 0, 1.0), (1, 1, _SQRT2))

    def _lattice_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (u, v, length_m) arrays of every 8-neighbour edge, by direction."""
        nx, ny = self._nx, self._ny
        idx = np.arange(nx * ny).reshape(nx, ny)
        us, vs, lengths = [], [], []
        for ddx, ddy, dd in self._NEIGH:
            u = idx[max(0, -ddx):nx - max(0, ddx),
                    max(0, -ddy):ny - max(0, ddy)].ravel()
            us.append(u)
            vs.append(u + ddx * ny + ddy)
            lengths.append(np.full(len(u), dd * self._s))
        return np.concatenate(us), np.concatenate(vs), np.concatenate(lengths)

    def _cost_field(self):
        """Cost-to-goal potential and next-hop table for the current map.

        One goal-rooted shortest-path sweep prices every cell; plans then
        walk next hops, so successive replans descend a single potential and
        cannot cycle. Rebuilt only when the speed limits, cost rates or
        forbidden cells it was built from change.
        """
        limits, nlos, intf = self._grids()
        forb = self.forbidden_mask()
        lam = self.pc.nlos_penalty if self.kind is not PlannerKind.BASELINE else 0.0
        mu = self.pc.interference_weight if self.kind is PlannerKind.GLOBAL else 0.0
        # per-cell cost rate; an edge charges the mean of its two endpoints
        pen = 1.0 + lam * nlos.ravel().astype(float) + mu * intf.ravel()
        cache = self._field_cache
        if (cache is not None and cache[0] is forb and np.array_equal(cache[1], limits)
                and np.array_equal(cache[2], pen)):
            return cache[3]
        u, v, length = self._edges
        lim = limits.ravel()
        weight = length / np.minimum(lim[u], lim[v]) * 0.5 * (pen[u] + pen[v])
        ok = ~forb.ravel()
        m = ok[u] & ok[v]
        n = self._nx * self._ny
        graph = sparse.csr_matrix((weight[m], (u[m], v[m])), shape=(n, n))
        goal_flat = self._goal_cell[0] * self._ny + self._goal_cell[1]
        gstar, pred = csgraph.dijkstra(graph, directed=True, indices=goal_flat,
                                       return_predecessors=True)
        field = (gstar, pred, limits, weight, forb)
        self._field_cache = (forb, limits, pen, field)
        return field

    def _escape_hop(self, c, gstar, weight, forb):
        """Cheapest hop out of a cell swallowed by a fresh obstacle margin."""
        u, v, _ = self._edges
        e = np.flatnonzero(u == c)
        e = e[~forb.ravel()[v[e]] & np.isfinite(gstar[v[e]])]
        if len(e) == 0:
            return None, None
        hop, total = v[e], weight[e] + gstar[v[e]]
        best = np.lexsort((hop, total))[0]  # ties go to the lowest flat index
        return int(hop[best]), float(total[best] - gstar[hop[best]])

    def plan(self, position) -> TrajectorySegment:
        """One planning step from the current position toward the goal.

        Raises:
            StuckError: the goal is unreachable from the current cell.
        """
        gstar, nxt, limits, weight, forb = self._cost_field()
        ny = self._ny
        s = self._s
        start = self.sc.truth.cell_of(position)
        goal_flat = self._goal_cell[0] * ny + self._goal_cell[1]
        c = start[0] * ny + start[1]

        cells_flat = [c]
        plan_cost = float(gstar[c])
        if not np.isfinite(plan_cost):
            hop, edge = self._escape_hop(c, gstar, weight, forb)
            if hop is None:
                raise StuckError("goal unreachable from the current cell")
            cells_flat.append(hop)
            plan_cost = edge + float(gstar[hop])
            c = hop

        lim = limits.ravel()
        t_acc = 0.0
        while c != goal_flat:
            h = int(nxt[c])
            if h < 0:
                break
            dd = _SQRT2 if abs(h // ny - c // ny) + abs(h % ny - c % ny) == 2 else 1.0
            t_edge = dd * s / min(lim[c], lim[h])
            # the horizon bounds commitment, never reachability; always keep
            # at least one edge so the vehicle can move
            if len(cells_flat) >= 2 and t_acc + t_edge > self.pc.horizon_s:
                break
            t_acc += t_edge
            cells_flat.append(h)
            c = h

        cells = [(int(f // ny), int(f % ny)) for f in cells_flat]

        commit = len(cells)
        if self.pc.commit_within_sensed:
            commit = 1
            while commit < len(cells) and self.explored.known[cells[commit]]:
                commit += 1
        committed = cells[:commit]

        if commit >= 2:
            committed_cost = plan_cost - float(gstar[cells_flat[commit - 1]])
        else:
            committed_cost = 0.0
        reaches_goal = cells_flat[-1] == goal_flat and commit == len(cells)

        heading_hint = None
        if len(committed) < 2 and len(cells) >= 2:
            ahead = self.sc.truth.cell_center(*cells[1])
            heading_hint = float(
                np.degrees(np.arctan2(ahead[1] - position[1], ahead[0] - position[0]))
            )

        return self._segment(position, committed, limits, committed_cost, plan_cost,
                             reaches_goal, heading_hint)

    def _segment(self, position, cells, limits, cost, plan_cost,
                 reaches_goal, heading_hint) -> TrajectorySegment:
        pos = np.asarray(position, dtype=float)
        pts = [pos]
        speeds = []
        if reaches_goal and len(cells) == 1:
            # already inside the goal cell: close the remaining in-cell gap
            gpt = np.asarray(self.sc.goal, dtype=float)
            if float(np.linalg.norm(gpt - pos)) > 1e-9:
                pts.append(gpt)
                speeds.append(limits[cells[0]])
        for i in range(1, len(cells)):
            c = cells[i]
            if reaches_goal and i == len(cells) - 1:
                p = np.array(self.sc.goal, dtype=float)
            else:
                p = np.array([*self.sc.truth.cell_center(*c), self._alt])
            pts.append(p)
            speeds.append(min(limits[cells[i - 1]], limits[c]))
        points = np.vstack(pts) if len(pts) > 1 else pos.reshape(1, 3)
        return TrajectorySegment(
            cells=cells,
            points=points,
            leg_speeds=np.asarray(speeds),
            cost=cost,
            plan_cost=plan_cost,
            reaches_goal=reaches_goal,
            heading_hint=heading_hint,
        )


def replan_due(now_s: float, last_plan_s: float, pc: PlanConfig,
               invalidated: bool = False) -> bool:
    """Replan on the fixed cadence or when the committed segment turned bad."""
    return invalidated or (now_s - last_plan_s) >= pc.replan_period_s - 1e-9


def segment_invalidated(seg: TrajectorySegment, next_cell_index: int,
                        forbidden: np.ndarray) -> bool:
    """True if any not-yet-traversed committed cell is now forbidden."""
    for c in seg.cells[next_cell_index:]:
        if forbidden[c]:
            return True
    return False
