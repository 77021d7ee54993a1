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
Each map revision gets one goal-rooted shortest-path sweep over the whole
lattice; a plan then walks the next-hop chain from the current cell and
commits only the prefix inside the time horizon (and, optionally, inside
sensed ground). Replanning therefore always descends the same cost-to-go
field until new information actually changes it, which rules out the
oscillation a horizon-truncated search can fall into near walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.ndimage import binary_dilation
from scipy.sparse import csgraph

from .channel import (
    ChannelParams,
    LinkState,
    capacity_bps,
    dbm_to_mw,
    expected_path_loss_db,
)
from .errors import ConfigError, StuckError
from .linkfield import TruthLink
from .offload import OffloadConfig
from .radiomap import _STATE_CODE, RadioMap
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


def snr_capacity_grid(gain_db: np.ndarray, tx_dbm: float, p: ChannelParams) -> np.ndarray:
    snr = dbm_to_mw(tx_dbm + gain_db) / dbm_to_mw(p.noise_dbm)
    return capacity_bps(snr, p.bandwidth_hz)


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
        self._forbidden_cache: tuple[int, np.ndarray] | None = None
        self._field_cache: tuple[tuple, tuple] | None = None

    # ---- per-cell grids ----

    def _static_grids(self):
        if self.kind is PlannerKind.BASELINE:
            bs = self.sc.bs_positions[self.sc.serving_bs]
            s = self._s
            cx = (np.arange(self._nx) + 0.5) * s
            cy = (np.arange(self._ny) + 0.5) * s
            dx = cx[:, None] - bs[0]
            dy = cy[None, :] - bs[1]
            dz = self._alt - bs[2]
            horiz = np.hypot(dx, dy)
            dist = np.sqrt(horiz**2 + dz**2)
            elev = np.degrees(np.arctan2(dz, horiz))
            gain = -expected_path_loss_db(dist, elev, self.ch)
            up = snr_capacity_grid(gain, self.ch.uav_tx_power_dbm, self.ch)
            dn = snr_capacity_grid(gain, self.ch.bs_tx_power_dbm, self.ch)
            limits = rate_to_limit_grid(up, dn, self.oc)
            zeros = np.zeros((self._nx, self._ny))
            return limits, zeros.astype(bool), zeros
        if self.kind is PlannerKind.GLOBAL:
            up = self.tl.uplink_grid()
            dn, int_frac = self.tl.downlink_grid()
            limits = rate_to_limit_grid(up, dn, self.oc)
            nlos = self.tl.blocked[self.sc.serving_bs].reshape(self._nx, self._ny)
            return limits, nlos, int_frac
        return None

    def _grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(speed limit, nlos, interference-fraction) grids for this plan."""
        if self._static is not None:
            return self._static
        self.rm.ensure_layer_evaluated()
        gain = self.rm.gain_grid
        up = snr_capacity_grid(gain, self.ch.uav_tx_power_dbm, self.ch)
        dn = snr_capacity_grid(gain, self.ch.bs_tx_power_dbm, self.ch)
        limits = rate_to_limit_grid(up, dn, self.oc)
        nlos = self.rm.state_grid == _STATE_CODE[LinkState.NLOS]
        return limits, nlos, np.zeros((self._nx, self._ny))

    def forbidden_mask(self) -> np.ndarray:
        """Known obstacle cells at flight altitude, inflated by the margin."""
        version = self.explored.explored_cell_count
        if self._forbidden_cache is not None and self._forbidden_cache[0] == version:
            return self._forbidden_cache[1]
        blocked = self.explored.known & (self.explored.heights >= self._alt)
        if self.pc.safety_margin_cells > 0:
            # Chebyshev inflation: diagonal moves graze corners, so diagonal
            # neighbors of an obstacle need the margin too
            blocked = binary_dilation(blocked, structure=np.ones((3, 3), dtype=bool),
                                      iterations=self.pc.safety_margin_cells)
        self._forbidden_cache = (version, blocked)
        return blocked

    # ---- search ----

    _NEIGH = ((-1, -1, _SQRT2), (-1, 0, 1.0), (-1, 1, _SQRT2),
              (0, -1, 1.0), (0, 1, 1.0),
              (1, -1, _SQRT2), (1, 0, 1.0), (1, 1, _SQRT2))

    def _map_version(self):
        if self.kind is PlannerKind.EXPLORED:
            return (self.explored.explored_cell_count, self.rm.version)
        return (self.explored.explored_cell_count,)

    def _cost_field(self):
        """Cost-to-goal potential and next-hop table for the current map.

        One goal-rooted shortest-path sweep prices every cell; plans then
        walk next hops, so successive replans descend a single potential and
        cannot cycle. Rebuilt only when the underlying maps change.
        """
        version = self._map_version()
        if self._field_cache is not None and self._field_cache[0] == version:
            return self._field_cache[1]
        limits, nlos, intf = self._grids()
        forb = self.forbidden_mask()
        nx, ny, s = self._nx, self._ny, self._s
        lam = self.pc.nlos_penalty if self.kind is not PlannerKind.BASELINE else 0.0
        mu = self.pc.interference_weight if self.kind is PlannerKind.GLOBAL else 0.0
        lim = limits.ravel()
        # per-cell cost rate; an edge charges the mean of its two endpoints
        pen = 1.0 + lam * nlos.ravel().astype(float) + mu * intf.ravel()
        ok = ~forb.ravel()
        idx = np.arange(nx * ny).reshape(nx, ny)
        rows, cols, data = [], [], []
        for ddx, ddy, dd in self._NEIGH:
            u = idx[max(0, -ddx):nx - max(0, ddx),
                    max(0, -ddy):ny - max(0, ddy)].ravel()
            v = u + ddx * ny + ddy
            m = ok[u] & ok[v]
            u, v = u[m], v[m]
            t = dd * s / np.minimum(lim[u], lim[v])
            rows.append(u)
            cols.append(v)
            data.append(t * 0.5 * (pen[u] + pen[v]))
        n = nx * ny
        graph = sparse.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n),
        )
        goal_flat = self._goal_cell[0] * ny + self._goal_cell[1]
        gstar, pred = csgraph.dijkstra(graph, directed=True, indices=goal_flat,
                                       return_predecessors=True)
        field = (gstar, pred, limits, pen, forb)
        self._field_cache = (version, field)
        return field

    def _escape_hop(self, c, gstar, limits, pen, forb):
        """Cheapest hop out of a cell swallowed by a fresh obstacle margin."""
        ny = self._ny
        lim = limits.ravel()
        forb_f = forb.ravel()
        ux, uy = divmod(c, ny)
        best = None
        for ddx, ddy, dd in self._NEIGH:
            vx, vy = ux + ddx, uy + ddy
            if not (0 <= vx < self._nx and 0 <= vy < ny):
                continue
            v = vx * ny + vy
            if forb_f[v] or not np.isfinite(gstar[v]):
                continue
            w = dd * self._s / min(lim[c], lim[v]) * 0.5 * (pen[c] + pen[v])
            if best is None or (w + gstar[v], v) < best:
                best = (w + gstar[v], v)
        if best is None:
            return None, None
        return int(best[1]), float(best[0] - gstar[best[1]])

    def plan(self, position) -> TrajectorySegment:
        """One planning step from the current position toward the goal.

        Raises:
            StuckError: the goal is unreachable from the current cell.
        """
        gstar, nxt, limits, pen, forb = self._cost_field()
        ny = self._ny
        s = self._s
        start = self.sc.truth.cell_of(position)
        goal_flat = self._goal_cell[0] * ny + self._goal_cell[1]
        c = start[0] * ny + start[1]

        cells_flat = [c]
        plan_cost = float(gstar[c])
        if not np.isfinite(plan_cost):
            hop, edge = self._escape_hop(c, gstar, limits, pen, forb)
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
