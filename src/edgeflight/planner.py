"""LoS-aware lattice planning over per-cell speed limits.

All three policy arms share one search and one cost model; they differ only
in the per-cell speed-limit, NLoS, and interference grids fed to it:

    baseline  - elevation-angle LoS probability prices every cell, at the
                `layer_offsets` distances the explored arm prices; LoS-blind,
                it believes no cell NLoS; explored map for obstacles only.
    explored  - speed limits and NLoS cells from the self-built radio map's
                link states: each state is priced from two limit grids, LoS
                and NLoS, built once (assumed-LoS cells priced as LoS,
                interference unknown, so its grid is zero).
    global    - truth link states everywhere plus downlink interference, the
                true budgets (`TruthLink.budgets`) at every cell centre, so it
                plans on the bits it flies on.

Cost model: an edge u->v of length d is traversed at min(limit(u), limit(v)),
taking time T = d / speed, half inside each cell. Edge cost is
T + lambda * T/2 * (nlos(u) + nlos(v)) + mu * T/2 * (intf(u) + intf(v)).
One goal-rooted shortest-path sweep over the whole lattice prices every
cell, and it is rebuilt only when the speed limits, cost rates or forbidden
cells it was built from change. Forbidden cells are dead ends of the sweep:
they get a cost-to-go through their cheapest free neighbour, and no path
runs through them, so a vehicle whose cell a fresh margin swallowed hops out
along the same next-hop chain. A plan walks that chain from the current cell
and commits only the prefix inside the time horizon up to the first cell not
yet sensed, so every committed cell has been seen. Replanning therefore
always descends the same cost-to-go field until new information actually
changes it, which rules out the oscillation a horizon-truncated search can
fall into near walls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .channel import ChannelParams, LinkState, dbm_to_mw, expected_path_loss_db
from .errors import StuckError, require
from .linkfield import TruthLink, capacities, layer_gain_db, layer_offsets
from .offload import OffloadConfig
from .radiomap import _STATE_CODE, RadioMap
from .scenario import _SQRT2, inflate_obstacles, lattice_edges
from .worldmap import ExploredMap


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

    def __post_init__(self):
        require("planner", self, lambda v: v > 0, "positive", "horizon_s", "replan_period_s")
        # negative edge weights break the shortest-path sweep
        require("planner", self, lambda v: v >= 0, ">= 0",
                "nlos_penalty", "interference_weight")
        # with no margin, a diagonal hop from an off-centre position can cut
        # through the corner of a building cell beside it
        require("planner", self, lambda v: v >= 1, "at least 1", "safety_margin_cells")


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
        gx, gy = scenario.truth.cell_of(scenario.goal)
        self._goal_flat = gx * self._ny + gy
        self._static = self._static_grids()
        if self._static is None:
            self._state_limits = self._explored_limits()
        self._fully_known = bool(explored.known.all())
        u, v, step = lattice_edges(self._nx, self._ny)
        self._edges = u, v, step * self._s
        # each cache holds the inputs it was built from
        self._forbidden_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._field_cache: tuple | None = None
        # the field's next hops and flat limits as lists, which plan walks
        # without a numpy scalar per step
        self._walk: tuple[list, list] | None = None

    # ---- per-cell grids ----

    def _static_grids(self):
        if self.kind is PlannerKind.BASELINE:
            dx, dy, dz, dist = layer_offsets(self.sc.bs_positions[self.sc.serving_bs],
                                             self._nx, self._ny, self._s, self._alt)
            elev = np.degrees(np.arctan2(dz, np.hypot(dx, dy)))
            up, dn, *_ = capacities(-expected_path_loss_db(dist, elev, self.ch), 0.0, self.ch,
                                    dbm_to_mw(self.ch.noise_dbm))
            zeros = np.zeros((self._nx, self._ny))
            return rate_to_limit_grid(up, dn, self.oc), zeros.astype(bool), zeros
        if self.kind is PlannerKind.GLOBAL:
            ix, iy = np.indices((self._nx, self._ny)).reshape(2, -1)
            centres = np.column_stack([(ix + 0.5) * self._s, (iy + 0.5) * self._s,
                                       np.full(ix.size, self._alt)])
            up, dn, _, intf, nlos = self.tl.budgets(centres)
            return tuple(g.reshape(self._nx, self._ny)
                         for g in (rate_to_limit_grid(up, dn, self.oc), nlos, intf))
        return None

    def _explored_limits(self) -> np.ndarray:
        """(LoS, NLoS) speed-limit grids, stacked, that price the explored arm's states.

        No interference is known, and UAV boresight tracks the serving BS, so
        both antenna gains are 0 dB.
        """
        *_, dist = layer_offsets(self.sc.bs_positions[self.sc.serving_bs],
                                 self._nx, self._ny, self._s, self._alt)
        gain = layer_gain_db(dist, np.array([False, True])[:, None, None], self.ch)
        up, dn, *_ = capacities(gain, 0.0, self.ch, dbm_to_mw(self.ch.noise_dbm))
        return rate_to_limit_grid(up, dn, self.oc)

    def _grids(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(speed limit, nlos, interference-fraction) grids; assumed LoS is priced as LoS."""
        if self._static is not None:
            return self._static
        self.rm.ensure_layer_evaluated()
        nlos = self.rm.state_grid == _STATE_CODE[LinkState.NLOS]
        lim_los, lim_nlos = self._state_limits
        return np.where(nlos, lim_nlos, lim_los), nlos, np.zeros((self._nx, self._ny))

    def forbidden_mask(self) -> np.ndarray:
        """Known obstacle cells at flight altitude, inflated by the margin.

        Returns the same array object until the obstacle cells change. On a
        map fully known at construction they never do (a known cell already
        holds its truth height), so the mask is built once.
        """
        cache = self._forbidden_cache
        if cache is not None and self._fully_known:
            return cache[1]
        obstacles = self.explored.known & (self.explored.heights >= self._alt)
        if cache is None or not np.array_equal(obstacles, cache[0]):
            cache = (obstacles, inflate_obstacles(obstacles, self.pc.safety_margin_cells))
            self._forbidden_cache = cache
        return cache[1]

    # ---- search ----

    def _cost_field(self):
        """Cost-to-goal potential and next-hop table for the current map.

        Only free cells have edges out in the goal-rooted sweep, so a
        forbidden cell is a dead end priced by its cheapest hop to a free
        neighbour, and infinite if it has none. The static arms' speed
        limits and cost rates never change, so their field is returned while
        the forbidden mask is the object it was built from; the explored
        arm's grids are compared by value.
        """
        limits, nlos, intf = self._grids()
        forb = self.forbidden_mask()
        cache = self._field_cache
        if cache is not None and cache[0] is forb and self._static is not None:
            return cache[3]
        # per-cell cost rate; an edge charges the mean of its two endpoints
        pen = (1.0 + self.pc.nlos_penalty * nlos.ravel()
               + self.pc.interference_weight * intf.ravel())
        if (cache is not None and cache[0] is forb and np.array_equal(cache[1], limits)
                and np.array_equal(cache[2], pen)):
            return cache[3]
        u, v, length = self._edges
        lim = limits.ravel()
        weight = length / np.minimum(lim[u], lim[v]) * 0.5 * (pen[u] + pen[v])
        # the sweep runs from the goal, so u is the cell a hop lands on
        m = ~forb.ravel()[u]
        n = self._nx * self._ny
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(u[m], minlength=n), out=indptr[1:])
        graph = sparse.csr_matrix((weight[m], v[m], indptr), shape=(n, n))
        gstar, pred = csgraph.dijkstra(graph, directed=True, indices=self._goal_flat,
                                       return_predecessors=True)
        field = (gstar, pred, limits)
        self._field_cache = (forb, limits, pen, field)
        self._walk = (pred.tolist(), lim.tolist())
        return field

    def plan(self, position) -> TrajectorySegment:
        """One planning step from the current position toward the goal.

        Walks the next-hop chain from the current cell, which may be a
        forbidden cell a fresh margin swallowed: its first hop then leads
        out, and counts toward the horizon like any other edge.

        Raises:
            StuckError: the current cell's cost-to-go is infinite, i.e. the
                goal is unreachable from it.
        """
        gstar, _, limits = self._cost_field()
        nxt, lim = self._walk
        ny = self._ny
        s = self._s
        start = self.sc.truth.cell_of(position)
        c = start[0] * ny + start[1]

        cells_flat = [c]
        plan_cost = float(gstar[c])
        if not math.isfinite(plan_cost):
            raise StuckError("goal unreachable from the current cell")

        t_acc = 0.0
        while c != self._goal_flat:
            h = nxt[c]
            dd = _SQRT2 if abs(h // ny - c // ny) + abs(h % ny - c % ny) == 2 else 1.0
            t_edge = dd * s / min(lim[c], lim[h])
            # the horizon bounds commitment, never reachability; always keep
            # at least one edge so the vehicle can move
            if len(cells_flat) >= 2 and t_acc + t_edge > self.pc.horizon_s:
                break
            t_acc += t_edge
            cells_flat.append(h)
            c = h

        cells = [divmod(f, ny) for f in cells_flat]

        # a map fully known at construction has sensed every cell
        commit = len(cells) if self._fully_known else 1
        while commit < len(cells) and self.explored.known[cells[commit]]:
            commit += 1
        committed = cells[:commit]

        committed_cost = plan_cost - float(gstar[cells_flat[commit - 1]])
        reaches_goal = cells_flat[-1] == self._goal_flat and commit == len(cells)

        heading_hint = None
        if len(committed) < 2 and len(cells) >= 2:
            ahead = self.sc.truth.cell_center(*cells[1])
            heading_hint = math.degrees(
                float(np.arctan2(ahead[1] - position[1], ahead[0] - position[0])))

        return self._segment(position, committed, limits.ravel()[cells_flat[:commit]],
                             committed_cost, plan_cost, reaches_goal, heading_hint)

    def _segment(self, position, cells, lims, cost, plan_cost,
                 reaches_goal, heading_hint) -> TrajectorySegment:
        """The polyline through `cells`, whose flat speed limits are `lims`.

        Waypoints are the exact position, then the centres of the cells after
        the first, the goal itself in place of the last centre when the
        segment reaches it. Each leg is flown at the lesser limit of the two
        cells it joins.
        """
        pos = np.asarray(position, dtype=float)
        goal = np.asarray(self.sc.goal, dtype=float)
        if len(cells) > 1:
            pts = np.empty((len(cells), 3))
            pts[0] = pos
            pts[1:, :2] = (np.array(cells[1:]) + 0.5) * self._s
            pts[1:, 2] = self._alt
            if reaches_goal:
                pts[-1] = goal
            speeds = np.minimum(lims[:-1], lims[1:])
        elif reaches_goal and float(np.linalg.norm(goal - pos)) > 1e-9:
            # already inside the goal cell: close the remaining in-cell gap
            pts, speeds = np.vstack([pos, goal]), lims
        else:
            pts, speeds = np.vstack([pos]), lims[:0]
        return TrajectorySegment(
            cells=cells,
            points=pts,
            leg_speeds=speeds,
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
