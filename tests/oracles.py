"""Independent reference implementations the tests compare against.

Everything here is deliberately slow and simple: dense sampling and a scalar
cell-by-cell grid walk instead of batched ray tables, relaxation to a fixpoint
instead of a priority queue, and literal path enumeration where the grid is
small enough. None of it imports the production geometry or search code paths
it checks. The grid walk, `ray_blocked`, is the reference for
RayTable.classify_subset; acceptance gate 02 checks both against dense
sampling. The truth link budgets are composed from channel.py's per-link
functions and the SINR sum below, the reference for TruthLink's inlined
arithmetic; `path_loss_db` is the array path loss per link state they use.
`serving_link_speed_limit` is the per-tick speed governor over the serving
link alone, the reference for the explored planner's limit grids, and
`baseline_speed_limit` the same governor over the expected LoS-probability
loss, the reference for the baseline's.
`parse_grid` reads back the grid files `edgeflight generate` writes. The ray
table reference is the original single-block build, every ray padded to the
longest one, which the block build must reproduce value for value. FullRefreshRadioMap is the one exception to the rule above: it keeps
RadioMap's classifier and replaces its choice of cells to refresh and how
they are refreshed, sending every stale cell to classify_subset as RadioMap
did before it tracked which rays new geometry can change.
"""

from __future__ import annotations

import itertools
from enum import Enum

import numpy as np

from edgeflight.channel import (
    LinkState,
    antenna_gain_db,
    capacity_bps,
    capacity_bps_scalar,
    carrier_loss_db,
    dbm_to_mw,
    expected_path_loss_db,
    free_space_path_loss_db,
    path_loss_db_scalar,
)
from edgeflight.offload import remote_update_rate, select_mode, speed_limit
from edgeflight.radiomap import _ASSUMED, _LOS, _NLOS, MISSING, RadioMap

# Ties in the traversal parameter below this width are exact corner touches;
# the segment has zero extent inside the off-diagonal cells, so they are not
# visited. Genuine chords between cell-center endpoints are many orders wider.
_CORNER_EPS = 1e-12

_SQRT2 = float(np.sqrt(2.0))
_NEIGH = ((-1, -1, _SQRT2), (-1, 0, 1.0), (-1, 1, _SQRT2),
          (0, -1, 1.0), (0, 1, 1.0),
          (1, -1, _SQRT2), (1, 0, 1.0), (1, 1, _SQRT2))


def fine_sample_blocked(heights: np.ndarray, cell_size_m: float, a, b,
                        step_divisor: int = 10) -> bool:
    """Dense-sampling verdict: does any non-endpoint cell rise above the segment?

    Samples the segment every cell_size/step_divisor meters, looks up the cell
    under each sample, and compares interpolated altitude against the cell
    height. Endpoint cells are exempt, mirroring the production contract.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = cell_size_m
    nx, ny = heights.shape

    def cell(p):
        return (min(max(int(p[0] // s), 0), nx - 1),
                min(max(int(p[1] // s), 0), ny - 1))

    ca, cb = cell(a), cell(b)
    length = float(np.linalg.norm(b[:2] - a[:2]))
    n = max(int(np.ceil(length / (s / step_divisor))), 2)
    for t in np.linspace(0.0, 1.0, n + 1):
        p = a + (b - a) * t
        c = cell(p)
        if c == ca or c == cb:
            continue
        if p[2] < heights[c]:
            return True
    return False


class RayResult(Enum):
    CLEAR = "clear"
    BLOCKED = "blocked"
    CROSSES_UNKNOWN = "crosses_unknown"


def _grid_arrays(grid) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(known, heights, cell_size) for HeightField (all known) or ExploredMap."""
    known = getattr(grid, "known", None)
    return known, grid.heights, grid.cell_size_m


def _traverse(ax, ay, bx, by, nx, ny):
    """Yield (ix, iy, t0, t1) for every cell the segment crosses, in order.

    The Amanatides & Woo (1987) grid walk. Coordinates are in cell units.
    Exact corner crossings advance both axes so zero-extent diagonal touches
    are skipped.
    """
    ix = min(max(int(np.floor(ax)), 0), nx - 1)
    iy = min(max(int(np.floor(ay)), 0), ny - 1)
    dx = bx - ax
    dy = by - ay
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    if dx != 0:
        t_dx = abs(1.0 / dx)
        nxt = ix + 1 if dx > 0 else ix
        t_mx = (nxt - ax) / dx
    else:
        t_dx = np.inf
        t_mx = np.inf
    if dy != 0:
        t_dy = abs(1.0 / dy)
        nxt = iy + 1 if dy > 0 else iy
        t_my = (nxt - ay) / dy
    else:
        t_dy = np.inf
        t_my = np.inf

    t = 0.0
    while True:
        t_next = min(t_mx, t_my, 1.0)
        yield ix, iy, t, min(t_next, 1.0)
        if t_next >= 1.0:
            return
        if abs(t_mx - t_my) <= _CORNER_EPS:
            ix += step_x
            iy += step_y
            t_mx += t_dx
            t_my += t_dy
        elif t_mx < t_my:
            ix += step_x
            t_mx += t_dx
        else:
            iy += step_y
            t_my += t_dy
        if not (0 <= ix < nx and 0 <= iy < ny):
            return
        t = t_next


def ray_blocked(grid, a, b) -> RayResult:
    """Classify the segment a-b against a height grid, one crossed cell at a time.

    Args:
        grid: HeightField (every cell known) or ExploredMap.
        a, b: 3D endpoints in meters, both inside the map footprint.

    Returns:
        BLOCKED if a known crossed cell rises strictly above the segment at its
        entry or exit; otherwise CROSSES_UNKNOWN if any unexplored cell was
        crossed; otherwise CLEAR. Endpoint cells are exempt.
    """
    known, heights, s = _grid_arrays(grid)
    nx, ny = heights.shape
    for p in (a, b):
        if not (0 <= p[0] <= nx * s and 0 <= p[1] <= ny * s):
            raise ValueError("ray endpoint outside the map")
    ax, ay, az = a[0] / s, a[1] / s, a[2]
    bx, by, bz = b[0] / s, b[1] / s, b[2]
    cell_a = (min(max(int(ax), 0), nx - 1), min(max(int(ay), 0), ny - 1))
    cell_b = (min(max(int(bx), 0), nx - 1), min(max(int(by), 0), ny - 1))
    dz = bz - az

    crossed_unknown = False
    for ix, iy, t0, t1 in _traverse(ax, ay, bx, by, nx, ny):
        if (ix, iy) == cell_a or (ix, iy) == cell_b:
            continue
        if known is None or known[ix, iy]:
            h = heights[ix, iy]
            if az + dz * t0 < h or az + dz * t1 < h:
                return RayResult.BLOCKED
        else:
            crossed_unknown = True
    return RayResult.CROSSES_UNKNOWN if crossed_unknown else RayResult.CLEAR


def ray_blocked_grid(truth, bs, alt: float) -> np.ndarray:
    """Truth NLoS verdict per flight-layer cell, one scalar ray_blocked cast each."""
    s = truth.cell_size_m
    out = np.zeros((truth.width_cells, truth.depth_cells), dtype=bool)
    for ix, iy in np.ndindex(out.shape):
        tgt = np.array([(ix + 0.5) * s, (iy + 0.5) * s, alt])
        out[ix, iy] = ray_blocked(truth, bs, tgt) is RayResult.BLOCKED
    return out


def edge_cost(u, v, limits, pen, cell_size_m) -> float:
    """One lattice edge under the production cost model, written independently."""
    dd = _SQRT2 if (abs(u[0] - v[0]) + abs(u[1] - v[1])) == 2 else 1.0
    t = dd * cell_size_m / min(limits[u], limits[v])
    return t * 0.5 * (pen[u] + pen[v])


def path_cost(cells, limits, pen, cell_size_m) -> float:
    """A lattice path's cost under the production cost model: its edges' costs, summed."""
    return sum(edge_cost(u, v, limits, pen, cell_size_m) for u, v in zip(cells, cells[1:]))


def relaxed_cost_to_go(limits, pen, forbidden, goal, cell_size_m) -> np.ndarray:
    """Optimal cost-to-goal by repeated relaxation to a fixpoint (Bellman-Ford).

    No priority queue, no early exit: sweep every edge until nothing improves.
    """
    nx, ny = limits.shape
    g = np.full((nx, ny), np.inf)
    if not forbidden[goal]:
        g[goal] = 0.0
    for _ in range(nx * ny):
        changed = False
        for ix in range(nx):
            for iy in range(ny):
                if forbidden[ix, iy]:
                    continue
                for dx, dy, _ in _NEIGH:
                    jx, jy = ix + dx, iy + dy
                    if not (0 <= jx < nx and 0 <= jy < ny) or forbidden[jx, jy]:
                        continue
                    cand = g[jx, jy] + edge_cost((ix, iy), (jx, jy), limits, pen, cell_size_m)
                    if cand < g[ix, iy] - 1e-12:
                        g[ix, iy] = cand
                        changed = True
        if not changed:
            break
    return g


def enumerate_best_path_cost(limits, pen, forbidden, start, goal,
                             cell_size_m) -> float:
    """Exhaustive DFS over all simple lattice paths; tractable only on tiny grids."""
    nx, ny = limits.shape
    best = [np.inf]
    on_path = np.zeros((nx, ny), dtype=bool)

    def dfs(c, acc):
        if acc >= best[0]:
            return
        if c == goal:
            best[0] = acc
            return
        on_path[c] = True
        for dx, dy, _ in _NEIGH:
            n = (c[0] + dx, c[1] + dy)
            if not (0 <= n[0] < nx and 0 <= n[1] < ny):
                continue
            if forbidden[n] or on_path[n]:
                continue
            dfs(n, acc + edge_cost(c, n, limits, pen, cell_size_m))
        on_path[c] = False

    if not (forbidden[start] or forbidden[goal]):
        dfs(start, 0.0)
    return best[0]


def wedge_cells(nx, ny, cell_size_m, position, heading_deg, fov_deg, range_m):
    """Cell-by-cell reconstruction of one sensor sweep's visible set."""
    out = set()
    px, py = float(position[0]), float(position[1])
    for ix, iy in itertools.product(range(nx), range(ny)):
        cx = (ix + 0.5) * cell_size_m - px
        cy = (iy + 0.5) * cell_size_m - py
        d = float(np.hypot(cx, cy))
        if d > range_m:
            continue
        if d < 1e-9 or fov_deg >= 360.0:
            out.add((ix, iy))
            continue
        ang = float(np.degrees(np.arctan2(cy, cx)))
        diff = (ang - heading_deg + 180.0) % 360.0 - 180.0
        if abs(diff) <= fov_deg / 2.0:
            out.add((ix, iy))
    return out


def path_loss_db(distance_m, state: LinkState, p):
    """Free-space loss plus the NLoS excess; assumed-LoS is priced as LoS."""
    pl = free_space_path_loss_db(distance_m, p.carrier_hz)
    if state is LinkState.NLOS:
        pl = pl + p.nlos_excess_db
    return pl


def serving_link_speed_limit(distance_m: float, nlos: bool, ch, oc) -> float:
    """Speed limit of one tick governed by the serving link alone, no interference.

    path_loss_db_scalar, capacity_bps_scalar, then the per-tick governor
    (remote_update_rate, select_mode, speed_limit), one link at a time.
    """
    pl = path_loss_db_scalar(distance_m, nlos, carrier_loss_db(ch.carrier_hz), ch)
    return governed_speed_limit(pl, ch, oc)


def baseline_speed_limit(bs, centre, alt: float, ch, oc) -> float:
    """The baseline's speed limit at one cell centre, priced from the expected loss.

    The distance sums dx*dx + dy*dy + dz*dz, in layer_offsets' order, and the
    elevation is arctan2(dz, hypot(dx, dy)); expected_path_loss_db mixes the
    LoS and NLoS losses, and the serving link alone sets the capacities.
    """
    dx, dy, dz = centre[0] - bs[0], centre[1] - bs[1], alt - bs[2]
    d = np.sqrt(dx * dx + dy * dy + dz * dz)
    elev = np.degrees(np.arctan2(dz, np.hypot(dx, dy)))
    return governed_speed_limit(float(expected_path_loss_db(d, elev, ch)), ch, oc)


def governed_speed_limit(pl: float, ch, oc) -> float:
    """Per-tick speed limit of a serving link with path loss `pl` dB and no interference."""
    noise_mw = dbm_to_mw(ch.noise_dbm)
    up = capacity_bps_scalar(dbm_to_mw(ch.uav_tx_power_dbm - pl) / noise_mw, ch.bandwidth_hz)
    dn = capacity_bps_scalar(dbm_to_mw(ch.bs_tx_power_dbm - pl) / noise_mw, ch.bandwidth_hz)
    _, fps = select_mode(remote_update_rate(up, dn, oc), oc.local_fps)
    return speed_limit(fps, oc)


def sinr_linear(signal_dbm, interferer_dbm, p):
    """Linear SINR for one signal against noise plus a list of interferers.

    Args:
        signal_dbm: received power of the serving link.
        interferer_dbm: iterable of received interferer powers (may be empty).
        p: channel parameters (sets the noise floor).
    """
    noise_mw = dbm_to_mw(p.noise_dbm)
    inter_mw = sum((dbm_to_mw(i) for i in interferer_dbm), 0.0)
    return dbm_to_mw(signal_dbm) / (noise_mw + inter_mw)


def truth_budgets(params, bs_positions, serving: int, pos, nlos):
    """(uplink_bps, (downlink_bps, downlink_sinr, interference_fraction)) at pos.

    One link at a time through channel.py: `nlos[i]` is the true state toward
    BS i, the serving link sees unit antenna gain and each interferer arrives
    through the pattern whose boresight points at the serving BS.
    """
    pos = np.asarray(pos, dtype=float)
    state = [LinkState.NLOS if b else LinkState.LOS for b in nlos]
    bs_s = bs_positions[serving]
    d_up = float(np.linalg.norm(pos - bs_s))
    rx_up = params.uav_tx_power_dbm - path_loss_db(d_up, state[serving], params)
    uplink = float(capacity_bps(sinr_linear(rx_up, (), params), params.bandwidth_hz))

    bore = bs_s - pos
    d_s = float(np.linalg.norm(bore))
    rx_s = params.bs_tx_power_dbm - path_loss_db(d_s, state[serving], params)
    inter = []
    for i, bs_i in enumerate(bs_positions):
        if i == serving:
            continue
        v = bs_i - pos
        d_i = float(np.linalg.norm(v))
        cosang = float(np.dot(bore, v) / max(d_s * d_i, 1e-12))
        ang = float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        gain = float(antenna_gain_db(ang, params))
        inter.append(params.bs_tx_power_dbm + gain - path_loss_db(d_i, state[i], params))
    sinr = float(sinr_linear(rx_s, inter, params))
    cap = float(capacity_bps(sinr, params.bandwidth_hz))
    i_mw = float(sum(dbm_to_mw(x) for x in inter))
    s_mw = float(dbm_to_mw(rx_s))
    return uplink, (cap, sinr, i_mw / (i_mw + s_mw))


def padded_ray_table(origin, nx: int, ny: int, cell_size_m: float, target_z: float):
    """(offsets, cells, minz) of a RayTable, built in one block padded to the longest ray."""
    s = cell_size_m
    n = nx * ny
    origin = np.asarray(origin, dtype=float)
    ox, oy = origin[0] / s, origin[1] / s
    oz = origin[2]
    tz = target_z
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    tx = (gx.ravel() + 0.5).astype(float)
    ty = (gy.ravel() + 0.5).astype(float)

    def crossings(p0, p1):
        lo = np.minimum(p0, p1)
        hi = np.maximum(p0, p1)
        k_lo = np.floor(lo).astype(int) + 1
        k_hi = np.ceil(hi).astype(int) - 1
        count = np.maximum(k_hi - k_lo + 1, 0)
        m = int(count.max()) if len(count) else 0
        k = k_lo[:, None] + np.arange(m)[None, :]
        valid = np.arange(m)[None, :] < count[:, None]
        d = p1 - p0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(valid, (k - p0[:, None]) / d[:, None], 2.0)
        return t

    t_all = np.concatenate(
        [
            np.zeros((n, 1)),
            crossings(np.full(n, ox), tx),
            crossings(np.full(n, oy), ty),
            np.ones((n, 1)),
        ],
        axis=1,
    )
    t_all = np.sort(t_all, axis=1)
    t0 = t_all[:, :-1]
    t1 = t_all[:, 1:]
    good = (t1 - t0 > _CORNER_EPS) & (t1 <= 1.0)
    tm = 0.5 * (t0 + t1)
    cx = np.clip((ox + tm * (tx - ox)[:, None]).astype(int), 0, nx - 1)
    cy = np.clip((oy + tm * (ty - oy)[:, None]).astype(int), 0, ny - 1)
    cell = cx * ny + cy
    origin_cell = min(max(int(ox), 0), nx - 1) * ny + min(max(int(oy), 0), ny - 1)
    good &= (cell != origin_cell) & (cell != np.arange(n)[:, None])
    z0 = oz + t0 * (tz - oz)
    z1 = oz + t1 * (tz - oz)
    minz = np.minimum(z0, z1)
    offsets = np.concatenate([[0], np.cumsum(good.sum(axis=1))]).astype(np.int64)
    return offsets, cell[good].astype(np.int64), minz[good]


class FullRefreshRadioMap(RadioMap):
    """RadioMap whose every refresh re-classifies each stale cell it reaches.

    Stale: missing and assumed LoS. Whether a crossed cell turned known since
    the last estimate is not consulted, so RadioMap's per-ray unknown counts
    are never brought up to date and every due cell's ray is classified.
    """

    def _due(self, win):
        codes = self.state_grid[win]
        return (codes == MISSING) | (codes == _ASSUMED)

    def _refresh(self, idx):
        if len(idx) == 0:
            return
        blocked, crosses = self.table.classify_subset(idx, self.explored.known,
                                                      self.explored.heights)
        self.state_grid.reshape(-1)[idx] = np.where(blocked, _NLOS,
                                                     np.where(crosses, _ASSUMED, _LOS))


def parse_grid(text: str) -> tuple[np.ndarray, float]:
    """(heights, cell size) from the text of a grid file.

    Raises:
        ValueError: malformed header, row count or row length.
    """
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise ValueError("empty grid file")
    head = rows[0].split()
    if len(head) != 3:
        raise ValueError("grid header must be: width depth cell_size")
    nx, ny, cell = int(head[0]), int(head[1]), float(head[2])
    if len(rows) - 1 != ny:
        raise ValueError(f"expected {ny} grid rows, found {len(rows) - 1}")
    heights = np.empty((nx, ny))
    for iy, ln in enumerate(rows[1:]):
        vals = ln.split()
        if len(vals) != nx:
            raise ValueError(f"row {iy} has {len(vals)} values, expected {nx}")
        heights[:, iy] = [float(v) for v in vals]
    return heights, cell


def load_grid(path) -> tuple[np.ndarray, float]:
    with open(path) as f:
        return parse_grid(f.read())
