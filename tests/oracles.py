"""Independent reference implementations the tests compare against.

Everything here is deliberately slow and simple: dense sampling instead of
exact traversal, relaxation to a fixpoint instead of a priority queue, and
literal path enumeration where the grid is small enough. None of it imports
the production geometry or search code paths it checks. The truth link
budgets are composed from channel.py's per-link functions, the reference for
TruthLink's inlined arithmetic. The ray table reference is the original
single-block build, every ray padded to the longest one, which the block
build must reproduce value for value.
"""

from __future__ import annotations

import itertools

import numpy as np

from edgeflight.channel import (
    LinkState,
    antenna_gain_db,
    capacity_bps,
    dbm_to_mw,
    path_loss_db,
    sinr_linear,
)

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


def edge_cost(u, v, limits, pen, cell_size_m) -> float:
    """One lattice edge under the production cost model, written independently."""
    dd = _SQRT2 if (abs(u[0] - v[0]) + abs(u[1] - v[1])) == 2 else 1.0
    t = dd * cell_size_m / min(limits[u], limits[v])
    return t * 0.5 * (pen[u] + pen[v])


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
    corner_eps = 1e-12
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
    good = (t1 - t0 > corner_eps) & (t1 <= 1.0)
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
