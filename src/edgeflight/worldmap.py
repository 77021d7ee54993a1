"""Incremental world knowledge: explored map, grid ray casting, sensing.

Link and collision geometry reduce to one primitive: walk the grid cells a 3D
segment crosses (in the horizontal plane) and compare the segment's
interpolated altitude against each crossed cell's height. A cell blocks the
segment iff the altitude at the cell's entry or exit point is strictly below
the cell height. The two endpoint cells never block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scenario import HeightField

# Ties in the traversal parameter below this width are exact corner touches;
# the segment has zero extent inside the off-diagonal cells, so they are not
# visited. Genuine chords between cell-center endpoints are many orders wider.
_CORNER_EPS = 1e-12


class RayResult(Enum):
    CLEAR = "clear"
    BLOCKED = "blocked"
    CROSSES_UNKNOWN = "crosses_unknown"


class UnknownPolicy(Enum):
    FREE = "free"
    BLOCKED = "blocked"


class ExploredMap:
    """Monotone per-cell knowledge of the truth field.

    Attributes:
        known: bool array, True where the cell height has been observed.
        heights: observed heights, only meaningful where known.
        cell_size_m: grid resolution.
    """

    def __init__(self, width_cells: int, depth_cells: int, cell_size_m: float):
        self.known = np.zeros((width_cells, depth_cells), dtype=bool)
        self.heights = np.zeros((width_cells, depth_cells))
        self.cell_size_m = float(cell_size_m)

    @classmethod
    def fully_known(cls, truth: HeightField) -> "ExploredMap":
        m = cls(truth.width_cells, truth.depth_cells, truth.cell_size_m)
        m.known[:] = True
        m.heights[:] = truth.heights
        return m

    @property
    def width_cells(self) -> int:
        return self.known.shape[0]

    @property
    def depth_cells(self) -> int:
        return self.known.shape[1]

    def cell_of(self, point) -> tuple[int, int]:
        s = self.cell_size_m
        ix = min(max(int(point[0] // s), 0), self.width_cells - 1)
        iy = min(max(int(point[1] // s), 0), self.depth_cells - 1)
        return ix, iy


def _grid_arrays(grid) -> tuple[np.ndarray | None, np.ndarray, float]:
    """(known, heights, cell_size) for HeightField (all known) or ExploredMap."""
    known = getattr(grid, "known", None)
    return known, grid.heights, grid.cell_size_m


def _traverse(ax, ay, bx, by, nx, ny):
    """Yield (ix, iy, t0, t1) for every cell the segment crosses, in order.

    Coordinates are in cell units. Exact corner crossings advance both axes so
    zero-extent diagonal touches are skipped.
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


def ray_blocked(grid, a, b, unknown_policy: UnknownPolicy = UnknownPolicy.FREE) -> RayResult:
    """Classify the segment a-b against a height grid.

    Args:
        grid: HeightField or ExploredMap.
        a, b: 3D endpoints in meters, both inside the map footprint.
        unknown_policy: whether unexplored cells block (collision queries) or
            pass with a CROSSES_UNKNOWN verdict (link queries).

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
            if unknown_policy is UnknownPolicy.BLOCKED:
                return RayResult.BLOCKED
            crossed_unknown = True
    return RayResult.CROSSES_UNKNOWN if crossed_unknown else RayResult.CLEAR


@dataclass(frozen=True)
class SensorModel:
    """Noiseless forward camera: FoV in degrees, range in meters."""

    fov_deg: float = 120.0
    range_m: float = 50.0

    def __post_init__(self):
        if not (0 < self.fov_deg <= 360) or self.range_m <= 0:
            raise ValueError("sensor needs 0 < fov <= 360 and positive range")


def sense(truth: HeightField, explored: ExploredMap, position, heading_deg: float,
          sensor: SensorModel) -> ExploredMap:
    """Reveal every cell whose center lies in the sensor wedge; returns `explored`.

    Knowledge is monotone and noiseless: revealed cells take their truth height
    and stay known. Heading follows math convention (degrees, 0 = +x, CCW).
    """
    s = truth.cell_size_m
    nx, ny = truth.width_cells, truth.depth_cells
    px, py = float(position[0]), float(position[1])
    r = sensor.range_m
    ix0 = max(int((px - r) // s), 0)
    ix1 = min(int((px + r) // s) + 1, nx)
    iy0 = max(int((py - r) // s), 0)
    iy1 = min(int((py + r) // s) + 1, ny)
    if ix0 >= ix1 or iy0 >= iy1:
        return explored
    cx = (np.arange(ix0, ix1) + 0.5) * s - px
    cy = (np.arange(iy0, iy1) + 0.5) * s - py
    dx, dy = np.meshgrid(cx, cy, indexing="ij")
    dist = np.hypot(dx, dy)
    vis = dist <= r
    if sensor.fov_deg < 360.0:
        ang = np.degrees(np.arctan2(dy, dx))
        diff = (ang - heading_deg + 180.0) % 360.0 - 180.0
        vis &= np.abs(diff) <= sensor.fov_deg / 2.0
        vis |= dist < 1e-9  # own cell: bearing undefined
    win = (slice(ix0, ix1), slice(iy0, iy1))
    explored.known[win] |= vis
    explored.heights[win] = np.where(vis, truth.heights[win], explored.heights[win])
    return explored


class RayTable:
    """Precomputed crossings for rays from one origin to every cell center.

    Ray k's crossed cells (endpoint cells excluded) and the minimum segment
    altitude inside each are entries offsets[k]:offsets[k + 1] of `cells` and
    `minz`. classify_subset, one gather and two bincounts, is the only
    classifier, for truth and partial maps alike. Semantics match ray_blocked.
    """

    def __init__(self, origin, nx: int, ny: int, cell_size_m: float, target_z: float):
        self.origin = np.asarray(origin, dtype=float)
        self.nx, self.ny = nx, ny
        self.cell_size_m = float(cell_size_m)
        self.target_z = float(target_z)
        self._build()

    def _build(self):
        s = self.cell_size_m
        nx, ny = self.nx, self.ny
        n = nx * ny
        ox, oy = self.origin[0] / s, self.origin[1] / s
        oz = self.origin[2]
        tz = self.target_z
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
            # pad with 2.0: real crossings lie in [0, 1], padding sorts last
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
        origin_cell = (
            min(max(int(ox), 0), nx - 1) * ny + min(max(int(oy), 0), ny - 1)
        )
        target_cell = np.arange(n)
        good &= (cell != origin_cell) & (cell != target_cell[:, None])
        z0 = oz + t0 * (tz - oz)
        z1 = oz + t1 * (tz - oz)
        minz = np.minimum(z0, z1)

        counts = good.sum(axis=1)
        self.offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.cells = cell[good].astype(np.int64)
        self.minz = minz[good]

    def classify_subset(self, rays: np.ndarray, known: np.ndarray,
                        heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(blocked, crosses_unknown) per given flat ray index, on a partially known grid.

        With every cell known the blocked mask is the truth verdict.
        """
        rays = np.asarray(rays, dtype=np.int64)
        lo = self.offsets[rays]
        counts = self.offsets[rays + 1] - lo
        # table entry of each gathered crossing: its ray's start plus its rank
        at = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        owner = np.repeat(np.arange(len(rays)), counts)
        c = self.cells[at]
        k = known.ravel()[c]
        hit = k & (heights.ravel()[c] > self.minz[at])
        blocked = np.bincount(owner[hit], minlength=len(rays)) > 0
        crosses = ~blocked & (np.bincount(owner[~k], minlength=len(rays)) > 0)
        return blocked, crosses
