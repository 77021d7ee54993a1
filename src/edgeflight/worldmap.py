"""Incremental world knowledge: explored map, grid ray casting, sensing.

Link geometry reduces to one primitive: walk the grid cells a 3D segment
crosses (in the horizontal plane) and compare the segment's interpolated
altitude against each crossed cell's height. A cell blocks the segment iff the
altitude at the cell's entry or exit point is strictly below the cell height.
The two endpoint cells never block. RayTable is the one implementation; the
scalar cell-by-cell walk in tests/oracles.py is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .scenario import HeightField

# Ties in the traversal parameter below this width are exact corner touches;
# the segment has zero extent inside the off-diagonal cells, so they are not
# visited. Genuine chords between cell-center endpoints are many orders wider.
_CORNER_EPS = 1e-12

# Rays per RayTable build and classification block.
_BLOCK_RAYS = 256


def _ranges(lo: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, start): ranges lo[i]:lo[i] + counts[i] concatenated, and where each begins in at."""
    start = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(lo - start, counts), start


def _crossings(p0: float, p1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, count, d) of the rays from coordinate p0 to each p1 along one axis.

    Row i of t holds the ray parameters of the count[i] grid lines the ray
    p0 -> p1[i] crosses, padded with 2.0; d = p1 - p0.
    """
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    k_lo = np.floor(lo).astype(int) + 1
    k_hi = np.ceil(hi).astype(int) - 1
    count = np.maximum(k_hi - k_lo + 1, 0)
    m = int(count.max())
    k = k_lo[:, None] + np.arange(m)[None, :]
    valid = np.arange(m)[None, :] < count[:, None]
    d = p1 - p0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(valid, (k - p0) / d[:, None], 2.0)
    return t, count, d


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
    Only this function and `ExploredMap.fully_known` write an explored map, so
    a known cell already holds its truth height; when every cell of the
    sensor's bounding window is known, the wedge would change nothing and is
    not built.
    """
    s = truth.cell_size_m
    nx, ny = truth.width_cells, truth.depth_cells
    px, py = float(position[0]), float(position[1])
    r = sensor.range_m
    ix0 = max(int((px - r) // s), 0)
    ix1 = min(int((px + r) // s) + 1, nx)
    iy0 = max(int((py - r) // s), 0)
    iy1 = min(int((py + r) // s) + 1, ny)
    if ix0 >= ix1 or iy0 >= iy1 or explored.known[ix0:ix1, iy0:iy1].all():
        return explored
    cx = (np.arange(ix0, ix1) + 0.5) * s - px
    cy = (np.arange(iy0, iy1) + 0.5) * s - py
    dx, dy = cx[:, None], cy[None, :]
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
    altitude inside each are entries offsets[k]:offsets[k + 1] of `cells`
    and `minz`. `cells` holds int32 flat indices; ScenarioConfig's table
    budget keeps every scenario grid far below 2**31 cells.

    The build and classify_subset both work on blocks of _BLOCK_RAYS rays, so
    their temporaries grow with nx + ny, not with the cell count. A ray's
    crossings of the x grid lines depend only on its target column and those
    of the y lines only on its target row, so the build computes them once
    per table, one padded row per column and per row. A block copies its
    rays' rows side by side, padded only to its own longest ray, and sorts
    each; the ray's pieces are the leading ncx + ncy + 1 gaps of its sorted
    row, cut out into flat arrays before any per-piece work. Rows are
    independent and the padding sorts last, so the table does not depend on
    the block size. Blocks write into arrays sized for every piece of every
    ray, which shrink to the kept entries at the end.

    classify_subset, one gather and one logical-or per ray, is the only
    classifier, for truth and partial maps alike. A block of consecutive rays
    owns one contiguous run of entries, which it reads as a slice; any other
    block gathers its rays' ranges. Its verdicts follow the contract in the
    module docstring and are checked against the scalar cell-by-cell walk in
    tests/oracles.py.

    rays_crossing answers the inverse question, which rays cross a cell,
    from a cell -> rays index in the same CSR layout: the table's transpose,
    built by scipy's counting sort into int32 arrays. The index is built on
    its first call, so a table whose map never learns a cell never holds it.
    """

    def __init__(self, origin, nx: int, ny: int, cell_size_m: float, target_z: float):
        self.origin = np.asarray(origin, dtype=float)
        self.nx, self.ny = nx, ny
        self.cell_size_m = float(cell_size_m)
        self.target_z = float(target_z)
        self._inverse = None  # (offsets, rays) of the cell -> rays index
        self._build()

    def _build(self):
        s = self.cell_size_m
        nx, ny = self.nx, self.ny
        n = nx * ny
        ox, oy = self.origin[0] / s, self.origin[1] / s
        cols, rows = _crossings(ox, np.arange(nx) + 0.5), _crossings(oy, np.arange(ny) + 0.5)
        # room for every ray's ncx + ncy + 1 pieces; a few per ray are dropped
        size = ny * int(cols[1].sum()) + nx * int(rows[1].sum()) + n
        self.cells = np.empty(size, dtype=np.int32)
        self.minz = np.empty(size)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        end = 0
        for lo in range(0, n, _BLOCK_RAYS):
            target = np.arange(lo, min(lo + _BLOCK_RAYS, n))
            end = self._build_block(target, cols, rows, end)
        np.cumsum(self.offsets, out=self.offsets)
        # shrink in place to the kept entries
        self.cells.resize(end, refcheck=False)
        self.minz.resize(end, refcheck=False)

    def _build_block(self, target: np.ndarray, cols, rows, end: int) -> int:
        """Write the rays to flat cells `target` from table entry `end`; returns the new end.

        `cols` and `rows` are the per-column and per-row crossing tables of
        _crossings. Each ray's row of piece ends, 0, its crossings and 1, is
        sorted; every crossing lies strictly inside (0, 1), so the ray's
        pieces are the first ncx + ncy + 1 gaps of its row and the padding
        sorts past them. offsets[k + 1] gets ray k's entry count.
        """
        nx, ny = self.nx, self.ny
        ox, oy = self.origin[0] / self.cell_size_m, self.origin[1] / self.cell_size_m
        oz, tz = self.origin[2], self.target_z
        ix, iy = target // ny, target % ny
        (xt, ncx, dx), (yt, ncy, dy) = cols, rows
        mx, my = int(ncx[ix].max()), int(ncy[iy].max())
        t = np.empty((len(target), mx + my + 2))
        t[:, 0] = 0.0
        t[:, 1:mx + 1] = xt[:, :mx][ix]
        t[:, mx + 1:-1] = yt[:, :my][iy]
        t[:, -1] = 1.0
        t.sort(axis=1)
        # each ray's pieces (t0, t1) as one flat run
        pieces = ncx[ix] + ncy[iy] + 1
        at, start = _ranges(np.arange(len(target)) * t.shape[1], pieces)
        t = t.ravel()
        t0, t1 = t[at], t[at + 1]
        tm = 0.5 * (t0 + t1)
        cx = (ox + tm * np.repeat(dx[ix], pieces)).astype(np.int32)
        cy = (oy + tm * np.repeat(dy[iy], pieces)).astype(np.int32)
        cell = np.clip(cx, 0, nx - 1, out=cx)
        cell *= ny
        cell += np.clip(cy, 0, ny - 1, out=cy)
        origin_cell = min(max(int(ox), 0), nx - 1) * ny + min(max(int(oy), 0), ny - 1)
        good = (t1 - t0 > _CORNER_EPS) & (cell != origin_cell)
        good &= cell != np.repeat(target.astype(np.int32), pieces)
        counts = np.add.reduceat(good, start, dtype=np.int64)
        self.offsets[target + 1] = counts
        keep = slice(end, end + int(counts.sum()))
        self.cells[keep] = cell[good]
        # z is monotone in t, so a piece's lowest point is one of its ends
        minz = np.multiply((t0 if tz >= oz else t1)[good], tz - oz, out=self.minz[keep])
        minz += oz
        return keep.stop

    def classify_subset(self, rays: np.ndarray, known: np.ndarray,
                        heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(blocked, crosses_unknown) per given flat ray index, on a partially known grid.

        With every cell known the blocked mask is the truth verdict. Rays are
        classified _BLOCK_RAYS at a time, so the per-crossing temporaries stay
        small however many rays one call asks for.
        """
        rays = np.asarray(rays, dtype=np.int64)
        blocked = np.zeros(len(rays), dtype=bool)
        crosses = np.zeros(len(rays), dtype=bool)
        known, heights = known.ravel(), heights.ravel()
        for lo in range(0, len(rays), _BLOCK_RAYS):
            part = slice(lo, lo + _BLOCK_RAYS)
            self._classify_block(rays[part], known, heights, blocked[part], crosses[part])
        return blocked, crosses

    def _classify_block(self, rays, known, heights, blocked, crosses):
        """Write the verdicts of `rays` into the views `blocked` and `crosses`.

        Each ray is reduced over its own gathered crossings. Rays with no
        crossing keep (False, False) and are left out, because reduceat reads
        an empty segment as the element at its start.
        """
        lo = self.offsets[rays]
        counts = self.offsets[rays + 1] - lo
        some = counts > 0
        lo, counts = lo[some], counts[some]
        if not len(counts):
            return
        if (np.diff(rays) == 1).all():  # one run of the table
            at, start = slice(lo[0], lo[-1] + counts[-1]), lo - lo[0]
        else:  # table entries, each ray's first gathered one
            at, start = _ranges(lo, counts)
        c = self.cells[at].astype(np.intp)  # numpy gathers slower by an int32 index
        k = known[c]
        hit = k & (heights[c] > self.minz[at])
        b = np.logical_or.reduceat(hit, start)
        blocked[some] = b
        crosses[some] = ~b & ~np.logical_and.reduceat(k, start)

    def rays_crossing(self, cells: np.ndarray) -> np.ndarray:
        """Flat indices of the rays that cross any of the given flat cells.

        A ray is listed once for each given cell it crosses, in no particular
        order. Endpoint cells are not crossings, as in classify_subset.
        """
        if self._inverse is None:
            n = self.nx * self.ny
            # the ray -> cells table as a sparse matrix; its CSC form is the
            # cell -> rays index, made by a counting sort in compiled code
            inverse = sparse.csr_array(
                (np.ones(len(self.cells), dtype=bool), self.cells,
                 self.offsets.astype(np.int32)), shape=(n, n)).tocsc()
            self._inverse = (inverse.indptr, inverse.indices)
        offsets, rays = self._inverse
        cells = np.asarray(cells, dtype=np.intp)
        lo = offsets[cells]
        return rays[_ranges(lo, offsets[cells + 1] - lo)[0]]
