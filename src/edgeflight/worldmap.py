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
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import require
from .scenario import HeightField, centre_offsets, disk_window

# Ties in the traversal parameter below this width are exact corner touches;
# the segment has zero extent inside the off-diagonal cells, so they are not
# visited. Genuine chords between cell-center endpoints are many orders wider.
_CORNER_EPS = 1e-12

# Rays per RayTable build and cut.
_BLOCK_RAYS = 256

# Table entries per chunk of a classification: the chunk's intp and float64
# temporaries take 64 KiB each, half glibc's default mmap threshold.
_RUN_CHUNK = 8192

# (key, corner half table) of the last RayTable cut: see RayTable._cut.
_half = None


def _ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges lo[i]:lo[i] + counts[i], concatenated."""
    return np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


def _crossings(p0: float, p1: np.ndarray) -> np.ndarray:
    """Row i: where the ray p0 -> p1[i] crosses one axis's grid lines, in t, padded with 2.0."""
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    k_lo = np.floor(lo).astype(int) + 1
    count = np.maximum(np.ceil(hi).astype(int) - k_lo, 0)
    m = int(count.max())
    k = k_lo[:, None] + np.arange(m)[None, :]
    valid = np.arange(m)[None, :] < count[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(valid, (k - p0) / (p1 - p0)[:, None], 2.0)


class ExploredMap:
    """Monotone per-cell knowledge of the truth field.

    Attributes:
        known: bool array, True where the cell height has been observed.
        heights: observed heights, only meaningful where known.
        cell_size_m: grid resolution.
        complete: True once `sense` has found every cell known; from then on
            it returns at once.
    """

    def __init__(self, width_cells: int, depth_cells: int, cell_size_m: float):
        self.known = np.zeros((width_cells, depth_cells), dtype=bool)
        self.heights = np.zeros((width_cells, depth_cells))
        self.cell_size_m = float(cell_size_m)
        self.complete = False

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


@dataclass(frozen=True)
class SensorModel:
    """Noiseless forward camera: FoV in degrees, range in meters."""

    fov_deg: float = 120.0
    range_m: float = 50.0

    def __post_init__(self):
        require("sensor", self, lambda v: 0 < v <= 360, "in (0, 360]", "fov_deg")
        require("sensor", self, lambda v: v > 0, "positive", "range_m")


def sense(truth: HeightField, explored: ExploredMap, position, heading_deg: float,
          sensor: SensorModel) -> ExploredMap:
    """Reveal every cell whose center lies in the sensor wedge; returns `explored`.

    Knowledge is monotone and noiseless: revealed cells take their truth height
    and stay known. Heading follows math convention (degrees, 0 = +x, CCW).
    Only this function and `ExploredMap.fully_known` write an explored map, so
    a known cell already holds its truth height; when every cell of the
    sensor's bounding window is known, the wedge would change nothing and is
    not built. That return also marks the map `complete` once every cell is
    known, and a complete map returns before its window is built.
    """
    if explored.complete:
        return explored
    s = truth.cell_size_m
    win = disk_window(position, sensor.range_m, s, truth.width_cells, truth.depth_cells)
    if win is None or explored.known[win].all():
        explored.complete = bool(explored.known.all())
        return explored
    dx, dy = centre_offsets(position, s, win)
    dist = np.hypot(dx, dy)
    vis = dist <= sensor.range_m
    if sensor.fov_deg < 360.0:
        ang = np.degrees(np.arctan2(dy, dx))
        diff = (ang - heading_deg + 180.0) % 360.0 - 180.0
        vis &= np.abs(diff) <= sensor.fov_deg / 2.0
        vis |= dist < 1e-9  # own cell: bearing undefined
    explored.known[win] |= vis
    explored.heights[win] = np.where(vis, truth.heights[win], explored.heights[win])
    return explored


class RayTable:
    """Precomputed crossings for rays from one origin to every cell center.

    Ray k's crossed cells (endpoint cells excluded) and the minimum segment
    altitude inside each are entries offsets[k]:offsets[k + 1] of `cells`
    and `minz`. `cells` holds int32 flat indices; ScenarioConfig's table
    budget keeps every scenario grid far below 2**31 cells.

    Tracing (_build) is one plain loop over blocks of _BLOCK_RAYS rays, each
    padded to its own longest ray, so its temporaries grow with nx + ny, not
    with the cell count; it runs once per process for the half table below
    and for any origin off a cell centre.

    An origin at the exact centre of a grid cell, as every scenario base
    station is, is not traced but cut (_cut). From a cell centre the ray to
    offset (dx, dy) crosses its grid lines at t = (m - 0.5) / |dx| and
    (m - 0.5) / |dy| whatever the signs, so every such table of one grid and
    altitude pair is one corner-origin table reflected, translated and, where
    |dx| > |dy|, mirrored in the diagonal. Only that table's rays to offsets
    (a, b) with a <= b are traced, once per process for the last grid and
    altitude pair, on a min(nx, ny) × max(nx, ny) grid; on the default
    80×80 map it holds 247,243 entries, about 4 MB. Reflection and the swap
    keep every t, hence the row sort, the corner filter and minz. A kept
    piece's midpoint lies at least 1 / (4·max(|dx|, |dy|)) cell widths from
    any grid line, so the cut's cells equal the traced ones bit for bit.
    Any other origin is traced.

    classify_subset, one gather and one logical-or per ray, is the only
    classifier, for truth and partial maps alike, and `_classify` its one
    kernel. It reads the rays' entries in chunks of whole rays: one
    contiguous run of rays owns one contiguous run of entries, read as
    slices; any other rays gather their ranges. It reads only what can still
    change a verdict: on a fully known grid no knowledge (no ray crosses an
    unknown cell), and where no height exceeds `low`, the lowest entry
    altitude (minz) of the table, no heights (no entry is blocked); a fully
    known grid with no such height is answered without a scan. Its verdicts
    follow the contract in the module docstring and are checked against the
    scalar cell-by-cell walk in tests/oracles.py.

    rays_crossing answers the inverse question, which rays cross a cell,
    from a cell -> rays index in the same CSR layout: the table's transpose,
    built by scipy's counting sort into int32 arrays. The index is built on
    its first call, so a table read only by fully known maps never holds it.
    """

    def __init__(self, origin, nx: int, ny: int, cell_size_m: float, target_z: float):
        self.origin = np.asarray(origin, dtype=float)
        self.nx, self.ny = nx, ny
        self.cell_size_m = float(cell_size_m)
        self.target_z = float(target_z)
        self._inverse = None  # (offsets, rays) of the cell -> rays index
        ox, oy = self.origin[:2] / self.cell_size_m
        i0, j0 = np.floor(ox), np.floor(oy)
        if ox - i0 == 0.5 and oy - j0 == 0.5 and 0 <= i0 < nx and 0 <= j0 < ny:
            self._cut(int(i0), int(j0))
        else:
            self._build(np.arange(nx * ny))

    def _build(self, targets: np.ndarray):
        """Fill the table by tracing the rays to the flat cells `targets`, in increasing order.

        Each ray's row of piece ends, 0, its grid-line crossings and 1, is
        sorted; its pieces are the gaps wider than a corner touch that end by
        t = 1, so the 2.0 padding drops out. Every other ray gets no entry.
        """
        s, nx, ny = self.cell_size_m, self.nx, self.ny
        ox, oy, oz = self.origin[0] / s, self.origin[1] / s, self.origin[2]
        tz = self.target_z
        origin_cell = min(max(int(ox), 0), nx - 1) * ny + min(max(int(oy), 0), ny - 1)
        self.offsets = np.zeros(nx * ny + 1, dtype=np.int64)
        cells, minz = [], []
        for lo in range(0, len(targets), _BLOCK_RAYS):
            target = targets[lo:lo + _BLOCK_RAYS]
            tx, ty = target // ny + 0.5, target % ny + 0.5
            ends = np.zeros((len(target), 1))
            t = np.concatenate([ends, _crossings(ox, tx), _crossings(oy, ty), ends + 1.0], axis=1)
            t.sort(axis=1)
            t0, t1 = t[:, :-1], t[:, 1:]
            tm = 0.5 * (t0 + t1)
            cx = (ox + tm * (tx - ox)[:, None]).astype(np.int32)
            cy = (oy + tm * (ty - oy)[:, None]).astype(np.int32)
            cell = np.clip(cx, 0, nx - 1) * ny + np.clip(cy, 0, ny - 1)
            good = (t1 - t0 > _CORNER_EPS) & (t1 <= 1.0) & (cell != origin_cell)
            good &= cell != target[:, None]
            self.offsets[target + 1] = good.sum(axis=1)
            cells.append(cell[good])
            # z is monotone in t, so a piece's lowest point is one of its ends
            minz.append((t0 if tz >= oz else t1)[good] * (tz - oz) + oz)
        np.cumsum(self.offsets, out=self.offsets)
        self.cells = np.concatenate(cells)
        del cells  # before minz is joined, so the peak holds one block list
        self.minz = np.concatenate(minz)

    def _cut(self, i0: int, j0: int):
        """Fill the table from the corner half table, for an origin at cell (i0, j0)'s centre.

        Entry (u, v) of half-table ray (min(|dx|, |dy|), max(|dx|, |dy|)) is
        flat cell base + p·u + q·v, base the origin cell, with p, q in {±ny, ±1}
        swapped where |dx| > |dy|; its minz is copied.
        """
        nx, ny, n = self.nx, self.ny, self.nx * self.ny
        b = max(nx, ny)
        offsets, u, v, minz = _corner_half(min(nx, ny), b, float(self.origin[2]), self.target_z)
        dx = np.repeat(np.arange(nx) - i0, ny)
        dy = np.tile(np.arange(ny) - j0, nx)
        ax, ay = np.abs(dx), np.abs(dy)
        swap = ax > ay
        ray = np.where(swap, ay * b + ax, ax * b + ay)
        sx = np.where(dx < 0, -ny, ny).astype(np.int32)
        sy = np.where(dy < 0, -1, 1).astype(np.int32)
        p, q = np.where(swap, sy, sx), np.where(swap, sx, sy)
        lo = offsets[ray]
        counts = offsets[ray + 1] - lo
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.cells = np.empty(int(self.offsets[-1]), dtype=np.int32)
        self.minz = np.empty(len(self.cells))
        base = i0 * ny + j0
        for k in range(0, n, _BLOCK_RAYS):
            rays = slice(k, k + _BLOCK_RAYS)
            at = _ranges(lo[rays], counts[rays])
            keep = slice(self.offsets[k], self.offsets[min(k + _BLOCK_RAYS, n)])
            cell = np.multiply(np.repeat(p[rays], counts[rays]), u[at], out=self.cells[keep])
            cell += base
            cell += np.repeat(q[rays], counts[rays]) * v[at]
            # `at` is in range by construction; mode "raise" would buffer `out`
            np.take(minz, at, out=self.minz[keep], mode="clip")

    @cached_property
    def low(self) -> float:
        """The lowest entry altitude (minz) of the table, inf if it has no entry.

        A cell no taller than this blocks no ray. Computed on first use.
        """
        return float(self.minz.min(initial=np.inf))

    def classify_subset(self, rays: np.ndarray, known: np.ndarray,
                        heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(blocked, crosses_unknown) per given flat ray index, on a partially known grid.

        With every cell known the blocked mask is the truth verdict. The rays
        may come in any order and repeat; `_classify` reads their entries in
        chunks of about _RUN_CHUNK, so the per-crossing temporaries stay
        small however many rays one call asks for. A fully known grid reads
        no knowledge, and heights no greater than `low` are not read.
        """
        rays = np.asarray(rays, dtype=np.int64)
        blocked = np.zeros(len(rays), dtype=bool)
        crosses = np.zeros(len(rays), dtype=bool)
        known = None if known.all() else known.ravel()
        heights = heights.ravel() if np.max(heights, initial=-np.inf) > self.low else None
        if known is not None or heights is not None:
            self._classify(rays, known, heights, blocked, crosses)
        return blocked, crosses

    def _classify(self, rays, known, heights, blocked, crosses):
        """Write the verdicts of `rays` into `blocked` and `crosses`.

        The rays' entries are read in chunks of whole rays, each from the
        first ray to start at or after a multiple of _RUN_CHUNK entries: as a
        slice of the table when the rays are one contiguous run, gathered
        through `_ranges` otherwise. Each chunk writes its per-entry hits
        (and knowledge) into one array over the call, and one reduceat per
        array reduces every ray over its own entries. `known` None stands
        for a fully known grid, `heights` None for one where nothing blocks.
        """
        run = len(rays) and rays[-1] - rays[0] == len(rays) - 1 and (np.diff(rays) == 1).all()
        if run:  # ray i's entries: base + edge[i]:base + edge[i + 1] of the table
            base = int(self.offsets[rays[0]])
            edge = self.offsets[rays[0]:rays[-1] + 2] - base
        else:
            lo = self.offsets[rays]
            counts = self.offsets[rays + 1] - lo
            edge = np.zeros(len(rays) + 1, dtype=np.int64)
            np.cumsum(counts, out=edge[1:])
        start, total = edge[:-1], int(edge[-1])
        hit = None if heights is None else np.empty(total, dtype=bool)
        k = None if known is None else np.empty(total, dtype=bool)
        rows, ends = [0, len(rays)], [0, total]  # chunk bounds, in rays and in entries
        if total > _RUN_CHUNK:
            rows = np.searchsorted(start, np.arange(0, total, _RUN_CHUNK)).tolist()
            rows = list(dict.fromkeys([*rows, len(rays)]))
            ends = edge[rows].tolist()
        for r0, r1, e0, e1 in zip(rows, rows[1:], ends, ends[1:]):
            part = slice(e0, e1)
            at = slice(base + e0, base + e1) if run else _ranges(lo[r0:r1], counts[r0:r1])
            c = self.cells[at].astype(np.intp)  # numpy gathers slower by an int32 index
            if k is not None:
                np.take(known, c, out=k[part], mode="clip")  # c is in range
            if hit is not None:
                h = np.greater(heights[c], self.minz[at], out=hit[part])
                if k is not None:
                    h &= k[part]
        # rays with no crossing keep (False, False): reduceat would read their
        # empty segments as the entry at their start
        some = edge[1:] > start
        start = start[some]
        if hit is not None:
            blocked[some] = np.logical_or.reduceat(hit, start)
        if k is not None:
            crosses[some] = ~blocked[some] & ~np.logical_and.reduceat(k, start)

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
        return rays[_ranges(lo, offsets[cells + 1] - lo)]


def _corner_half(a: int, b: int, oz: float, tz: float):
    """(offsets, u, v, minz) of the corner half table of an a × b grid, a <= b.

    Its rays run from cell (0, 0)'s centre at altitude oz to cells (u, v),
    u <= v, at altitude tz; the other rays are empty. The cell size does not
    enter. The last table is kept for the next cut.
    """
    global _half
    key = (a, b, oz, tz)
    if _half is None or _half[0] != key:
        _half = None  # free the old table before building the new one
        corner = RayTable.__new__(RayTable)
        corner.origin, corner.cell_size_m, corner.target_z = np.array([0.5, 0.5, oz]), 1.0, tz
        corner.nx, corner.ny = a, b
        u, v = np.divmod(np.arange(a * b), b)
        corner._build(np.flatnonzero(u <= v))
        u, v = np.divmod(corner.cells, np.int32(b))
        _half = key, (corner.offsets, u, v, corner.minz)
    return _half[1]
