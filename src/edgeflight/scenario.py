"""Procedural city scenarios and the grid geometry every layer shares.

The world is a 2.5D height field on a regular square grid. Buildings sit on a
Manhattan-style block pattern: square blocks of constant height separated by
streets, one i.i.d. Rayleigh-distributed height per block, streets at height 0.

Every layer's grid geometry is defined here once: the cell lookup, the
clipped disk window, the offsets to cell centres and the planner's moves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import ConfigError, ScenarioError, require

Point3 = np.ndarray  # shape (3,), meters

# Most ray-table entries a scenario may need: n_bs tables of cells x (nx + ny)
# crossings at worst, 12 bytes each (int32 cell, float64 altitude).
_MAX_RAY_TABLE_ENTRIES = 2**27

# Rayleigh draws are scale * sqrt(-2 log1p(-u)) with u < 1; this is the
# factor at the largest u a PCG64 uniform takes, 1 - 2**-53.
_RAYLEIGH_TOP = math.sqrt(-2.0 * math.log1p(-(1.0 - 2.0**-53)))

# Draws of the base-station sites, and then of the endpoints, before placement fails.
_PLACEMENT_TRIES = 200


def _check_whole_cells(name: str, extent: float, s: float) -> None:
    """Reject a scenario length that is not a whole, positive number of cells."""
    n = extent / s
    if not math.isfinite(n):
        raise ConfigError(
            f"scenario.{name} / scenario.cell_size_m ({extent!r} / {s!r}) is not a finite "
            "number of cells; raise scenario.cell_size_m")
    if round(n) < 1 or abs(n - round(n)) > 1e-9:
        raise ConfigError(
            f"scenario.{name} ({extent!r} m) must be a whole, positive number of cells of "
            f"scenario.cell_size_m ({s!r} m)")


@dataclass(frozen=True)
class ScenarioConfig:
    """World geometry and placement parameters.

    Distances are meters. The map spans [0, map_size_m[0]) x [0, map_size_m[1])
    with cell (ix, iy) covering [ix*s, (ix+1)*s) x [iy*s, (iy+1)*s).
    """

    map_size_m: tuple[float, float] = (400.0, 400.0)
    cell_size_m: float = 5.0
    rayleigh_scale_m: float = 35.0
    building_footprint_m: float = 15.0
    street_width_m: float = 30.0
    n_bs: int = 3
    bs_height_m: float = 25.0
    uav_altitude_m: float = 50.0
    endpoint_distance_m: tuple[float, float] = (200.0, 400.0)
    rng_seed: int = 0

    def __post_init__(self):
        w, d = self.map_size_m
        s = self.cell_size_m
        require("scenario", self, lambda v: v > 0, "positive", "cell_size_m")
        require("scenario", self, lambda v: min(v) > 0, "positive", "map_size_m")
        for extent in (w, d):
            _check_whole_cells("map_size_m", extent, s)
        nx, ny = self.width_cells, self.depth_cells
        entries = self.n_bs * nx * ny * (nx + ny)
        if entries > _MAX_RAY_TABLE_ENTRIES:
            raise ConfigError(
                f"{self.n_bs} ray tables over {nx} x {ny} cells need up to {entries} "
                f"entries, more than the budget of {_MAX_RAY_TABLE_ENTRIES}; reduce "
                "scenario.n_bs or scenario.map_size_m or raise scenario.cell_size_m")
        require("scenario", self, lambda v: v >= 0, ">= 0", "rayleigh_scale_m")
        # the tallest draw comes from the largest uniform, 1 - 2**-53: about
        # 8.57 scales; the margin covers the last bits of numpy's log1p
        tallest = self.rayleigh_scale_m * _RAYLEIGH_TOP * (1.0 + 1e-12)
        if not math.isfinite(tallest):
            raise ConfigError(
                f"scenario.rayleigh_scale_m = {self.rayleigh_scale_m!r} m draws buildings up "
                f"to {tallest!r} m tall, not a finite float; lower scenario.rayleigh_scale_m")
        require("scenario", self, lambda v: v > 0, "positive",
                "building_footprint_m", "street_width_m")
        period = self.building_footprint_m + self.street_width_m
        if period > min(w, d):
            raise ConfigError(
                f"scenario.building_footprint_m + scenario.street_width_m ({period!r} m) "
                f"exceeds scenario.map_size_m ({self.map_size_m!r})")
        for name in ("building_footprint_m", "street_width_m"):
            _check_whole_cells(name, getattr(self, name), s)
        require("scenario", self, lambda v: v >= 1, "at least 1", "n_bs")
        require("scenario", self, lambda v: v > 0, "positive", "bs_height_m", "uav_altitude_m")
        # every squared BS-to-vehicle distance is at most three times the
        # square of the largest of these lengths, so it stays finite
        for name, length in (("map_size_m", max(w, d)), ("bs_height_m", self.bs_height_m),
                             ("uav_altitude_m", self.uav_altitude_m)):
            if not math.isfinite(3.0 * length * length):
                raise ConfigError(
                    f"scenario.{name} = {length!r} m is too large: squared distances "
                    "overflow a float")
        require("scenario", self, lambda v: 0 < v[0] <= v[1], "a range lo, hi with 0 < lo <= hi",
                "endpoint_distance_m")
        require("scenario", self, lambda v: v >= 0, ">= 0", "rng_seed")

    @property
    def width_cells(self) -> int:
        return int(round(self.map_size_m[0] / self.cell_size_m))

    @property
    def depth_cells(self) -> int:
        return int(round(self.map_size_m[1] / self.cell_size_m))


def grid_cell(point, cell_size_m: float, nx: int, ny: int) -> tuple[int, int]:
    """Cell (ix, iy) of an nx x ny grid holding an (x, y[, z]) point.

    Points off the grid clip to its border cells. This is the one cell
    lookup, behind `HeightField.cell_of` and the tick's. The coordinates are
    read as Python floats, whose floor division gives the bits numpy's gives
    on float64, without a numpy scalar per call.
    """
    ix = int(float(point[0]) // cell_size_m)
    iy = int(float(point[1]) // cell_size_m)
    return (0 if ix < 0 else nx - 1 if ix >= nx else ix,
            0 if iy < 0 else ny - 1 if iy >= ny else iy)


def disk_window(point, radius_m: float, cell_size_m: float, nx: int, ny: int):
    """Grid-clipped (x, y) slices holding each cell centred within radius_m of a point, or None."""
    px, py = float(point[0]), float(point[1])
    ix0 = max(int((px - radius_m) // cell_size_m), 0)
    ix1 = min(int((px + radius_m) // cell_size_m) + 1, nx)
    iy0 = max(int((py - radius_m) // cell_size_m), 0)
    iy1 = min(int((py + radius_m) // cell_size_m) + 1, ny)
    if ix0 >= ix1 or iy0 >= iy1:
        return None
    return slice(ix0, ix1), slice(iy0, iy1)


def centre_offsets(point, cell_size_m: float, win) -> tuple[np.ndarray, np.ndarray]:
    """(dx (n, 1), dy (1, m)): offsets from a point to the cell centres of a `disk_window`."""
    dx = (np.arange(win[0].start, win[0].stop) + 0.5)[:, None] * cell_size_m - float(point[0])
    dy = (np.arange(win[1].start, win[1].stop) + 0.5)[None, :] * cell_size_m - float(point[1])
    return dx, dy


_SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=1)
def lattice_edges(nx: int, ny: int) -> tuple[np.ndarray, ...]:
    """Flat (u, v, step) arrays of the planner's moves, sorted by u, then v.

    `step` is a move's length in cells, 1 or sqrt(2). In this canonical CSR
    order a cost-field rebuild keeps the edges out of free cells as the
    graph's CSR arrays directly: with indptr the running count of kept
    edges per source, they equal coo.tocsr() of the same edges (no pair
    occurs twice), and a weight computed per edge has the same bits in any
    order. The last grid's arrays are shared and read-only.
    """
    idx = np.arange(nx * ny).reshape(nx, ny)
    us, vs, steps = [], [], []
    for ddx, ddy, dd in ((-1, -1, _SQRT2), (-1, 0, 1.0), (-1, 1, _SQRT2),
                         (0, -1, 1.0), (0, 1, 1.0),
                         (1, -1, _SQRT2), (1, 0, 1.0), (1, 1, _SQRT2)):
        u = idx[max(0, -ddx):nx - max(0, ddx),
                max(0, -ddy):ny - max(0, ddy)].ravel()
        us.append(u)
        vs.append(u + ddx * ny + ddy)
        steps.append(np.full(len(u), dd))
    u, v = np.concatenate(us), np.concatenate(vs)
    order = np.lexsort((v, u))
    edges = u[order], v[order], np.concatenate(steps)[order]
    for a in edges:
        a.flags.writeable = False
    return edges


class HeightField:
    """Immutable per-cell building heights, indexed heights[ix, iy]."""

    def __init__(self, heights: np.ndarray, cell_size_m: float):
        heights = np.asarray(heights, dtype=float).copy()
        heights.flags.writeable = False
        self.heights = heights
        self.cell_size_m = float(cell_size_m)

    @property
    def width_cells(self) -> int:
        return self.heights.shape[0]

    @property
    def depth_cells(self) -> int:
        return self.heights.shape[1]

    def cell_of(self, point) -> tuple[int, int]:
        """Grid cell containing an (x, y[, z]) point; boundary points clip inward."""
        return grid_cell(point, self.cell_size_m, *self.heights.shape)

    def cell_center(self, ix: int, iy: int) -> np.ndarray:
        s = self.cell_size_m
        return np.array([(ix + 0.5) * s, (iy + 0.5) * s])


@dataclass
class Scenario:
    """A fully instantiated world: truth map, base stations, mission endpoints."""

    cfg: ScenarioConfig
    truth: HeightField
    bs_positions: list[Point3]
    serving_bs: int
    start: Point3
    goal: Point3
    # lazily filled per-(BS, layer) ray tables and truth NLoS masks, see linkfield
    _ray_tables: dict = field(default_factory=dict, repr=False)
    _truth_masks: dict = field(default_factory=dict, repr=False)


def _block_slices(n_cells: int, footprint_c: int, street_c: int) -> list[slice]:
    """Cell index ranges covered by blocks along one axis.

    The repeating unit is footprint + street; the pattern is centered so the
    border streets are half width (plus any remainder split evenly).
    """
    period = footprint_c + street_c
    n_blocks = n_cells // period
    used = n_blocks * period
    margin = (n_cells - used + street_c) // 2
    out = []
    for b in range(n_blocks):
        lo = margin + b * period
        out.append(slice(lo, lo + footprint_c))
    return out


def sample_building_heights(rng: np.random.Generator, scale: float, n: int) -> np.ndarray:
    """Rayleigh(scale) samples via inverse CDF over PCG64 uniforms."""
    u = rng.random(n)
    return scale * np.sqrt(-2.0 * np.log1p(-u))


def generate_city(cfg: ScenarioConfig, rng: np.random.Generator) -> HeightField:
    """Build the truth height field for one city instance.

    Args:
        cfg: validated scenario parameters.
        rng: generator that owns the scenario's random stream.

    Returns:
        HeightField spanning exactly cfg.map_size_m.
    """
    nx, ny = cfg.width_cells, cfg.depth_cells
    s = cfg.cell_size_m
    fp_c = int(round(cfg.building_footprint_m / s))
    st_c = int(round(cfg.street_width_m / s))
    cols = _block_slices(nx, fp_c, st_c)
    rows = _block_slices(ny, fp_c, st_c)
    heights = np.zeros((nx, ny))
    draws = sample_building_heights(rng, cfg.rayleigh_scale_m, len(cols) * len(rows))
    k = 0
    for cs in cols:
        for rs in rows:
            heights[cs, rs] = draws[k]
            k += 1
    return HeightField(heights, s)


def street_mask(field_: HeightField) -> np.ndarray:
    return field_.heights == 0.0


def inflate_obstacles(blocked: np.ndarray, margin_cells: int) -> np.ndarray:
    """Cells within `margin_cells` Chebyshev steps of a blocked cell.

    Diagonal moves graze corners, so diagonal neighbours get the margin too.
    Both the planner's forbidden mask and endpoint placement use this shell.
    The square of side 2m + 1 is the product of two segments, so the shell
    is a run of 2m + 1 shifted ORs along x, then along y, over a copy padded
    with m free cells on each side. A margin of 0 returns `blocked` itself.
    """
    if margin_cells <= 0:
        return blocked
    nx, ny = blocked.shape
    m = min(margin_cells, max(nx, ny))  # a wider shell covers no more cells
    pad = np.zeros((nx + 2 * m, ny + 2 * m), dtype=bool)
    pad[m:m + nx, m:m + ny] = blocked
    along_x = pad[:nx].copy()
    for d in range(1, 2 * m + 1):
        along_x |= pad[d:d + nx]
    out = along_x[:, :ny].copy()
    for d in range(1, 2 * m + 1):
        out |= along_x[:, d:d + ny]
    return out


def free_components(free: np.ndarray) -> np.ndarray:
    """Per-cell label of the 8-connected component of `free` holding it.

    The components are taken over the planner's moves, `lattice_edges`, so
    two free cells share a label exactly when a path of free cells joins
    them. Blocked cells get labels of their own.
    """
    nx, ny = free.shape
    u, v, _ = lattice_edges(nx, ny)
    flat = free.ravel()
    both = flat[u] & flat[v]
    graph = sparse.coo_array((np.ones(both.sum(), dtype=bool), (u[both], v[both])),
                             shape=(nx * ny,) * 2)
    return csgraph.connected_components(graph, directed=False)[1].reshape(nx, ny)


def place_bs_and_endpoints(
    cfg: ScenarioConfig, field_: HeightField, rng: np.random.Generator,
    margin_cells: int,
) -> tuple[list[Point3], int, Point3, Point3]:
    """Sample BS sites and mission endpoints under the placement constraints.

    BSs sit on distinct street cells, pairwise separated by at least a quarter
    of the map diagonal. Start and goal sit on cell centers at flight altitude,
    outside the planner's obstacle shell of `margin_cells` cells, with
    straight-line separation inside the configured range, and joined by a
    path of free cells. The serving BS is the one nearest the start.
    `margin_cells` is `planner.safety_margin_cells`.

    Raises:
        ScenarioError: constraints not satisfiable within _PLACEMENT_TRIES draws.
    """
    s = cfg.cell_size_m
    diag = float(np.hypot(*cfg.map_size_m))
    min_sep = diag / 4.0

    streets = np.argwhere(street_mask(field_))
    if len(streets) < cfg.n_bs:
        raise ScenarioError(
            f"not enough street cells ({len(streets)}) for scenario.n_bs = {cfg.n_bs}")

    bs_xy = None
    for _ in range(_PLACEMENT_TRIES):
        picks = streets[rng.choice(len(streets), size=cfg.n_bs, replace=False)]
        xy = (picks + 0.5) * s
        d = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=-1)
        if cfg.n_bs == 1 or d[np.triu_indices(cfg.n_bs, k=1)].min() >= min_sep:
            bs_xy = xy
            break
    if bs_xy is None:
        raise ScenarioError(f"could not separate scenario.n_bs = {cfg.n_bs} base stations by "
                            f"a quarter diagonal ({min_sep:.6g} m)")
    bs_positions = [np.array([x, y, cfg.bs_height_m]) for x, y in bs_xy]

    free = ~inflate_obstacles(field_.heights >= cfg.uav_altitude_m, margin_cells)
    free_cells = np.argwhere(free)
    if len(free_cells) < 2:
        raise ScenarioError(
            "no collision-free cells at flight altitude, scenario.uav_altitude_m = "
            f"{cfg.uav_altitude_m}, outside planner.safety_margin_cells = {margin_cells}")
    lo, hi = cfg.endpoint_distance_m
    centers = (free_cells + 0.5) * s
    label = free_components(free)[free]

    start = goal = None
    for _ in range(_PLACEMENT_TRIES):
        i = int(rng.integers(len(free_cells)))
        d = np.linalg.norm(centers - centers[i], axis=1)
        ring = np.nonzero((d >= lo - 1e-9) & (d <= hi + 1e-9))[0]
        if len(ring) == 0:
            continue
        j = int(ring[rng.integers(len(ring))])
        if label[j] != label[i]:
            continue  # no path of free cells joins them: draw again
        start = np.array([*centers[i], cfg.uav_altitude_m])
        goal = np.array([*centers[j], cfg.uav_altitude_m])
        break
    if start is None:
        raise ScenarioError("could not place endpoints joined by free cells, outside "
                            f"planner.safety_margin_cells = {margin_cells}, and "
                            f"scenario.endpoint_distance_m = {[lo, hi]} m apart")

    serving = int(np.argmin([np.linalg.norm(p[:2] - start[:2]) for p in bs_positions]))
    return bs_positions, serving, start, goal


def build_scenario(cfg: ScenarioConfig, margin_cells: int = 1) -> Scenario:
    """Generate a reproducible scenario from cfg.rng_seed.

    `margin_cells` is the planner's safety margin, so no endpoint lies in
    its forbidden shell.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.rng_seed)))
    field_ = generate_city(cfg, rng)
    bs_positions, serving, start, goal = place_bs_and_endpoints(cfg, field_, rng, margin_cells)
    return Scenario(cfg, field_, bs_positions, serving, start, goal)
