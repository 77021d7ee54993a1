"""Incrementally learned radio map of the flight layer toward the serving BS.

The vehicle flies at one altitude and measures one serving BS, so the map is
one dense grid over the flight layer: `state_grid` holds a link-state code
per map cell, MISSING until the cell is first estimated. The map keeps
states only; the explored planner arm prices them. A map bound to a fully
known explored map has nothing to learn, so it estimates every cell once
at construction and holds no missing cell. Cells whose ray to the BS
crosses only explored free cells are LoS; rays crossing a known obstacle are
NLoS and stay NLoS (sticky); rays touching unexplored cells are assumed LoS
until the area is explored or measured. Rays are classified through the
BS's precomputed RayTable.

Refreshes are event-driven and mark dirty only the rays whose verdict can
have changed. Known heights are truth and knowledge only grows, so over time
a ray's "blocked" can only switch on and its "crosses unknown" only switch
off. An assumed-LoS verdict therefore changes only when a learned crossing
blocks the ray or when the ray's last unknown crossing turns known. A map
that can learn counts each ray's table entries over cells not yet known.
Each refresh first takes the cells learned since the last one off those
counts, and marks dirty the rays whose count reaches 0 and the rays crossing
a learned cell tall enough to block any ray of the table. It then
classifies only the stale cells that are missing or whose ray is dirty. On
an unchanged map nothing is classified.
"""

from __future__ import annotations

import numpy as np

from .channel import LinkState
from .worldmap import ExploredMap, RayTable

_STATE_CODE = {LinkState.LOS: 0, LinkState.NLOS: 1, LinkState.ASSUMED_LOS: 2}
_CODE_STATE = {v: k for k, v in _STATE_CODE.items()}
MISSING = -1
_LOS = _STATE_CODE[LinkState.LOS]
_NLOS = _STATE_CODE[LinkState.NLOS]
_ASSUMED = _STATE_CODE[LinkState.ASSUMED_LOS]


class RadioMap:
    """Flight-layer link-state estimates bound to one explored map and one BS.

    The BS position and the layer height are the ray table's origin and
    target altitude.
    """

    def __init__(self, table: RayTable, explored: ExploredMap, sticky_nlos: bool = True):
        self.table = table
        self.explored = explored
        self.sticky_enabled = bool(sticky_nlos)
        nx, ny = explored.width_cells, explored.depth_cells
        self.state_grid = np.full((nx, ny), MISSING, dtype=np.int8)
        # The explored cells as of the last refresh, and per estimated cell
        # whether its state may differ from its ray's verdict on the current
        # map. Knowledge is monotone, so a fully known map learns nothing.
        self._known_seen = None if explored.known.all() else explored.known.copy()
        self._dirty = np.zeros((nx, ny), dtype=bool)
        if self._known_seen is None:
            self._refresh(np.arange(nx * ny))
            return
        # per ray, its table entries over cells not yet known; a ray is
        # listed once per entry, and subtract.at counts every listing
        self._unknown = np.diff(table.offsets)
        np.subtract.at(self._unknown, table.rays_crossing(np.flatnonzero(self._known_seen)), 1)
        # a cell no taller than every entry's minz blocks no ray
        self._low = float(table.minz.min(initial=np.inf))

    def _due(self, win) -> np.ndarray:
        """Mask of the cells in window `win` that a refresh must classify.

        Due are the missing cells, and the assumed-LoS and, unless sticky,
        NLoS cells whose ray is dirty. LoS came from rays over explored cells
        only, and explored knowledge is monotone, so re-classifying it would
        confirm it. First marks dirty the rays whose verdict the cells
        learned since the last call can change: those left with no unknown
        crossing, and those crossing a learned cell taller than the lowest
        minz of the table, which alone can block. A ray that still crosses an
        unknown cell and meets only low learned cells keeps its verdict, so
        it is not marked; on a flat map that is every ray still crossing an
        unknown cell.
        """
        if self._known_seen is not None:
            known = self.explored.known
            learned = np.flatnonzero(known != self._known_seen)
            if len(learned):
                self._known_seen[:] = known
                dirty = self._dirty.reshape(-1)
                rays = self.table.rays_crossing(learned)
                np.subtract.at(self._unknown, rays, 1)
                dirty[rays[self._unknown[rays] == 0]] = True
                tall = learned[self.explored.heights.ravel()[learned] > self._low]
                if len(tall):
                    dirty[self.table.rays_crossing(tall)] = True
        codes = self.state_grid[win]
        stale = codes == _ASSUMED
        if not self.sticky_enabled:
            stale |= codes == _NLOS
        return (codes == MISSING) | (stale & self._dirty[win])

    def _refresh(self, idx: np.ndarray) -> None:
        """Re-classify the rays to the given flat cells against the explored map."""
        if len(idx) == 0:
            return
        blocked, crosses = self.table.classify_subset(
            idx, self.explored.known, self.explored.heights
        )
        self.state_grid.reshape(-1)[idx] = np.where(blocked, _NLOS,
                                                     np.where(crosses, _ASSUMED, _LOS))
        self._dirty.reshape(-1)[idx] = False

    def update_around(self, around, radius_m: float) -> None:
        """Re-estimate every missing or dirty stale cell within radius of `around`.

        A map fully known at construction has no missing cell and, since
        nothing is unknown, no assumed-LoS one; with sticky NLoS those are
        the only stale states, so no cell can ever be due and the call
        returns at once.
        """
        if self._known_seen is None and self.sticky_enabled:
            return
        s = self.explored.cell_size_m
        nx, ny = self.state_grid.shape
        px, py = float(around[0]), float(around[1])
        ix0 = max(int((px - radius_m) // s), 0)
        ix1 = min(int((px + radius_m) // s) + 1, nx)
        iy0 = max(int((py - radius_m) // s), 0)
        iy1 = min(int((py + radius_m) // s) + 1, ny)
        if ix0 >= ix1 or iy0 >= iy1:
            return
        due = self._due(np.s_[ix0:ix1, iy0:iy1])
        if not due.any():
            return
        cx = (np.arange(ix0, ix1) + 0.5) * s - px
        cy = (np.arange(iy0, iy1) + 0.5) * s - py
        inside = np.hypot(cx[:, None], cy[None, :]) <= radius_m
        i, j = np.nonzero(inside & due)
        self._refresh((i + ix0) * ny + (j + iy0))

    def ensure_layer_evaluated(self) -> None:
        """Bring every flight-layer cell up to date with the explored map.

        Missing cells get a first estimate; assumed-LoS cells whose rays
        were marked dirty since their last estimate are re-estimated, since
        geometry discovered anywhere along a ray can disprove the assumption
        long before the vehicle gets near. Without sticky NLoS a measured
        NLoS cell also returns to its estimate from the explored map. On an
        unchanged map nothing is classified.
        """
        self._refresh(np.flatnonzero(self._due(np.s_[:])))

    def csi_correct(self, position, measured: LinkState) -> None:
        """Overwrite the current cell with a measured LoS/NLoS state.

        Raises:
            ValueError: measured state is not a physical measurement.
        """
        if measured not in (LinkState.LOS, LinkState.NLOS):
            raise ValueError("CSI measurement must be LoS or NLoS")
        ix, iy = self.explored.cell_of(position)
        code = _STATE_CODE[measured]
        prev = self.state_grid[ix, iy]
        if prev == code or (prev == _NLOS and self.sticky_enabled):
            return
        self.state_grid[ix, iy] = code
        self._dirty[ix, iy] = True  # a measurement, not the ray's verdict

    def state_at(self, point) -> LinkState | None:
        """Estimated state of the cell holding `point`; None if never estimated."""
        code = int(self.state_grid[self.explored.cell_of(point)])
        return None if code == MISSING else _CODE_STATE[code]
