"""Incrementally learned radio map of the flight layer toward the serving BS.

The vehicle flies at one altitude and measures one serving BS, so the map is
one dense grid over the flight layer: `state_grid` holds a link-state code
per map cell, MISSING until the cell is first estimated. The map keeps
states only; the explored planner arm prices them. A map bound to a fully
known explored map has nothing to learn, so it estimates every cell once
at construction and holds no missing cell. Cells whose ray to the BS
crosses only explored free cells are LoS; rays crossing a known obstacle are
NLoS; rays touching unexplored cells are assumed LoS until the area is
explored or measured. Rays are classified through the BS's precomputed
RayTable. Known heights and measured states are truth, so a LoS or NLoS
state, once written, is final: only missing and assumed-LoS cells are ever
estimated again, and a measurement never overwrites NLoS.

Refreshes are event-driven and mark dirty only the rays whose verdict can
have changed. Known heights are truth and knowledge only grows, so over time
a ray's "blocked" can only switch on and its "crosses unknown" only switch
off. An assumed-LoS verdict therefore changes only when a learned crossing
blocks the ray or when the ray's last unknown crossing turns known. A map
that can learn counts each ray's table entries over cells not yet known.
Each refresh first takes the cells learned since the last intake off those
counts, and marks dirty the rays whose count reaches 0 and the rays crossing
a learned cell tall enough to block any ray of the table. It then
refreshes only the stale cells that are missing or whose ray is dirty. A
refresh that reaches no missing or assumed-LoS cell has nothing to
estimate, so it returns before the intake; the next refresh reaching such a
cell takes in every cell learned since. Nothing is refreshed in between, so
the counts and dirty flags it leaves are those of separate intakes. The
episode refreshes the vehicle's own cell every tick, and the explored
planner the whole layer before each plan. The per-tick calls
(`update_around`, `state_at`, `csi_correct`) take the map cell (ix, iy)
itself. A ray that crosses no known cell, its count equal to its entry
count, can be neither blocked nor cleared, so it is settled without being
classified: assumed LoS, or LoS if it crosses no cell. On an unchanged map
nothing is classified.
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

    def __init__(self, table: RayTable, explored: ExploredMap):
        self.table = table
        self.explored = explored
        nx, ny = explored.width_cells, explored.depth_cells
        self.state_grid = np.full((nx, ny), MISSING, dtype=np.int8)
        # The explored cells as of the last refresh, and per cell whether its
        # ray's verdict may have changed since the cell's last estimate.
        # Knowledge is monotone, so a fully known map learns nothing.
        self._known_seen = None if explored.known.all() else explored.known.copy()
        self._dirty = np.zeros((nx, ny), dtype=bool)
        if self._known_seen is None:
            self._refresh(np.arange(nx * ny))
            return
        # per ray, its table entries over cells not yet known; a ray is
        # listed once per entry, and subtract.at counts every listing
        self._unknown = np.diff(table.offsets)
        np.subtract.at(self._unknown, table.rays_crossing(np.flatnonzero(self._known_seen)), 1)

    def _due(self, at) -> np.ndarray:
        """Whether each cell of `at` must be classified: one cell (ix, iy) or the layer `np.s_[:]`.

        Due are the missing cells, and the assumed-LoS cells whose ray is
        dirty. LoS and NLoS are final: a verdict over known heights and a
        measurement are both truth. If `at` holds neither stale state,
        nothing is due, and the call returns before taking in the cells
        learned since the last intake. Otherwise first marks dirty the rays
        whose verdict those cells can change: those left with no unknown
        crossing, and those crossing a learned cell taller than the lowest
        minz of the table, which alone can block. A ray that still crosses an
        unknown cell and meets only low learned cells keeps its verdict, so
        it is not marked; on a flat map that is every ray still crossing an
        unknown cell.
        """
        codes = self.state_grid[at]
        missing, assumed = codes == MISSING, codes == _ASSUMED
        if not (missing.any() or assumed.any()):
            return missing
        if self._known_seen is not None:
            known = self.explored.known
            learned = np.flatnonzero(known != self._known_seen)
            if len(learned):
                self._known_seen[:] = known
                dirty = self._dirty.reshape(-1)
                rays = self.table.rays_crossing(learned)
                np.subtract.at(self._unknown, rays, 1)
                dirty[rays[self._unknown[rays] == 0]] = True
                tall = learned[self.explored.heights.ravel()[learned] > self.table.low]
                if len(tall):
                    dirty[self.table.rays_crossing(tall)] = True
        return missing | (assumed & self._dirty[at])

    def _refresh(self, idx: np.ndarray) -> None:
        """Re-estimate the given flat cells from their rays over the explored map.

        On a map that can learn, called right after `_due`, whose unknown
        counts are then exact: a ray with no known crossing is settled from
        its count, and only the others are classified.
        """
        if len(idx) == 0:
            return
        grid = self.state_grid.reshape(-1)
        self._dirty.reshape(-1)[idx] = False
        if self._known_seen is not None:
            entries = self.table.offsets[idx + 1] - self.table.offsets[idx]
            unseen = self._unknown[idx] == entries
            grid[idx[unseen]] = np.where(entries[unseen] > 0, _ASSUMED, _LOS)
            idx = idx[~unseen]
            if len(idx) == 0:
                return
        blocked, crosses = self.table.classify_subset(
            idx, self.explored.known, self.explored.heights
        )
        grid[idx] = np.where(blocked, _NLOS, np.where(crosses, _ASSUMED, _LOS))

    def update_around(self, cell) -> None:
        """Re-estimate map cell `cell` = (ix, iy) if `_due` finds it stale.

        It is due if missing, or assumed LoS with a dirty ray; no other cell
        is classified. A map fully known at construction has no missing cell
        and, since nothing is unknown, no assumed-LoS one; those are the only
        stale states, so no cell can ever be due and the call returns at once.
        """
        if self._known_seen is not None and self._due(cell):
            self._refresh(np.array([cell[0] * self.state_grid.shape[1] + cell[1]]))

    def ensure_layer_evaluated(self) -> None:
        """Bring every flight-layer cell up to date with the explored map.

        Missing cells get a first estimate; assumed-LoS cells whose rays
        were marked dirty since their last estimate are re-estimated, since
        geometry discovered anywhere along a ray can disprove the assumption
        long before the vehicle gets near. On an unchanged map nothing is
        classified.
        """
        self._refresh(np.flatnonzero(self._due(np.s_[:])))

    def csi_correct(self, cell, measured: LinkState) -> None:
        """Overwrite map cell `cell` = (ix, iy) with a measured LoS/NLoS state.

        An NLoS cell is never overwritten. A measured cell is never stale
        again, so its ray's dirty flag is left as it is.

        Raises:
            ValueError: measured state is not a physical measurement.
        """
        if measured not in (LinkState.LOS, LinkState.NLOS):
            raise ValueError("CSI measurement must be LoS or NLoS")
        if self.state_grid[cell] != _NLOS:
            self.state_grid[cell] = _STATE_CODE[measured]

    def state_at(self, cell) -> LinkState | None:
        """Estimated state of map cell `cell` = (ix, iy); None if never estimated."""
        code = int(self.state_grid[cell])
        return None if code == MISSING else _CODE_STATE[code]
