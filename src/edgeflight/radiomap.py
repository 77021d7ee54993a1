"""Incrementally learned radio map of the flight layer toward the serving BS.

The vehicle flies at one altitude and measures one serving BS, so the map is
two dense grids over the flight layer, one value per map cell: `state_grid`
holds a link-state code (MISSING until the cell is first estimated) and
`gain_grid` the channel gain that state implies. Cells whose ray to the BS
crosses only explored free cells are LoS; rays crossing a known obstacle are
NLoS and stay NLoS (sticky); rays touching unexplored cells are assumed LoS
and priced optimistically until the area is explored or measured. Rays are
classified through the BS's precomputed RayTable.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelParams, LinkState, path_loss_db
from .worldmap import ExploredMap, RayTable

_STATE_CODE = {LinkState.LOS: 0, LinkState.NLOS: 1, LinkState.ASSUMED_LOS: 2}
_CODE_STATE = {v: k for k, v in _STATE_CODE.items()}
MISSING = -1
_LOS = _STATE_CODE[LinkState.LOS]
_NLOS = _STATE_CODE[LinkState.NLOS]
_ASSUMED = _STATE_CODE[LinkState.ASSUMED_LOS]


class RadioMap:
    """Flight-layer link estimates bound to one explored map and one BS.

    The BS position and the layer height are the ray table's origin and
    target altitude.
    """

    def __init__(self, table: RayTable, explored: ExploredMap, params: ChannelParams,
                 sticky_nlos: bool = True):
        self.table = table
        self.explored = explored
        self.sticky_enabled = bool(sticky_nlos)
        nx, ny = explored.width_cells, explored.depth_cells
        self.state_grid = np.full((nx, ny), MISSING, dtype=np.int8)
        self.gain_grid = np.full((nx, ny), np.nan)
        s = explored.cell_size_m
        bs = table.origin
        cx = (np.arange(nx) + 0.5) * s
        cy = (np.arange(ny) + 0.5) * s
        dx = cx[:, None] - bs[0]
        dy = cy[None, :] - bs[1]
        self._dist_grid = np.sqrt(dx * dx + dy * dy + (table.target_z - bs[2]) ** 2)
        # UAV boresight tracks the serving BS: both antenna gains at 0 dB.
        # Assumed LoS is priced as LoS.
        self._los_gain = -path_loss_db(self._dist_grid, LinkState.LOS, params).ravel()
        self._nlos_gain = -path_loss_db(self._dist_grid, LinkState.NLOS, params).ravel()

    def _stale(self, codes: np.ndarray) -> np.ndarray:
        """Cells a refresh may change: missing, assumed LoS and, unless sticky, NLoS.

        LoS came from rays over explored cells only, and explored knowledge
        is monotone, so re-classifying it would confirm it.
        """
        stale = (codes == MISSING) | (codes == _ASSUMED)
        if not self.sticky_enabled:
            stale |= codes == _NLOS
        return stale

    def _write(self, idx: np.ndarray, codes: np.ndarray) -> None:
        """Store new state codes at flat cell indices, touching only changed cells."""
        state = self.state_grid.reshape(-1)
        changed = state[idx] != codes
        idx, codes = idx[changed], codes[changed]
        state[idx] = codes
        self.gain_grid.reshape(-1)[idx] = np.where(
            codes == _NLOS, self._nlos_gain[idx], self._los_gain[idx]
        )

    def _refresh(self, idx: np.ndarray) -> None:
        """Re-classify the rays to the given flat cells against the explored map."""
        if len(idx) == 0:
            return
        blocked, crosses = self.table.classify_subset(
            idx, self.explored.known, self.explored.heights
        )
        codes = np.where(blocked, _NLOS, np.where(crosses, _ASSUMED, _LOS)).astype(np.int8)
        self._write(idx, codes)

    def update_around(self, around, radius_m: float) -> None:
        """Re-estimate every stale cell within radius of `around`."""
        s = self.explored.cell_size_m
        nx, ny = self.state_grid.shape
        px, py = float(around[0]), float(around[1])
        ix0 = max(int((px - radius_m) // s), 0)
        ix1 = min(int((px + radius_m) // s) + 1, nx)
        iy0 = max(int((py - radius_m) // s), 0)
        iy1 = min(int((py + radius_m) // s) + 1, ny)
        if ix0 >= ix1 or iy0 >= iy1:
            return
        cx = (np.arange(ix0, ix1) + 0.5) * s - px
        cy = (np.arange(iy0, iy1) + 0.5) * s - py
        inside = np.hypot(cx[:, None], cy[None, :]) <= radius_m
        i, j = np.nonzero(inside & self._stale(self.state_grid[ix0:ix1, iy0:iy1]))
        self._refresh((i + ix0) * ny + (j + iy0))

    def ensure_layer_evaluated(self) -> None:
        """Bring every flight-layer cell up to date with the explored map.

        Missing cells get a first estimate; assumed-LoS cells are
        re-predicted, since geometry discovered anywhere along their rays can
        disprove the assumption long before the vehicle gets near. On an
        unchanged map every estimate re-confirms and nothing is written,
        except that without sticky NLoS a measured NLoS cell returns to its
        estimate from the explored map.
        """
        self._refresh(np.flatnonzero(self._stale(self.state_grid)))

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
        self._write(np.array([ix * self.state_grid.shape[1] + iy]),
                    np.array([code], dtype=np.int8))

    def state_at(self, point) -> LinkState | None:
        """Estimated state of the cell holding `point`; None if never estimated."""
        code = int(self.state_grid[self.explored.cell_of(point)])
        return None if code == MISSING else _CODE_STATE[code]
