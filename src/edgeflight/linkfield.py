"""Flight-layer link pricing: cell geometry, gains and ground-truth budgets.

`layer_offsets` and `layer_gain_db` are the one flight-layer cell geometry and
per-BS gain that every arm prices from: the explored arm's LoS/NLoS limit
grids, the baseline's expected loss and the global arm's truth grids. `TruthLink` gives
the simulator its per-tick true budgets, always computed from truth, and the
global arm its per-cell truth grids. Link states are evaluated at flight-layer
cell resolution; powers use exact 3D distances. The UAV antenna boresight
tracks the serving BS, so interference arrives through the antenna pattern
while serving links see unit gain.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import (
    ChannelParams,
    LinkState,
    antenna_gain_db,
    antenna_gain_db_scalar,
    capacity_bps_scalar,
    carrier_loss_db,
    dbm_to_mw,
    dbm_to_mw_scalar,
    free_space_path_loss_db,
    path_loss_db_scalar,
)
from .scenario import Scenario, grid_cell
from .worldmap import RayTable


def layer_offsets(origin, nx: int, ny: int, cell_size_m: float, z: float):
    """Offsets and distances from `origin` to every cell centre at height z.

    Returns (dx (nx, 1), dy (1, ny), dz, dist (nx, ny)).
    """
    dx = (np.arange(nx) + 0.5)[:, None] * cell_size_m - origin[0]
    dy = (np.arange(ny) + 0.5)[None, :] * cell_size_m - origin[1]
    dz = z - origin[2]
    return dx, dy, dz, np.sqrt(dx * dx + dy * dy + dz * dz)


def layer_gain_db(dist, nlos, p: ChannelParams):
    """Channel gain in dB: minus the free-space loss, and minus the NLoS excess where `nlos`."""
    return -(free_space_path_loss_db(dist, p.carrier_hz) + np.where(nlos, p.nlos_excess_db, 0.0))


def ray_table_for(scenario: Scenario, bs_index: int, layer_z: float) -> RayTable:
    """Per-(BS, layer) ray cache, built once per scenario."""
    key = (bs_index, float(layer_z))
    tbl = scenario._ray_tables.get(key)
    if tbl is None:
        t = scenario.truth
        tbl = RayTable(
            scenario.bs_positions[bs_index], t.width_cells, t.depth_cells,
            t.cell_size_m, layer_z,
        )
        scenario._ray_tables[key] = tbl
    return tbl


def _truth_blocked(scenario: Scenario, bs_index: int, layer_z: float) -> np.ndarray:
    """Read-only truth NLoS mask over flat cells, classified once per scenario on first use."""
    key = (bs_index, float(layer_z))
    mask = scenario._truth_masks.get(key)
    if mask is None:
        heights = scenario.truth.heights
        mask = ray_table_for(scenario, bs_index, layer_z).classify_subset(
            np.arange(heights.size), np.ones(heights.shape, dtype=bool), heights)[0]
        mask.flags.writeable = False
        scenario._truth_masks[key] = mask
    return mask


class TruthLink:
    """True link states and budgets toward every BS at one flight layer."""

    def __init__(self, scenario: Scenario, params: ChannelParams, layer_z: float):
        self.sc = scenario
        self.p = params
        self.layer_z = float(layer_z)
        truth = scenario.truth
        self._nx, self._ny = truth.width_cells, truth.depth_cells
        self._s = truth.cell_size_m
        self.blocked = [_truth_blocked(scenario, i, layer_z)
                        for i in range(len(scenario.bs_positions))]
        # Per-call invariants of the scalar budgets
        self._bs = [np.asarray(b, dtype=float) for b in scenario.bs_positions]
        self._carrier_loss = float(carrier_loss_db(params.carrier_hz))
        self._noise_mw = dbm_to_mw_scalar(params.noise_dbm)

    def _flat_cell(self, pos) -> int:
        ix, iy = grid_cell(pos, self._s, self._nx, self._ny)
        return ix * self._ny + iy

    def serving_state(self, pos) -> LinkState:
        if self.blocked[self.sc.serving_bs][self._flat_cell(pos)]:
            return LinkState.NLOS
        return LinkState.LOS

    def _path_loss_db(self, v: np.ndarray, blocked) -> tuple[float, float]:
        """(distance, path loss) along vector v."""
        d = math.sqrt(v.dot(v))  # what np.linalg.norm computes
        return d, path_loss_db_scalar(d, blocked, self._carrier_loss, self.p)

    def uplink_capacity(self, pos) -> float:
        """True serving uplink capacity; uplink interference is out of scope."""
        serving = self.sc.serving_bs
        v = np.asarray(pos, dtype=float) - self._bs[serving]
        _, pl = self._path_loss_db(v, self.blocked[serving][self._flat_cell(pos)])
        sinr = dbm_to_mw_scalar(self.p.uav_tx_power_dbm - pl) / self._noise_mw
        return capacity_bps_scalar(sinr, self.p.bandwidth_hz)

    def downlink(self, pos) -> tuple[float, float, float]:
        """(capacity_bps, sinr_linear, interference_fraction) at a position.

        The two (or n_bs - 1) non-serving BSs always transmit; their power
        arrives through the UAV antenna pattern whose boresight points at the
        serving BS. interference_fraction = I / (I + S), in [0, 1): near 1
        where a non-serving BS drowns the serving signal.
        """
        p = self.p
        pos = np.asarray(pos, dtype=float)
        cell = self._flat_cell(pos)
        serving = self.sc.serving_bs
        bore = self._bs[serving] - pos
        d_s, pl_s = self._path_loss_db(bore, self.blocked[serving][cell])
        s_mw = dbm_to_mw_scalar(p.bs_tx_power_dbm - pl_s)
        i_mw = 0.0
        for i, bs_i in enumerate(self._bs):
            if i == serving:
                continue
            v = bs_i - pos
            d_i, pl_i = self._path_loss_db(v, self.blocked[i][cell])
            cosang = float(bore.dot(v)) / max(d_s * d_i, 1e-12)
            ang = math.degrees(float(np.arccos(min(max(cosang, -1.0), 1.0))))
            g = antenna_gain_db_scalar(ang, p)
            i_mw += dbm_to_mw_scalar(p.bs_tx_power_dbm + g - pl_i)
        sinr = s_mw / (self._noise_mw + i_mw)
        return capacity_bps_scalar(sinr, p.bandwidth_hz), sinr, i_mw / (i_mw + s_mw)

    # ---- per-cell grids for the global planner arm ----

    def layer_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """(serving gain dB, downlink interference mW) at every flight-layer cell centre."""
        p = self.p
        nx, ny = self._nx, self._ny
        serving = self.sc.serving_bs
        geo = [layer_offsets(bs, nx, ny, self._s, self.layer_z) for bs in self._bs]
        gains = [layer_gain_db(g[3], b.reshape(nx, ny), p) for g, b in zip(geo, self.blocked)]
        sx, sy, sz, dist_s = geo[serving]
        int_mw = np.zeros((nx, ny))
        for i, (dx, dy, dz, dist_i) in enumerate(geo):
            if i == serving:
                continue
            cosang = (sx * dx + sy * dy + sz * dz) / np.maximum(dist_s * dist_i, 1e-12)
            ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
            int_mw += dbm_to_mw(p.bs_tx_power_dbm + antenna_gain_db(ang, p) + gains[i])
        return gains[serving], int_mw
