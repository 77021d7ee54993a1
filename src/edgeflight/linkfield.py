"""Ground-truth link budgets over a scenario's flight layer.

Shared by the simulator (per-tick true budgets, always computed from truth)
and the full-knowledge planner arm (per-cell truth grids). Link states are
evaluated at voxel resolution; powers use exact 3D distances. The UAV antenna
boresight tracks the serving BS, so interference arrives through the antenna
pattern while serving links see unit gain.
"""

from __future__ import annotations

import numpy as np

from .channel import (
    ChannelParams,
    LinkState,
    antenna_gain_db,
    capacity_bps,
    dbm_to_mw,
    free_space_path_loss_db,
    path_loss_db,
    sinr_linear,
)
from .scenario import Scenario
from .worldmap import RayTable


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


class TruthLink:
    """True link states and budgets toward every BS at one flight layer."""

    def __init__(self, scenario: Scenario, params: ChannelParams, layer_z: float):
        self.sc = scenario
        self.p = params
        self.layer_z = float(layer_z)
        truth = scenario.truth
        self._nx, self._ny = truth.width_cells, truth.depth_cells
        self._s = truth.cell_size_m
        known = np.ones_like(truth.heights, dtype=bool)
        self.blocked = [
            ray_table_for(scenario, i, layer_z).classify_subset(
                np.arange(known.size), known, truth.heights)[0]
            for i in range(len(scenario.bs_positions))
        ]

    def _flat_cell(self, pos) -> int:
        ix, iy = self.sc.truth.cell_of(pos)
        return ix * self._ny + iy

    def state(self, bs_index: int, pos) -> LinkState:
        if self.blocked[bs_index][self._flat_cell(pos)]:
            return LinkState.NLOS
        return LinkState.LOS

    def serving_state(self, pos) -> LinkState:
        return self.state(self.sc.serving_bs, pos)

    def uplink_capacity(self, pos) -> float:
        """True serving uplink capacity; uplink interference is out of scope."""
        bs = self.sc.bs_positions[self.sc.serving_bs]
        d = float(np.linalg.norm(np.asarray(pos, dtype=float) - bs))
        pl = path_loss_db(d, self.serving_state(pos), self.p)
        rx = self.p.uav_tx_power_dbm - pl
        return float(capacity_bps(sinr_linear(rx, (), self.p), self.p.bandwidth_hz))

    def downlink(self, pos) -> tuple[float, float, float]:
        """(capacity_bps, sinr_linear, interference_fraction) at a position.

        The two (or n_bs - 1) non-serving BSs always transmit; their power
        arrives through the UAV antenna pattern whose boresight points at the
        serving BS. interference_fraction = I / (I + S), in [0, 1): near 1
        where a non-serving BS drowns the serving signal.
        """
        pos = np.asarray(pos, dtype=float)
        serving = self.sc.serving_bs
        bs_s = self.sc.bs_positions[serving]
        bore = bs_s - pos
        d_s = float(np.linalg.norm(bore))
        rx_s = self.p.bs_tx_power_dbm - path_loss_db(d_s, self.state(serving, pos), self.p)
        inter = []
        for i, bs_i in enumerate(self.sc.bs_positions):
            if i == serving:
                continue
            v = bs_i - pos
            d_i = float(np.linalg.norm(v))
            cosang = float(np.dot(bore, v) / max(d_s * d_i, 1e-12))
            ang = float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
            g = float(antenna_gain_db(ang, self.p))
            inter.append(self.p.bs_tx_power_dbm + g - path_loss_db(d_i, self.state(i, pos), self.p))
        sinr = float(sinr_linear(rx_s, inter, self.p))
        cap = float(capacity_bps(sinr, self.p.bandwidth_hz))
        i_mw = float(sum(dbm_to_mw(x) for x in inter))
        s_mw = float(dbm_to_mw(rx_s))
        return cap, sinr, i_mw / (i_mw + s_mw)

    # ---- per-cell grids for the full-knowledge planner arm ----

    def _geometry(self, bs) -> tuple[np.ndarray, np.ndarray]:
        s = self._s
        cx = (np.arange(self._nx) + 0.5) * s
        cy = (np.arange(self._ny) + 0.5) * s
        dx = cx[:, None] - bs[0]
        dy = cy[None, :] - bs[1]
        dz = self.layer_z - bs[2]
        return np.stack([np.broadcast_to(dx, (self._nx, self._ny)),
                         np.broadcast_to(dy, (self._nx, self._ny)),
                         np.full((self._nx, self._ny), dz)], axis=-1), \
            np.sqrt(dx * dx + dy * dy + dz * dz)

    def uplink_grid(self) -> np.ndarray:
        serving = self.sc.serving_bs
        _, dist = self._geometry(self.sc.bs_positions[serving])
        pl = free_space_path_loss_db(dist, self.p.carrier_hz)
        pl = pl + np.where(self.blocked[serving].reshape(self._nx, self._ny),
                           self.p.nlos_excess_db, 0.0)
        snr = dbm_to_mw(self.p.uav_tx_power_dbm - pl) / dbm_to_mw(self.p.noise_dbm)
        return capacity_bps(snr, self.p.bandwidth_hz)

    def downlink_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(capacity grid, interference-fraction grid) over the flight layer."""
        serving = self.sc.serving_bs
        vec_s, dist_s = self._geometry(self.sc.bs_positions[serving])
        pl_s = free_space_path_loss_db(dist_s, self.p.carrier_hz)
        pl_s = pl_s + np.where(self.blocked[serving].reshape(self._nx, self._ny),
                               self.p.nlos_excess_db, 0.0)
        sig_mw = dbm_to_mw(self.p.bs_tx_power_dbm - pl_s)
        int_mw = np.zeros((self._nx, self._ny))
        for i, bs_i in enumerate(self.sc.bs_positions):
            if i == serving:
                continue
            vec_i, dist_i = self._geometry(bs_i)
            pl_i = free_space_path_loss_db(dist_i, self.p.carrier_hz)
            pl_i = pl_i + np.where(self.blocked[i].reshape(self._nx, self._ny),
                                   self.p.nlos_excess_db, 0.0)
            cosang = np.sum(vec_s * vec_i, axis=-1) / np.maximum(dist_s * dist_i, 1e-12)
            ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
            gain = antenna_gain_db(ang, self.p)
            int_mw += dbm_to_mw(self.p.bs_tx_power_dbm + gain - pl_i)
        noise_mw = float(dbm_to_mw(self.p.noise_dbm))
        sinr = sig_mw / (noise_mw + int_mw)
        cap = capacity_bps(sinr, self.p.bandwidth_hz)
        return cap, int_mw / (int_mw + sig_mw)
