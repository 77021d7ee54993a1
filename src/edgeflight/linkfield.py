"""Flight-layer link pricing: cell geometry, gains, capacities and ground-truth budgets.

`layer_offsets` (`scenario.centre_offsets` with height) and `layer_gain_db`
are the cell distances and per-BS gain that the explored arm's LoS/NLoS limit
grids and the baseline's expected loss price from, and `capacities` is the
one array chain from a serving gain to link capacities. `TruthLink` gives the
simulator its true budgets, always computed from truth, one position at a
time or many in one array pass with the same bits; that pass over every cell
centre is also the global arm's planning grid. Link states are evaluated at
flight-layer cell resolution; powers use exact 3D distances. The UAV antenna
boresight tracks the serving BS, so interference arrives through the antenna
pattern while serving links see unit gain.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import (
    _FOUR_PI_OVER_C_DB,
    ChannelParams,
    LinkState,
    antenna_gain_db,
    antenna_gain_db_scalar,
    capacity_bps,
    capacity_bps_scalar,
    carrier_loss_db,
    dbm_to_mw,
    dbm_to_mw_scalar,
    free_space_path_loss_db,
    path_loss_db_scalar,
)
from .scenario import Scenario, centre_offsets, grid_cell
from .worldmap import RayTable


def layer_offsets(origin, nx: int, ny: int, cell_size_m: float, z: float):
    """Offsets and distances from `origin` to every cell centre at height z.

    Returns (dx (nx, 1), dy (1, ny), dz, dist (nx, ny)).
    """
    dx, dy = centre_offsets(origin, cell_size_m, (slice(0, nx), slice(0, ny)))
    dz = z - origin[2]
    return dx, dy, dz, np.sqrt(dx * dx + dy * dy + dz * dz)


def layer_gain_db(dist, nlos, p: ChannelParams):
    """Channel gain in dB: minus the free-space loss, and minus the NLoS excess where `nlos`."""
    return -(free_space_path_loss_db(dist, p.carrier_hz) + np.where(nlos, p.nlos_excess_db, 0.0))


def capacities(gain_db, int_mw, p: ChannelParams, noise_mw: float):
    """(uplink_bps, downlink_bps, downlink_sinr, interference_fraction) from the serving gain.

    `int_mw` is the downlink interference power; the uplink has none. The
    interference fraction is I / (I + S). `noise_mw` is
    dbm_to_mw(p.noise_dbm), which callers hoist.
    """
    up = capacity_bps(dbm_to_mw(p.uav_tx_power_dbm + gain_db) / noise_mw, p.bandwidth_hz)
    s_mw = dbm_to_mw(p.bs_tx_power_dbm + gain_db)
    sinr = s_mw / (noise_mw + int_mw)
    return up, capacity_bps(sinr, p.bandwidth_hz), sinr, int_mw / (int_mw + s_mw)


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
        truth = scenario.truth
        self._nx, self._ny = truth.width_cells, truth.depth_cells
        self._s = truth.cell_size_m
        self.blocked = [_truth_blocked(scenario, i, layer_z)
                        for i in range(len(scenario.bs_positions))]
        # Per-call invariants: the scalar budgets index a list of BS vectors,
        # the array pass their stack and the stacked masks
        self._bs = [np.asarray(b, dtype=float) for b in scenario.bs_positions]
        self._bs_stack = np.stack(self._bs)
        self._others = [i for i in range(len(self._bs)) if i != scenario.serving_bs]
        self._blocked_stack = np.stack(self.blocked)
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

    def budgets(self, points):
        """(uplink_bps, downlink_bps, downlink_sinr, interference_fraction, serving_nlos) per row.

        Row i of the (n, 3) array `points` equals `uplink_capacity`,
        `downlink` and `serving_state` at points[i], bit for bit: every step
        is the array form of the per-point one, in the same order. The cell
        lookup is `grid_cell`'s: `//` on float64 gives the bits of its floor
        division, and its clip to the grid is a maximum then a minimum. The
        norms and cross products are stacked `matmul`s, which reach the same
        BLAS dot per pair as `.dot`. The rest is one chain over stacked rows:
        the interferers' angles, then one `np.power` over the interferers',
        uplink and downlink powers in dBm, the interference summed from 0.0 in
        BS order, and one `log2` over both SINRs. Every ufunc runs on
        contiguous rows, and the carrier term is the per-point methods'
        hoisted `carrier_loss_db`. The simulator prices a replan window with
        it, and the global planner every cell centre.
        """
        p = self.p
        pts = np.array(points, dtype=float)
        ij = np.minimum(np.maximum(pts[:, :2] // self._s, 0.0),
                        (self._nx - 1, self._ny - 1)).astype(np.intp)
        serving, others = self.sc.serving_bs, self._others
        vec = self._bs_stack[:, None, :] - pts  # (n_bs, n, 3), BS minus position
        row, col = vec[..., None, :], vec[..., :, None]
        dist = np.sqrt((row @ col)[..., 0, 0])
        nlos = self._blocked_stack[:, ij[:, 0] * self._ny + ij[:, 1]]
        # layer_gain_db, its carrier term hoisted
        gain = -(20.0 * np.log10(np.maximum(dist, 1e-9)) + self._carrier_loss
                 + _FOUR_PI_OVER_C_DB + np.where(nlos, p.nlos_excess_db, 0.0))
        cross = (row[serving] @ col[others])[..., 0, 0]
        cosang = cross / np.maximum(dist[serving] * dist[others], 1e-12)
        ang = np.degrees(np.arccos(np.minimum(np.maximum(cosang, -1.0), 1.0)))
        # dbm_to_mw on one stack of powers: the interferers in BS order, the
        # uplink, the downlink
        k, n = len(others), len(pts)
        dbm = np.empty((k + 2, n))
        np.add(p.bs_tx_power_dbm + antenna_gain_db(ang, p), gain[others], out=dbm[:k])
        np.add(p.uav_tx_power_dbm, gain[serving], out=dbm[k])
        np.add(p.bs_tx_power_dbm, gain[serving], out=dbm[k + 1])
        mw = np.power(10.0, np.divide(dbm, 10.0, out=dbm), out=dbm)
        i_mw = sum(mw[:k], np.zeros(n))
        s_mw = mw[k + 1]
        # capacity_bps on both SINRs, the uplink's and the downlink's
        sinr = np.empty((2, n))
        np.divide(mw[k], self._noise_mw, out=sinr[0])
        np.divide(s_mw, self._noise_mw + i_mw, out=sinr[1])
        cap = p.bandwidth_hz * np.log2(1.0 + np.maximum(sinr, 0.0))
        return cap[0], cap[1], sinr[1], i_mw / (i_mw + s_mw), nlos[serving]
