"""Air-to-ground link budget: path loss, LoS probability, SINR, capacity.

All functions broadcast over numpy arrays, except the *_scalar helpers, which
price one link; angles in degrees, powers in dBm, distances in meters, rates in
bits per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import require

SPEED_OF_LIGHT = 299792458.0
THERMAL_NOISE_DBM_HZ = -174.0


class LinkState(Enum):
    LOS = "los"
    NLOS = "nlos"
    ASSUMED_LOS = "assumed_los"


@dataclass(frozen=True)
class ChannelParams:
    carrier_hz: float = 2.0e9
    bandwidth_hz: float = 1.0e6
    uav_tx_power_dbm: float = 30.0
    bs_tx_power_dbm: float = 30.0
    noise_figure_db: float = 9.0
    nlos_excess_db: float = 20.0
    plos_a: float = 9.61
    plos_b: float = 0.16
    antenna_halfwidth_deg: float = 60.0
    antenna_backlobe_db: float = -10.0

    def __post_init__(self):
        require("channel", self, lambda v: v > 0, "positive", "carrier_hz", "bandwidth_hz")
        require("channel", self, lambda v: v >= 0, ">= 0", "nlos_excess_db")
        require("channel", self, lambda v: 0 < v <= 180, "in (0, 180]", "antenna_halfwidth_deg")

    @property
    def noise_dbm(self) -> float:
        return THERMAL_NOISE_DBM_HZ + 10.0 * np.log10(self.bandwidth_hz) + self.noise_figure_db


_FOUR_PI_OVER_C_DB = float(20.0 * np.log10(4.0 * np.pi / SPEED_OF_LIGHT))


def carrier_loss_db(carrier_hz):
    """20 log10(f), the carrier term of the free-space loss."""
    return 20.0 * np.log10(carrier_hz)


def free_space_path_loss_db(distance_m, carrier_hz):
    """20 log10(d) + 20 log10(f) + 20 log10(4 pi / c)."""
    d = np.maximum(distance_m, 1e-9)
    return 20.0 * np.log10(d) + carrier_loss_db(carrier_hz) + _FOUR_PI_OVER_C_DB


# The *_scalar helpers price one link for per-tick callers. They equal their
# array versions bit for bit: the same numpy ufuncs in the same order,
# called on Python floats and returning Python floats, without array
# dispatch or numpy scalar arithmetic.
#
# Bit-safe on the tick path, each matched against the array version on
# 200,000 random samples: math.sqrt and math.degrees (one correctly rounded
# operation each, as in numpy) and numpy ufuncs called on Python floats.
# Not bit-safe, measured on an AVX-512 host where numpy dispatches these
# ufuncs to SVML: math.log10, pow, acos, atan2 and log2 (479-18,899 of
# 200,000 differed in the last bit); Python sums in place of `.dot`, which
# round in another order (67,217 of 300,000 squared norms and 107,062 of
# 300,000 cross products of random 3-vectors); and pre-adding carrier_loss +
# _FOUR_PI_OVER_C_DB, which rounds once where the array version rounds twice.
#
# linkfield.TruthLink.budgets prices many positions with the array versions
# and matches these helpers bit for bit: the positions of a replan window, and
# every cell centre of the global arm's planning grids. It does not replace
# them: one array pass at a single position costs about 2.6 times the three
# per-point calls (45 against 17 us on a 2-core AVX-512 host, three BSs), and
# most ticks of an arm whose true limit binds are priced one at a time.

def path_loss_db_scalar(distance_m: float, nlos: bool, carrier_loss: float,
                        p: ChannelParams) -> float:
    """Free-space loss at one distance, plus the NLoS excess where `nlos`.

    `carrier_loss` is carrier_loss_db(p.carrier_hz). Equals minus
    linkfield.layer_gain_db at that distance.
    """
    pl = 20.0 * float(np.log10(max(distance_m, 1e-9))) + carrier_loss + _FOUR_PI_OVER_C_DB
    if nlos:
        pl = pl + p.nlos_excess_db
    return pl


def plos_probability(elevation_deg, p: ChannelParams):
    """LoS probability 1 / (1 + a exp(-b (theta - a))) for elevation in [0, 90]."""
    theta = np.clip(elevation_deg, 0.0, 90.0)
    return 1.0 / (1.0 + p.plos_a * np.exp(-p.plos_b * (theta - p.plos_a)))


def expected_path_loss_db(distance_m, elevation_deg, p: ChannelParams):
    """LoS-probability-weighted mix of LoS and NLoS losses, averaged in dB."""
    pl_los = free_space_path_loss_db(distance_m, p.carrier_hz)
    prob = plos_probability(elevation_deg, p)
    return pl_los + (1.0 - prob) * p.nlos_excess_db


def antenna_gain_db(off_boresight_deg, p: ChannelParams):
    """Two-level pattern: 0 dB inside the halfwidth cone, backlobe level outside."""
    a = np.abs((np.asarray(off_boresight_deg, dtype=float) + 180.0) % 360.0 - 180.0)
    return np.where(a <= p.antenna_halfwidth_deg, 0.0, p.antenna_backlobe_db)


def antenna_gain_db_scalar(off_boresight_deg: float, p: ChannelParams) -> float:
    """antenna_gain_db for one angle."""
    a = abs((off_boresight_deg + 180.0) % 360.0 - 180.0)
    return 0.0 if a <= p.antenna_halfwidth_deg else p.antenna_backlobe_db


def dbm_to_mw(dbm):
    return np.power(10.0, np.asarray(dbm, dtype=float) / 10.0)


def dbm_to_mw_scalar(dbm: float) -> float:
    """dbm_to_mw for one power."""
    return float(np.power(10.0, dbm / 10.0))


def capacity_bps(sinr, bandwidth_hz):
    """Shannon capacity B log2(1 + SINR); zero when SINR <= 0."""
    s = np.maximum(np.asarray(sinr, dtype=float), 0.0)
    return bandwidth_hz * np.log2(1.0 + s)


def capacity_bps_scalar(sinr: float, bandwidth_hz: float) -> float:
    """capacity_bps for one SINR."""
    return bandwidth_hz * float(np.log2(1.0 + max(sinr, 0.0)))
