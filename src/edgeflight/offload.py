"""Processing-rate model tying link budgets to permissible flight speed.

A mapping/localization frame must be captured every 1/frames_per_meter meters,
so the achievable update rate caps speed. Remote processing pays one uplink
frame transfer, a fixed compute delay, and a downlink feedback transfer per
frame; local processing runs at a fixed low rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import require

# A tick's flight budget at or below this many metres moves the vehicle no
# further; a tick whose fastest flight, v_max_mps * tick_s, is no longer
# cannot move it at all.
STEP_FLOOR_M = 1e-12


class ProcessingMode(Enum):
    REMOTE = "remote"
    LOCAL = "local"


@dataclass(frozen=True)
class OffloadConfig:
    frame_bits: float = 1.0e6
    frames_per_meter: float = 2.0
    feedback_bits: float = 5.0e4
    remote_processing_s: float = 0.02
    local_fps: float = 2.0
    v_max_mps: float = 15.0

    def __post_init__(self):
        require("offload", self, lambda v: v > 0, "positive",
                "frame_bits", "frames_per_meter", "v_max_mps")
        require("offload", self, lambda v: v >= 0, ">= 0",
                "feedback_bits", "remote_processing_s", "local_fps")


def remote_update_rate(uplink_bps: float, downlink_bps: float, oc: OffloadConfig) -> float:
    """Frames per second sustainable by the offload pipeline; 0 if a link is down."""
    if uplink_bps <= 0.0 or downlink_bps <= 0.0:
        return 0.0
    cycle = oc.frame_bits / uplink_bps + oc.remote_processing_s + oc.feedback_bits / downlink_bps
    return 1.0 / cycle


def select_mode(remote_fps: float, local_fps: float) -> tuple[ProcessingMode, float]:
    """Pick the mode with the higher achievable update rate; ties go remote."""
    if remote_fps >= local_fps:
        return ProcessingMode.REMOTE, remote_fps
    return ProcessingMode.LOCAL, local_fps


def speed_limit(effective_fps: float, oc: OffloadConfig) -> float:
    """Permissible speed so every meter of travel still gets its frames."""
    return min(effective_fps / oc.frames_per_meter, oc.v_max_mps)


def governor(uplink_bps, downlink_bps, oc: OffloadConfig):
    """(remote, effective fps, speed limit) per element, over arrays of capacities.

    Element i equals `remote_update_rate`, then `select_mode` (whose mode is
    REMOTE where `remote` is True) and `speed_limit` at uplink_bps[i] and
    downlink_bps[i], bit for bit: every step is the array form of the scalar
    one, in the same order.
    """
    up = np.asarray(uplink_bps, dtype=float)
    dn = np.asarray(downlink_bps, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        cycle = oc.frame_bits / up + oc.remote_processing_s + oc.feedback_bits / dn
        rate = np.where((up > 0.0) & (dn > 0.0), 1.0 / cycle, 0.0)
    fps = np.maximum(rate, oc.local_fps)
    return rate >= oc.local_fps, fps, np.minimum(fps / oc.frames_per_meter, oc.v_max_mps)
