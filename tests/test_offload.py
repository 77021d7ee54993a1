import numpy as np
import pytest

from edgeflight.errors import ConfigError
from edgeflight.offload import (
    OffloadConfig,
    ProcessingMode,
    governor,
    remote_update_rate,
    select_mode,
    speed_limit,
)


def test_ideal_pipeline_anchor():
    # 10 Mbps uplink, 1 Mbit frames, no compute or feedback cost, 2 frame/m:
    # 10 frame/s and a 5 m/s ceiling
    oc = OffloadConfig(frame_bits=1e6, frames_per_meter=2.0, feedback_bits=0.0,
                       remote_processing_s=0.0)
    fps = remote_update_rate(10e6, 1e6, oc)
    assert fps == pytest.approx(10.0)
    assert speed_limit(fps, oc) == pytest.approx(5.0)


def test_cycle_terms_add():
    oc = OffloadConfig()
    fps = remote_update_rate(10e6, 5e6, oc)
    want = 1.0 / (1e6 / 10e6 + 0.02 + 5e4 / 5e6)
    assert fps == pytest.approx(want)


def test_dead_link_yields_zero_rate():
    oc = OffloadConfig()
    assert remote_update_rate(0.0, 1e6, oc) == 0.0
    assert remote_update_rate(1e6, 0.0, oc) == 0.0


def test_mode_selection_prefers_higher_rate_ties_remote():
    assert select_mode(5.0, 2.0) == (ProcessingMode.REMOTE, 5.0)
    assert select_mode(1.0, 2.0) == (ProcessingMode.LOCAL, 2.0)
    assert select_mode(2.0, 2.0) == (ProcessingMode.REMOTE, 2.0)


def test_speed_limit_caps_at_v_max():
    oc = OffloadConfig()
    assert speed_limit(1e9, oc) == oc.v_max_mps
    assert speed_limit(0.0, oc) == 0.0
    # local floor: 2 fps at 2 frame/m is a 1 m/s crawl
    assert speed_limit(oc.local_fps, oc) == pytest.approx(1.0)


def test_rate_monotone_in_uplink():
    oc = OffloadConfig()
    rates = [remote_update_rate(u, 1e7, oc) for u in (1e5, 1e6, 1e7, 1e8)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    # processing delay bounds the rate even with infinite links
    assert rates[-1] < 1.0 / oc.remote_processing_s


@pytest.mark.parametrize("oc", [
    OffloadConfig(),
    # no feedback: a dead downlink divides zero by zero in the array form
    OffloadConfig(frame_bits=2e5, feedback_bits=0.0, remote_processing_s=0.0),
    OffloadConfig(local_fps=0.0, v_max_mps=3.0),
], ids=["default", "no-feedback", "no-local"])
def test_governor_equals_the_scalar_pipeline_bit_for_bit(oc):
    """Element i of `governor` is remote_update_rate, select_mode and speed_limit at i.

    Random capacities over eight decades, dead links, the capacities whose
    remote rate ties the local one, and rates far past v_max_mps.
    """
    rng = np.random.default_rng(21)
    up = np.concatenate([10.0 ** rng.uniform(3.0, 11.0, 400), [0.0, 1e6, 0.0, 1e12]])
    dn = np.concatenate([10.0 ** rng.uniform(3.0, 11.0, 400), [1e6, 0.0, 0.0, 1e12]])
    if oc.local_fps > 0.0 and oc.remote_processing_s == 0.0 and oc.feedback_bits == 0.0:
        up = np.append(up, oc.frame_bits * oc.local_fps)  # a remote rate equal to the local one
        dn = np.append(dn, 1e6)
    remote, fps, lim = governor(up, dn, oc)
    want = []
    for u, d in zip(up.tolist(), dn.tolist()):
        mode, eff = select_mode(remote_update_rate(u, d, oc), oc.local_fps)
        want.append((mode is ProcessingMode.REMOTE, eff, speed_limit(eff, oc)))
    assert list(zip(remote.tolist(), fps.tolist(), lim.tolist())) == want
    # with no local rate, a dead link's zero remote rate ties it and stays remote
    assert {w[0] for w in want} == ({False, True} if oc.local_fps > 0.0 else {True})
    assert any(w[2] == oc.v_max_mps for w in want)


def test_config_validation():
    with pytest.raises(ConfigError):
        OffloadConfig(frame_bits=0.0)
    with pytest.raises(ConfigError):
        OffloadConfig(frames_per_meter=-1.0)
    with pytest.raises(ConfigError):
        OffloadConfig(feedback_bits=-1.0)
    with pytest.raises(ConfigError):
        OffloadConfig(remote_processing_s=-0.1)
    with pytest.raises(ConfigError):
        OffloadConfig(v_max_mps=0.0)
