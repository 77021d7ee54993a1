import numpy as np
import pytest

from edgeflight.channel import (
    ChannelParams,
    LinkState,
    antenna_gain_db,
    antenna_gain_db_scalar,
    capacity_bps,
    capacity_bps_scalar,
    carrier_loss_db,
    dbm_to_mw,
    dbm_to_mw_scalar,
    expected_path_loss_db,
    free_space_path_loss_db,
    path_loss_db_scalar,
    plos_probability,
)
from edgeflight.errors import ConfigError
from oracles import path_loss_db, sinr_linear

P = ChannelParams()


def test_free_space_loss_closed_form():
    # 20log10(d) + 20log10(f) + 20log10(4pi/c), spot-checked at 1 km / 2 GHz
    got = free_space_path_loss_db(1000.0, 2.0e9)
    want = 20 * np.log10(1000.0) + 20 * np.log10(2.0e9) + 20 * np.log10(
        4 * np.pi / 299792458.0
    )
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(98.47, abs=0.01)


def test_free_space_loss_slope_is_20db_per_decade():
    assert free_space_path_loss_db(1000.0, 2e9) - free_space_path_loss_db(
        100.0, 2e9
    ) == pytest.approx(20.0, abs=1e-9)


def test_nlos_excess_is_additive():
    for d in (10.0, 150.0, 2500.0):
        los = path_loss_db(d, LinkState.LOS, P)
        nlos = path_loss_db(d, LinkState.NLOS, P)
        assert nlos - los == pytest.approx(P.nlos_excess_db)
        # optimistic pricing: assumed-LoS charged exactly as LoS
        assert path_loss_db(d, LinkState.ASSUMED_LOS, P) == los


def test_plos_extremes_and_monotonicity():
    angles = np.linspace(0.0, 90.0, 91)
    probs = plos_probability(angles, P)
    assert np.all(np.diff(probs) > 0)
    assert plos_probability(90.0, P) > 0.999
    assert plos_probability(0.0, P) < 0.3
    # sigmoid midpoint sits at theta = a
    assert plos_probability(P.plos_a, P) == pytest.approx(1.0 / (1.0 + P.plos_a))


def test_expected_loss_bounded_by_los_and_nlos():
    for d, ang in ((100.0, 5.0), (300.0, 30.0), (50.0, 80.0)):
        lo = path_loss_db(d, LinkState.LOS, P)
        hi = path_loss_db(d, LinkState.NLOS, P)
        mid = expected_path_loss_db(d, ang, P)
        assert lo < mid < hi


def test_capacity_shannon_anchor():
    # SNR 50.5 dB over 1 MHz is just under 16.8 Mbps
    snr = 10.0 ** (50.5 / 10.0)
    assert capacity_bps(snr, 1e6) == pytest.approx(16.78e6, rel=1e-3)
    assert capacity_bps(0.0, 1e6) == 0.0
    assert capacity_bps(-1.0, 1e6) == 0.0
    assert capacity_bps(1.0, 1e6) == pytest.approx(1e6)


def test_noise_floor_composition():
    # -174 dBm/Hz + 10log10(B) + NF
    assert P.noise_dbm == pytest.approx(-174.0 + 60.0 + 9.0)


def test_sinr_interferers_add_in_linear_domain():
    clean = sinr_linear(-80.0, (), P)
    assert clean == pytest.approx(dbm_to_mw(-80.0) / dbm_to_mw(P.noise_dbm))
    one = sinr_linear(-80.0, (-90.0,), P)
    two = sinr_linear(-80.0, (-90.0, -90.0), P)
    assert one < clean
    assert two < one
    want = dbm_to_mw(-80.0) / (dbm_to_mw(P.noise_dbm) + 2 * dbm_to_mw(-90.0))
    assert two == pytest.approx(want)


def test_antenna_pattern_two_level():
    assert antenna_gain_db(0.0, P) == 0.0
    assert antenna_gain_db(P.antenna_halfwidth_deg, P) == 0.0
    assert antenna_gain_db(P.antenna_halfwidth_deg + 1.0, P) == P.antenna_backlobe_db
    # wraparound: 350 deg off boresight is 10 deg
    assert antenna_gain_db(350.0, P) == 0.0


def test_scalar_helpers_equal_their_array_versions_exactly():
    rng = np.random.default_rng(5)
    carrier = carrier_loss_db(P.carrier_hz)
    for d in np.concatenate([[0.0, 1e-12, 1.0], rng.uniform(1.0, 2000.0, 300)]):
        for state in (LinkState.LOS, LinkState.NLOS):
            nlos = state is LinkState.NLOS
            assert path_loss_db_scalar(float(d), nlos, carrier, P) == path_loss_db(d, state, P)
    edge = P.antenna_halfwidth_deg
    for a in np.concatenate([[0.0, edge, np.nextafter(edge, 180.0), 180.0, 350.0, -60.0],
                             rng.uniform(0.0, 180.0, 200)]):
        assert antenna_gain_db_scalar(float(a), P) == antenna_gain_db(a, P)
    for snr in np.concatenate([[-1.0, 0.0, 1e-300], rng.lognormal(0.0, 5.0, 300)]):
        assert capacity_bps_scalar(float(snr), P.bandwidth_hz) == capacity_bps(snr, P.bandwidth_hz)
    dbm = np.concatenate([[-300.0, 0.0, 30.0], rng.uniform(-200.0, 60.0, 300)])
    for x, want in zip(dbm, dbm_to_mw(dbm)):
        assert dbm_to_mw_scalar(float(x)) == want


def test_param_validation():
    with pytest.raises(ConfigError):
        ChannelParams(carrier_hz=0.0)
    with pytest.raises(ConfigError):
        ChannelParams(bandwidth_hz=-1.0)
    with pytest.raises(ConfigError):
        ChannelParams(nlos_excess_db=-0.1)
    with pytest.raises(ConfigError):
        ChannelParams(antenna_halfwidth_deg=0.0)
