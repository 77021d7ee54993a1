import numpy as np
import pytest

from edgeflight.config import default_config, flat_city_config, with_seed
from edgeflight.planner import PlannerKind
from edgeflight.scenario import build_scenario
from edgeflight.simcore import TrajectoryLog, batch_seeds, run_batch, run_episode


def small_cfg(seed: int = 0):
    cfg = default_config(seed=seed)
    import dataclasses

    return dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(
            cfg.scenario,
            map_size_m=(200.0, 200.0),
            endpoint_distance_m=(80.0, 160.0),
        ),
    )


@pytest.fixture(scope="module")
def episode_result():
    cfg = small_cfg(seed=3)
    sc = build_scenario(cfg.scenario)
    out = {}
    for kind in PlannerKind:
        out[kind] = run_episode(sc, kind, cfg)
    return cfg, sc, out


def test_episode_is_deterministic():
    cfg = small_cfg(seed=1)
    sc = build_scenario(cfg.scenario)
    m1, l1 = run_episode(sc, PlannerKind.EXPLORED, cfg)
    sc2 = build_scenario(cfg.scenario)
    m2, l2 = run_episode(sc2, PlannerKind.EXPLORED, cfg)
    assert m1 == m2
    assert l1.rows == l2.rows


def test_metrics_invariants(episode_result):
    cfg, sc, out = episode_result
    straight = float(np.linalg.norm(np.asarray(sc.goal) - np.asarray(sc.start)))
    for kind, (m, log) in out.items():
        assert not m.stuck, kind
        assert m.reached
        assert 0.0 <= m.nlos_distance_ratio <= 1.0
        assert m.flight_distance_m >= straight - 1e-6
        assert np.isfinite(m.avg_uplink_capacity_bps)


def test_log_consistency(episode_result):
    cfg, sc, out = episode_result
    dt = cfg.sim.tick_s
    for kind, (m, log) in out.items():
        times = [r[0] for r in log.rows]
        assert all(
            b - a == pytest.approx(dt, abs=1e-9) for a, b in zip(times, times[1:])
        )
        # distance equals the sum of per-tick displacements
        speeds = np.array([r[4] for r in log.rows])
        assert speeds.sum() * dt == pytest.approx(m.flight_distance_m, abs=1e-6)
        # time-weighted capacity mean matches the metric exactly
        caps = np.array([r[8] for r in log.rows])
        want = caps.sum() * dt / m.flight_duration_s
        assert m.avg_uplink_capacity_bps == pytest.approx(want, rel=1e-12)
        # NLoS ratio recomputed from the log
        nlos_moved = sum(r[4] * dt for r in log.rows if r[6] == "nlos")
        assert m.nlos_distance_ratio == pytest.approx(
            nlos_moved / m.flight_distance_m, rel=1e-9
        )


def test_no_tick_inside_a_too_tall_cell(episode_result):
    cfg, sc, out = episode_result
    alt = sc.cfg.uav_altitude_m
    for kind, (m, log) in out.items():
        for r in log.rows:
            cell = sc.truth.cell_of((r[1], r[2], r[3]))
            assert sc.truth.heights[cell] < alt, (kind, r[0])


def test_speed_never_exceeds_vmax(episode_result):
    cfg, sc, out = episode_result
    for kind, (m, log) in out.items():
        for r in log.rows:
            assert r[4] <= cfg.offload.v_max_mps + 1e-9


def test_flat_city_runs_at_vmax():
    cfg = flat_city_config(seed=2)
    sc = build_scenario(cfg.scenario)
    straight = float(np.linalg.norm(np.asarray(sc.goal) - np.asarray(sc.start)))
    for kind in PlannerKind:
        m, _ = run_episode(sc, kind, cfg)
        assert m.nlos_distance_ratio == 0.0
        want = straight / cfg.offload.v_max_mps
        assert m.flight_duration_s == pytest.approx(want, abs=2 * cfg.sim.tick_s)


def test_batch_seeds_are_stable():
    a = batch_seeds(0, 5)
    b = batch_seeds(0, 5)
    assert a == b
    assert len(set(a)) == 5
    assert batch_seeds(1, 5) != a


def test_batch_aggregate_shape():
    cfg = small_cfg(seed=0)
    res = run_batch(cfg, episodes=2, collect_logs=False)
    assert res.episodes == 2
    for kind in PlannerKind:
        agg = res.aggregate(kind)
        assert agg["episodes"] == 2
        assert agg["kind"] == kind.value
        rows = res.kind_rows(kind)
        assert agg["total_duration_s"] == pytest.approx(
            sum(r.metrics.flight_duration_s for r in rows)
        )
        # distance-weighted NLoS ratio, not a mean of ratios
        want = sum(
            r.metrics.nlos_distance_ratio * r.metrics.flight_distance_m for r in rows
        ) / agg["total_distance_m"]
        assert agg["nlos_distance_ratio"] == pytest.approx(want)


def test_batch_shares_scenarios_across_kinds():
    cfg = small_cfg(seed=0)
    res = run_batch(cfg, episodes=2, collect_logs=False)
    by_ep = {}
    for row in res.rows:
        by_ep.setdefault(row.episode, set()).add(row.scenario_seed)
    for ep, seeds in by_ep.items():
        assert len(seeds) == 1


def test_global_arm_estimates_the_truth_state_from_the_first_tick():
    # this city's first tick comes before its first sensing frame
    cfg = with_seed(default_config(), batch_seeds(0, 6)[0])
    sc = build_scenario(cfg.scenario, cfg.planner.safety_margin_cells)
    metrics, log = run_episode(sc, PlannerKind.GLOBAL, cfg)
    assert metrics.reached
    true_col, est_col = (TrajectoryLog.COLUMNS.index(c) for c in ("true_state", "est_state"))
    assert [r[est_col] for r in log.rows] == [r[true_col] for r in log.rows]
