"""Release gates: end-to-end checks of the simulator's headline claims.

One test per gate, in checklist order. Each prints a single summary line with
the measured numbers, so `pytest -v` doubles as the release report. The
expensive 20-episode comparison batch runs once at module scope and feeds both
the ordering gate and the safety gate.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

import edgeflight as ef
from edgeflight.channel import LinkState
from edgeflight.cli import EXIT_OK, main
from edgeflight.config import config_to_dict
from edgeflight.offload import OffloadConfig, remote_update_rate, speed_limit
from edgeflight.linkfield import TruthLink, layer_offsets
from edgeflight.planner import PlanConfig, Planner, PlannerKind
from edgeflight.radiomap import _STATE_CODE, MISSING, RadioMap
from edgeflight.scenario import ScenarioConfig, build_scenario, generate_city
from edgeflight.worldmap import ExploredMap, RayTable, SensorModel, sense
from oracles import (
    RayResult,
    enumerate_best_path_cost,
    fine_sample_blocked,
    path_cost,
    ray_blocked,
    ray_blocked_grid,
    relaxed_cost_to_go,
    serving_link_speed_limit,
)
from test_planner import make_planner, make_world, planner_pen, random_world

MASTER_SEED = 0
BATCH_EPISODES = 20
BATCH_BUDGET_S = 300.0


@pytest.fixture(scope="module")
def comparison_batch():
    cfg = ef.default_config(seed=MASTER_SEED)
    t0 = time.perf_counter()
    result = ef.run_batch(cfg, episodes=BATCH_EPISODES, collect_logs=True)
    wall = time.perf_counter() - t0
    return cfg, result, wall


def test_01_speed_governor_reference_point():
    # 10 Mbps uplink, 1 Mbit frames, no processing or feedback delay,
    # 2 frames needed per meter: exactly 10 fps and exactly 5 m/s.
    oc = OffloadConfig(frame_bits=1.0e6, feedback_bits=0.0, remote_processing_s=0.0,
                       frames_per_meter=2.0)
    fps = remote_update_rate(1.0e7, 1.0, oc)
    v = speed_limit(fps, oc)
    assert fps == 10.0
    assert v == 5.0
    print(f"\nPASS governor reference point: {fps:.0f} fps -> {v:.3f} m/s")


def test_02_ray_casts_match_fine_sampling():
    # A fixed-step oracle cannot see crossings narrower than its step, so a
    # cell_size/10 disagreement is adjudicated at cell_size/1000 before it
    # counts. The ray casters must win every adjudication; demanding they
    # reproduce the coarse oracle's blind spots would reward missing real
    # sub-step blockages. Both the exact scalar traversal (free endpoints) and
    # the production RayTable (one origin per city, cell-centre targets at
    # flight altitude) are checked directly against the sampling oracle.
    checked = {"traversal": 0, "table": 0}
    escalated = {"traversal": 0, "table": 0}
    table_blocked = 0

    def check(kind, got, heights, s, a, b, city_seed):
        want = fine_sample_blocked(heights, s, a, b)
        if got != want:
            escalated[kind] += 1
            want = fine_sample_blocked(heights, s, a, b, step_divisor=1000)
        assert got == want, f"{kind} verdict diverged at seed {city_seed}: {a} -> {b}"
        checked[kind] += 1

    for city_seed in range(10):
        cfg = ScenarioConfig(rng_seed=100 + city_seed)
        sc = build_scenario(cfg)
        truth = sc.truth
        s = cfg.cell_size_m
        full = ExploredMap.fully_known(truth)
        rng = np.random.default_rng(city_seed)
        w, d = cfg.map_size_m
        for _ in range(100):
            a = np.array([rng.uniform(0, w), rng.uniform(0, d), rng.uniform(1, 80)])
            b = np.array([rng.uniform(0, w), rng.uniform(0, d), rng.uniform(1, 80)])
            got = ray_blocked(full, a, b) is RayResult.BLOCKED
            check("traversal", got, truth.heights, s, a, b, city_seed)

        origin = np.array([rng.uniform(0, w), rng.uniform(0, d), rng.uniform(1, 80)])
        alt = cfg.uav_altitude_m
        table = RayTable(origin, truth.width_cells, truth.depth_cells, s, alt)
        ix = rng.integers(0, truth.width_cells, size=100)
        iy = rng.integers(0, truth.depth_cells, size=100)
        blocked, crosses = table.classify_subset(ix * truth.depth_cells + iy,
                                                 full.known, full.heights)
        assert not crosses.any()
        table_blocked += int(blocked.sum())
        for i, j, got in zip(ix, iy, blocked):
            tgt = np.array([(i + 0.5) * s, (j + 0.5) * s, alt])
            check("table", bool(got), truth.heights, s, origin, tgt, city_seed)
    # blind-spot grazes are rare; more means a real bug
    assert escalated["traversal"] <= 10
    assert escalated["table"] <= 10
    print(f"\nPASS ray casting: traversal {checked['traversal']}/1000 and RayTable "
          f"{checked['table']}/1000 ({table_blocked} blocked) queries match the "
          f"sampling oracle ({escalated['traversal']} and {escalated['table']} "
          f"sub-step grazes adjudicated at 100x resolution)")


def test_03_three_arm_ordering(comparison_batch):
    cfg, result, wall = comparison_batch
    b = result.aggregate(PlannerKind.BASELINE)
    e = result.aggregate(PlannerKind.EXPLORED)
    g = result.aggregate(PlannerKind.GLOBAL)
    assert b["stuck_episodes"] == e["stuck_episodes"] == g["stuck_episodes"] == 0

    dur_ratio = e["mean_duration_s"] / b["mean_duration_s"]
    nlos_ratio = e["nlos_distance_ratio"] / b["nlos_distance_ratio"]
    cap_ratio = e["avg_uplink_capacity_bps"] / b["avg_uplink_capacity_bps"]
    oracle_gap = abs(e["mean_duration_s"] - g["mean_duration_s"]) / g["mean_duration_s"]

    assert dur_ratio <= 0.90
    assert nlos_ratio <= 0.75
    assert cap_ratio >= 1.0
    assert oracle_gap <= 0.10
    assert wall < BATCH_BUDGET_S
    print(
        f"\nPASS three-arm ordering over {BATCH_EPISODES} episodes: "
        f"duration x{dur_ratio:.3f} (<=0.90), nlos x{nlos_ratio:.3f} (<=0.75), "
        f"capacity x{cap_ratio:.3f} (>=1.0), oracle gap {oracle_gap:.1%} (<=10%), "
        f"{wall:.0f}s (<{BATCH_BUDGET_S:.0f}s)"
    )


def test_04_committed_cost_is_the_exhaustive_optimum():
    # 25 solvable worlds; the committed cells, priced edge by edge under the
    # planner's cost model, must cost an independently computed optimum.
    # Tiny worlds are additionally checked against literal enumeration of
    # every simple path. Equality tolerance is 1e-9 relative: the reference
    # sums the same floats in a different order.
    rng = np.random.default_rng(2024)
    pc = PlanConfig(horizon_s=1e9)
    solved = 0
    enumerated = 0
    while solved < 25:
        if solved < 9:
            nx = ny = 5
            p_obs = 0.12
        else:
            nx = ny = int(rng.integers(10, 21))
            p_obs = 0.2
        heights, bs_c, start_c, goal_c = random_world(rng, nx, ny, p_obstacle=p_obs)
        sc = make_world(heights, bs_c, start_c, goal_c)
        pl = make_planner(sc, PlannerKind.GLOBAL, pc=pc)
        limits, pen = planner_pen(pl)
        forb = pl.forbidden_mask()
        want = relaxed_cost_to_go(limits, pen, forb, goal_c, 5.0)[start_c]
        if not np.isfinite(want):
            continue
        seg = pl.plan(sc.start)
        assert seg.reaches_goal
        cost = path_cost(seg.cells, limits, pen, 5.0)
        assert cost == pytest.approx(float(want), rel=1e-9)
        if nx <= 5:
            brute = enumerate_best_path_cost(limits, pen, forb, start_c, goal_c, 5.0)
            assert cost == pytest.approx(float(brute), rel=1e-9)
            enumerated += 1
        solved += 1
    print(f"\nPASS planner optimality: 25/25 worlds at the oracle optimum "
          f"({enumerated} of them fully enumerated)")


def test_05_building_heights_follow_the_configured_distribution():
    cfg = ScenarioConfig(map_size_m=(1000.0, 1000.0), building_footprint_m=20.0,
                         street_width_m=30.0)
    samples = []
    seed = 0
    while sum(len(s) for s in samples) < 100_000:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        field_ = generate_city(cfg, rng)
        h = field_.heights
        samples.append(np.unique(h[h > 0]))  # one height per block, a.s. distinct
        seed += 1
    draws = np.concatenate(samples)[:100_000]
    expected_mean = 35.0 * math.sqrt(math.pi / 2.0)
    rel_err = abs(float(draws.mean()) - expected_mean) / expected_mean
    ks = stats.kstest(draws, "rayleigh", args=(0.0, 35.0))
    assert rel_err < 0.01
    assert ks.pvalue > 0.01
    print(f"\nPASS height distribution: mean {draws.mean():.2f} m "
          f"(expected {expected_mean:.2f}, off by {rel_err:.2%}), KS p={ks.pvalue:.3f}")


def test_06_full_knowledge_map_equals_truth_ray_casting():
    sc = build_scenario(ScenarioConfig(rng_seed=42))
    alt = sc.cfg.uav_altitude_m
    truth = sc.truth
    full = ExploredMap.fully_known(truth)
    bs = sc.bs_positions[sc.serving_bs]
    table = RayTable(bs, truth.width_cells, truth.depth_cells, truth.cell_size_m, alt)
    rm = RadioMap(table, full)
    rm.ensure_layer_evaluated()

    want_blocked = ray_blocked_grid(truth, bs, alt)
    want_codes = np.where(want_blocked, _STATE_CODE[LinkState.NLOS],
                          _STATE_CODE[LinkState.LOS])
    assert not np.any(rm.state_grid == MISSING)
    assert not np.any(rm.state_grid == _STATE_CODE[LinkState.ASSUMED_LOS])
    mismatches = int(np.sum(rm.state_grid != want_codes))
    assert mismatches == 0
    n = truth.width_cells * truth.depth_cells
    print(f"\nPASS full-knowledge equivalence: {n}/{n} cells match truth ray casting")


def test_07_partial_map_estimates_are_never_pessimistic():
    params = ef.ChannelParams()
    oc = OffloadConfig()
    sensor = SensorModel()
    checked = 0
    for city_seed in range(10):
        sc = build_scenario(ScenarioConfig(rng_seed=200 + city_seed))
        truth = sc.truth
        alt = sc.cfg.uav_altitude_m
        explored = ExploredMap(truth.width_cells, truth.depth_cells, truth.cell_size_m)
        bs = sc.bs_positions[sc.serving_bs]
        table = RayTable(bs, truth.width_cells, truth.depth_cells, truth.cell_size_m, alt)
        rm = RadioMap(table, explored)
        pl = Planner(PlannerKind.EXPLORED, sc, explored, rm, TruthLink(sc, params, alt),
                     params, oc, PlanConfig())

        rng = np.random.default_rng(city_seed)
        w, d = sc.cfg.map_size_m
        for _ in range(30):
            pos = np.array([rng.uniform(0, w), rng.uniform(0, d), alt])
            sense(truth, explored, pos, rng.uniform(-180, 180), sensor)
        limits, nlos, _ = pl._grids()  # brings the radio map up to date first
        dist = layer_offsets(bs, truth.width_cells, truth.depth_cells, truth.cell_size_m,
                             alt)[3]

        s = truth.cell_size_m
        ix = rng.integers(0, truth.width_cells, size=1000)
        iy = rng.integers(0, truth.depth_cells, size=1000)
        for i, j in zip(ix, iy):
            tgt = np.array([(i + 0.5) * s, (j + 0.5) * s, alt])
            blocked = ray_blocked(truth, bs, tgt) is RayResult.BLOCKED
            t_limit = serving_link_speed_limit(float(dist[i, j]), blocked, params, oc)
            assert limits[i, j] >= t_limit - 1e-12
            assert blocked or not nlos[i, j]  # no NLoS penalty the truth lacks
            checked += 1
    print(f"\nPASS optimism: {checked}/10000 cell speed limits at or above the truth's")


def test_08_batch_runs_are_byte_identical(tmp_path):
    cfg = ef.default_config(seed=4)
    cfg = dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(
            cfg.scenario, map_size_m=(200.0, 200.0), endpoint_distance_m=(80.0, 160.0)
        ),
    )
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = main(["batch", "--config", str(cfg_path), "--out", str(out),
                   "--episodes", "2", "--export-trajectories"])
        assert rc == EXIT_OK
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    print(f"\nPASS determinism: {len(names)} batch output files byte-identical across runs")


def test_09_no_tick_enters_an_obstacle_cell(comparison_batch):
    cfg, result, _ = comparison_batch
    alt = cfg.scenario.uav_altitude_m
    scenarios = {}
    ticks = 0
    violations = 0
    for row in result.rows:
        if row.episode not in scenarios:
            scenarios[row.episode] = build_scenario(
                dataclasses.replace(cfg.scenario, rng_seed=row.scenario_seed)
            )
        truth = scenarios[row.episode].truth
        log = result.logs[(row.episode, row.kind)]
        for r in log.rows:
            cell = truth.cell_of((r[1], r[2], r[3]))
            if truth.heights[cell] >= alt:
                violations += 1
            ticks += 1
    assert violations == 0
    print(f"\nPASS safety: 0 obstacle-cell entries in {ticks} logged ticks "
          f"({BATCH_EPISODES} episodes x 3 arms)")


def test_10_flat_city_flies_straight_at_full_speed():
    cfg = ef.flat_city_config(seed=11)
    sc = build_scenario(cfg.scenario)
    straight = float(np.linalg.norm(sc.goal[:2] - sc.start[:2]))
    want = straight / cfg.offload.v_max_mps
    tol = 2 * cfg.sim.tick_s + 1e-9
    durs = {}
    for kind in PlannerKind:
        metrics, _ = ef.run_episode(sc, kind, cfg)
        assert metrics.reached
        assert metrics.nlos_distance_ratio == 0.0
        assert abs(metrics.flight_duration_s - want) <= tol, kind
        durs[kind.value] = metrics.flight_duration_s
    shown = ", ".join(f"{k}={v:.1f}s" for k, v in durs.items())
    print(f"\nPASS flat-city kinematics: {straight:.0f} m at v_max -> "
          f"{want:.2f}s expected; {shown}; NLoS 0 everywhere")
