"""One city, one mission, three policies.

Builds the showcase scenario, flies the blind baseline, the self-built-map
policy, and the full-knowledge oracle over the same world, then prints a
comparison table and a coarse ASCII overlay of the three routes.

Run:  python3 demos/single_mission.py
"""

import numpy as np

from edgeflight import build_scenario, example_config, run_episode
from edgeflight.planner import PlannerKind

cfg = example_config(seed=7)
scenario = build_scenario(cfg.scenario, cfg.planner.safety_margin_cells)

print(f"city: {cfg.scenario.map_size_m[0]:.0f} x {cfg.scenario.map_size_m[1]:.0f} m, "
      f"start-goal separation "
      f"{np.linalg.norm(scenario.goal[:2] - scenario.start[:2]):.0f} m")
print(f"serving BS at {scenario.bs_positions[scenario.serving_bs][:2]}")
print()

results = {}
logs = {}
for kind in PlannerKind:
    metrics, log = run_episode(scenario, kind, cfg)
    results[kind] = metrics
    logs[kind] = log

print(f"{'policy':10s} {'distance':>9s} {'duration':>9s} {'uplink':>8s} {'nlos':>6s}")
for kind, m in results.items():
    print(f"{kind.value:10s} {m.flight_distance_m:7.0f} m {m.flight_duration_s:7.1f} s "
          f"{m.avg_uplink_capacity_bps / 1e6:5.1f} Mbps {m.nlos_distance_ratio * 100:5.1f}%")

# ---- ASCII overlay: #/. = building/street, B = serving BS, 1/2/3 = routes ----

down = 2  # cells per character
truth = scenario.truth
nx, ny = truth.width_cells, truth.depth_cells
canvas = np.full((nx // down, ny // down), ".", dtype=object)
for ix in range(nx // down):
    for iy in range(ny // down):
        block = truth.heights[ix * down:(ix + 1) * down, iy * down:(iy + 1) * down]
        if block.max() > 0:
            canvas[ix, iy] = "#"

marks = {PlannerKind.BASELINE: "1", PlannerKind.EXPLORED: "2", PlannerKind.GLOBAL: "3"}
for kind, log in logs.items():
    for row in log.rows:
        cx, cy = truth.cell_of((row[1], row[2], 0.0))
        canvas[cx // down, cy // down] = marks[kind]

bs = scenario.bs_positions[scenario.serving_bs]
bx, by = truth.cell_of(bs)
canvas[bx // down, by // down] = "B"
sx, sy = truth.cell_of(scenario.start)
gx, gy = truth.cell_of(scenario.goal)
canvas[sx // down, sy // down] = "S"
canvas[gx // down, gy // down] = "G"

print()
print("S start, G goal, B serving BS, # buildings; routes: 1 baseline, "
      "2 explored, 3 global (later overdraws earlier)")
for iy in range(canvas.shape[1] - 1, -1, -1):
    print("".join(canvas[ix, iy] for ix in range(canvas.shape[0])))
