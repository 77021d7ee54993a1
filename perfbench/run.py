"""Benchmark for edgeflight: seeded missions flown through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 50 --trace 0

Each run builds its cities from `--seed` (`build_scenario`, then
`ray_table_for` for every base station), flies every (city, arm) episode with
`run_episode` in this one process, frees the city, and checks the outcomes.
`--trace 0` repeats whole passes for about `--seconds` seconds and reports the
end-to-end metrics as medians over passes. `--trace 1` flies one untraced pass
and one traced pass, each half as long, reports per-layer metrics from the
traced one and the tracing overhead between the two. Times are in reference
seconds, host seconds scaled by a host-speed probe (hostspeed.py). The last
line of standard output is the JSON result; README.md in this directory
describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = HERE / "expected.json"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
from spans import SETUP, Tracer  # noqa: E402

MAX_CITIES = 1000  # seeds drawn up front; a pass stops long before using them all
SETUP_REPEATS = 3  # builds per city in an untraced run; setup_s sums the per-city medians


@dataclasses.dataclass(frozen=True)
class Workload:
    preset: str                 # edgeflight preset the configs start from
    arms: tuple[str, ...]       # policy arms flown on every city, in order
    pass_ticks: int             # a pass flies seeded cities until this many ticks are done
    overrides: dict = dataclasses.field(default_factory=dict)  # config sections to patch


# Why each workload exists is in README.md. A pass ends after a fixed amount of
# simulated flight, not a fixed number of cities, so that host time per pass
# measures speed rather than how long the seed's missions happen to be. Cities
# differ a lot in cost per tick (where the route lies relative to the base
# stations sets the ray lengths), so one pass holds as many cities as a 50 s
# run allows on a 2-core host: about 40 on `oracle`, and 23 on `open-field`,
# whose missions are cut from the flat preset's 320 m to 80 m to fit that many.
WORKLOADS = {
    "oracle": Workload("default", ("global",), 40000),
    "open-field": Workload("flat", ("baseline", "explored"), 2400,
                           {"scenario": {"endpoint_distance_m": [80.0, 80.0]}}),
    "three-arm": Workload("default", ("baseline", "explored", "global"), 4000),
}

UNITS = {
    "wall_s": "s", "ticks_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "ticks_per_s.baseline": "1/s", "ticks_per_s.explored": "1/s", "ticks_per_s.global": "1/s",
    "failed_ratio": "ratio", "duration_ratio": "ratio", "oracle_gap": "ratio",
    "worldmap.classify_s": "s", "worldmap.classify_calls": "count",
    "worldmap.rays_classified": "count", "worldmap.crossings_scanned": "count",
    "worldmap.sense_s": "s", "worldmap.sense_calls": "count",
    "radiomap.ensure_layer_s": "s", "radiomap.ensure_layer_calls": "count",
    "radiomap.update_around_s": "s", "radiomap.update_around_calls": "count",
    "radiomap.csi_s": "s", "radiomap.self_s": "s", "radiomap.changed_ratio": "ratio",
    "planner.plan_s": "s", "planner.plans": "count", "planner.self_s": "s",
    "planner.dijkstra_s": "s", "planner.field_rebuilds": "count",
    "planner.field_hit_ratio": "ratio", "planner.forbidden_s": "s",
    "planner.forbidden_calls": "count", "planner.invalidated_s": "s",
    "linkfield.downlink_s": "s", "linkfield.downlink_calls": "count",
    "linkfield.uplink_s": "s", "linkfield.truthlink_init_s": "s", "linkfield.ray_table_s": "s",
    "scenario.build_s": "s", "offload.governor_s": "s",
    "simcore.ticks": "count", "simcore.episodes": "count", "simcore.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


@dataclasses.dataclass
class Episode:
    city: int
    arm: str
    metrics: object   # edgeflight Metrics
    ticks: int
    host_s: float      # host seconds
    ref_s: float       # the same time in reference seconds (hostspeed.py)
    straight_m: float  # start-goal distance, a lower bound on flight distance


@dataclasses.dataclass
class Pass:
    episodes: list[Episode]
    setup_s: list[float]       # per city, median over its builds, reference seconds
    setup_host_s: list[float]  # the same in host seconds

    @property
    def cities(self) -> int:
        return len(self.setup_s)

    @property
    def wall_s(self) -> float:
        return sum(e.ref_s for e in self.episodes)

    @property
    def host_wall_s(self) -> float:
        return sum(e.host_s for e in self.episodes)

    def arm_rate(self, arm: str | None = None) -> float:
        eps = [e for e in self.episodes if arm is None or e.arm == arm]
        return sum(e.ticks for e in eps) / sum(e.ref_s for e in eps)

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for e in self.episodes:
            h.update(f"{e.city} {e.arm} {dataclasses.astuple(e.metrics)!r} {e.ticks}\n".encode())
        return h.hexdigest()[:16]

    @property
    def ticks(self) -> int:
        return sum(e.ticks for e in self.episodes)


# ---- the simulator, imported and driven only through its public modules ----

def load_edgeflight():
    """Import edgeflight from this checkout's `src`, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import edgeflight
    from edgeflight import linkfield, planner, radiomap, scenario, simcore, worldmap  # noqa: F401

    if Path(edgeflight.__file__).resolve().parent != (SRC / "edgeflight").resolve():
        raise SystemExit(f"perfbench: edgeflight imported from {edgeflight.__file__}, not {SRC}")
    return edgeflight


def workload_config(ef, wl: Workload, seed: int):
    d = ef.config_to_dict(ef.preset_config(wl.preset, seed))
    for section, values in wl.overrides.items():
        d[section].update(values)
    return ef.config_from_dict(d)


def city_configs(ef, cfg) -> list:
    """Per-city scenario configs, seeded the way run_batch seeds its episodes."""
    seeds = ef.simcore.batch_seeds(cfg.scenario.rng_seed, MAX_CITIES)
    return [dataclasses.replace(cfg.scenario, rng_seed=s) for s in seeds]


def fly_pass(ef, cfg, cities, arms, probe: hostspeed.Probe, min_ticks: int | None = None,
             setup_repeats: int = 1, tracer: Tracer | None = None) -> Pass:
    """Build each city, fly every arm on it, then free it with its ray tables.

    Stops after the first city that brings the pass to `min_ticks` ticks, or
    after the last city when `min_ticks` is None. `probe` runs after a city's
    builds and after each episode, and scales them to reference seconds.
    """
    clock = time.perf_counter
    episodes: list[Episode] = []
    setup: list[float] = []
    setup_host: list[float] = []
    for c, scfg in enumerate(cities):
        if tracer is not None:
            tracer.episode = SETUP
        builds = []
        for _ in range(setup_repeats):
            scenario = None  # drop the previous build before making the next
            t = clock()
            scenario = ef.scenario.build_scenario(scfg)
            for b in range(len(scenario.bs_positions)):
                ef.linkfield.ray_table_for(scenario, b, scenario.cfg.uav_altitude_m)
            builds.append(clock() - t)
        setup_host.append(statistics.median(builds))
        setup.append(setup_host[-1] * probe.speed())
        straight = float(((scenario.goal[:2] - scenario.start[:2]) ** 2).sum() ** 0.5)
        for arm in arms:
            if tracer is not None:
                tracer.episode = len(episodes)
            kind = ef.PlannerKind(arm)
            t = clock()
            metrics, _ = ef.simcore.run_episode(scenario, kind, cfg, collect_log=False)
            host = clock() - t
            ticks = round(metrics.flight_duration_s / cfg.sim.tick_s)
            episodes.append(Episode(c, arm, metrics, ticks, host, host * probe.speed(), straight))
        del scenario
        gc.collect()
        if min_ticks is not None and sum(e.ticks for e in episodes) >= min_ticks:
            break
    return Pass(episodes, setup, setup_host)


def check_outcomes(p: Pass) -> list[str]:
    problems = []
    for e in p.episodes:
        m = e.metrics
        where = f"city {e.city} arm {e.arm}"
        if not m.reached:
            problems.append(f"{where}: goal not reached")
        if m.flight_distance_m < e.straight_m - 1e-6:
            problems.append(f"{where}: flew {m.flight_distance_m} m, less than the "
                            f"{e.straight_m} m between start and goal")
        if not 0.0 <= m.nlos_distance_ratio <= 1.0:
            problems.append(f"{where}: NLoS distance ratio {m.nlos_distance_ratio} outside [0, 1]")
    return problems


# ---- tracing targets: where the simulator looks each layer's calls up ----

def trace_targets(ef, tracer: Tracer) -> list[tuple]:
    sim = ef.simcore
    RayTable, RadioMap = ef.worldmap.RayTable, ef.radiomap.RadioMap
    Planner, TruthLink = ef.planner.Planner, ef.linkfield.TruthLink

    def rays_after(_, args, result):
        table, rays = args[0], args[1]
        tracer.count("rays", len(rays))
        tracer.count("crossings", (table.offsets[rays + 1] - table.offsets[rays]).sum())

    def grid_before(args):
        return args[0].state_grid.copy()

    def grid_after(before, args, result):
        tracer.count("changed", (before != args[0].state_grid).sum())

    return [
        (RayTable, "classify_subset", "worldmap.classify", None, rays_after),
        (sim, "sense", "worldmap.sense", None, None),
        (RadioMap, "__init__", "radiomap.init", None, None),
        (RadioMap, "ensure_layer_evaluated", "radiomap.ensure_layer", grid_before, grid_after),
        (RadioMap, "update_around", "radiomap.update_around", grid_before, grid_after),
        (RadioMap, "csi_correct", "radiomap.csi", None, None),
        (RadioMap, "state_at", "radiomap.state_at", None, None),
        (Planner, "__init__", "planner.init", None, None),
        (Planner, "plan", "planner.plan", None, None),
        (Planner, "forbidden_mask", "planner.forbidden", None, None),
        (ef.planner.csgraph, "dijkstra", "planner.dijkstra", None, None),
        (sim, "segment_invalidated", "planner.invalidated", None, None),
        (sim, "replan_due", "planner.replan_due", None, None),
        (TruthLink, "__init__", "linkfield.truthlink_init", None, None),
        (TruthLink, "downlink", "linkfield.downlink", None, None),
        (TruthLink, "uplink_capacity", "linkfield.uplink", None, None),
        (TruthLink, "serving_state", "linkfield.serving_state", None, None),
        (sim, "ray_table_for", "linkfield.ray_table", None, None),
        (ef.linkfield, "ray_table_for", "linkfield.ray_table", None, None),
        (ef.scenario, "build_scenario", "scenario.build", None, None),
        (sim, "remote_update_rate", "offload.remote_update_rate", None, None),
        (sim, "select_mode", "offload.select_mode", None, None),
        (sim, "speed_limit", "offload.speed_limit", None, None),
        (sim, "run_episode", "simcore.run_episode", None, None),
    ]


SETUP_SPANS = {"scenario.build", "linkfield.ray_table"}
SETUP_ONLY = {"scenario.build"}
EXPLORED_ONLY = {"radiomap.ensure_layer"}  # the other arms price from static grids


def missing_layers(agg: dict, arms, span_names: set[str]) -> list[str]:
    """Spans expected on this workload that recorded no call, as "group: name"."""
    expected = {"setup": SETUP_SPANS}
    for arm in arms:
        skip = SETUP_ONLY | (EXPLORED_ONLY if arm != "explored" else set())
        expected[arm] = span_names - skip
    return [f"{group}: {name}" for group, names in expected.items()
            for name in sorted(names) if agg[group].get(name, [0])[0] == 0]


def layer_metrics(agg: dict, counts: dict, ticks: int, episodes: int) -> dict:
    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def self_of(prefix):
        return sum(v[2] for k, v in agg.items() if k.startswith(prefix))

    rays = counts.get("rays", 0)
    plans = calls("planner.plan")
    rebuilds = calls("planner.dijkstra")
    return {
        "worldmap.classify_s": total("worldmap.classify"),
        "worldmap.classify_calls": calls("worldmap.classify"),
        "worldmap.rays_classified": rays,
        "worldmap.crossings_scanned": counts.get("crossings", 0),
        "worldmap.sense_s": total("worldmap.sense"),
        "worldmap.sense_calls": calls("worldmap.sense"),
        "radiomap.ensure_layer_s": total("radiomap.ensure_layer"),
        "radiomap.ensure_layer_calls": calls("radiomap.ensure_layer"),
        "radiomap.update_around_s": total("radiomap.update_around"),
        "radiomap.update_around_calls": calls("radiomap.update_around"),
        "radiomap.csi_s": total("radiomap.csi"),
        "radiomap.self_s": self_of("radiomap."),
        "radiomap.changed_ratio": counts.get("changed", 0) / rays if rays else 0.0,
        "planner.plan_s": total("planner.plan"),
        "planner.plans": plans,
        "planner.self_s": self_of("planner."),
        "planner.dijkstra_s": total("planner.dijkstra"),
        "planner.field_rebuilds": rebuilds,
        "planner.field_hit_ratio": 1.0 - rebuilds / plans if plans else 0.0,
        "planner.forbidden_s": total("planner.forbidden"),
        "planner.forbidden_calls": calls("planner.forbidden"),
        "planner.invalidated_s": total("planner.invalidated"),
        "linkfield.downlink_s": total("linkfield.downlink"),
        "linkfield.downlink_calls": calls("linkfield.downlink"),
        "linkfield.uplink_s": total("linkfield.uplink"),
        "linkfield.truthlink_init_s": total("linkfield.truthlink_init"),
        "linkfield.ray_table_s": total("linkfield.ray_table"),
        "scenario.build_s": total("scenario.build"),
        "offload.governor_s": sum(total(n) for n in agg if n.startswith("offload.")),
        "simcore.ticks": ticks,
        "simcore.episodes": episodes,
        "simcore.self_s": self_of("simcore."),
    }


def traced_run(ef, cfg, cities, wl: Workload, probe: hostspeed.Probe, t0: float,
               spans_path: Path):
    """One untraced and one traced pass, each half as long as an untraced run's.

    Returns (passes, metrics, per-arm metrics, spans, problems), where spans
    maps each arm, and "setup", to {span name: [calls, total_s, self_s]}.
    Span times are scaled to reference seconds by the host speed measured
    around the episode, or around the builds for setup spans.
    """
    arms = wl.arms
    plain = fly_pass(ef, cfg, cities, arms, probe, max(1, wl.pass_ticks // 2))
    tracer = Tracer()
    targets = trace_targets(ef, tracer)
    with tracer.installed(targets):
        traced = fly_pass(ef, cfg, cities[:plain.cities], arms, probe, tracer=tracer)
    tracer.write_csv(spans_path, t0)

    arm_of = {i: e.arm for i, e in enumerate(traced.episodes)}

    def group_of(ep):
        return "setup" if ep == SETUP else arm_of[ep]

    speed = {i: e.ref_s / e.host_s for i, e in enumerate(traced.episodes)}
    speed[SETUP] = sum(traced.setup_s) / sum(traced.setup_host_s)
    agg: dict = collections.defaultdict(lambda: collections.defaultdict(lambda: [0, 0.0, 0.0]))
    for ep, table in tracer.aggregate(lambda ep: ep).items():
        for group in (group_of(ep), "all"):
            for name, (n, total, self_s) in table.items():
                row = agg[group][name]
                row[0] += n
                row[1] += total * speed[ep]
                row[2] += self_s * speed[ep]
    everything = agg.pop("all")
    counts: dict = collections.defaultdict(collections.Counter)
    for (ep, key), n in tracer.counts.items():
        counts[group_of(ep)][key] += n
    problems = [f"traced run recorded no call to {m}"
                for m in missing_layers(agg, arms, {t[2] for t in targets})]
    if traced.digest != plain.digest:
        problems.append(f"traced outcome digest {traced.digest} differs from untraced {plain.digest}")

    metrics = layer_metrics(everything,
                            sum(counts.values(), collections.Counter()),
                            traced.ticks, len(traced.episodes))
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    per_arm = {}
    for arm in arms:
        eps = [e for e in traced.episodes if e.arm == arm]
        m = layer_metrics(agg[arm], counts[arm], sum(e.ticks for e in eps), len(eps))
        per_arm.update({f"{k}.{arm}": v for k, v in m.items()})
    return [plain, traced], metrics, per_arm, agg, problems


def untraced_run(ef, cfg, cities, wl: Workload, probe: hostspeed.Probe, seconds: float,
                 import_s: float):
    """Repeat the first pass's cities while the next pass, judged by the last, fits."""
    clock = time.perf_counter
    arms = wl.arms
    start = clock()
    passes = [fly_pass(ef, cfg, cities, arms, probe, wl.pass_ticks, SETUP_REPEATS)]
    cities = cities[:passes[0].cities]
    last = clock() - start
    while clock() - start + last <= seconds:
        t = clock()
        passes.append(fly_pass(ef, cfg, cities, arms, probe, setup_repeats=SETUP_REPEATS))
        last = clock() - t
    typical = median_pass(passes)
    metrics = {
        "wall_s": typical.wall_s,
        "ticks_per_s": typical.arm_rate(),
        "setup_s": import_s + sum(typical.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_arm = {f"ticks_per_s.{a}": typical.arm_rate(a) for a in arms}
    return passes, metrics, per_arm


def median_pass(passes: list[Pass]) -> Pass:
    """Each episode's and each city's median time over passes of the same cities.

    A per-episode median drops the passes where the host-speed scaling of
    that episode missed a change of speed in the middle of it.
    """
    med = statistics.median
    first = passes[0]
    episodes = [dataclasses.replace(e, host_s=med(p.episodes[i].host_s for p in passes),
                                    ref_s=med(p.episodes[i].ref_s for p in passes))
                for i, e in enumerate(first.episodes)]
    return Pass(episodes, [med(p.setup_s[c] for p in passes) for c in range(first.cities)],
                [med(p.setup_host_s[c] for p in passes) for c in range(first.cities)])


def outcome_metrics(p: Pass, arms) -> dict:
    """Simulated-time comparison of the arms; identical on every pass of a seed."""
    def mean_duration(arm):
        d = [e.metrics.flight_duration_s for e in p.episodes if e.arm == arm]
        return sum(d) / len(d)

    out = {"failed_ratio": sum(not e.metrics.reached for e in p.episodes) / len(p.episodes)}
    if "baseline" in arms and "explored" in arms:
        out["duration_ratio"] = mean_duration("explored") / mean_duration("baseline")
    if "explored" in arms and "global" in arms:
        g = mean_duration("global")
        out["oracle_gap"] = (mean_duration("explored") - g) / g
    return out


# ---- provenance and output ----

def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def provenance(ef, cfg, cities, wl: Workload, args) -> dict:
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "edgeflight": ef.__version__,
        "git_revision": git_revision(),
        "workload": args.workload,
        "preset": wl.preset,
        "arms": list(wl.arms),
        "seed": args.seed,
        "city_seeds": [c.rng_seed for c in cities],
        "config_digest": ef.config_digest(cfg),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def reference_check(workload: str, seed: int, trace: int, digest: str, ticks: int) -> str:
    """Compare the first pass with the one recorded for this seed.

    A traced run's first pass is half as long, so it has its own record.
    """
    key = f"{seed} traced" if trace else str(seed)
    try:
        ref = json.loads(EXPECTED_JSON.read_text()).get(workload, {}).get(key)
    except (OSError, json.JSONDecodeError):
        ref = None
    if ref is None:
        return "no reference recorded for this workload and seed"
    if ref == {"digest": digest, "ticks": ticks}:
        return "matches the recorded reference"
    return f"DIFFERS from the recorded reference {ref}"


def print_metrics(title: str, metrics: dict) -> None:
    """One line per metric: name, value, unit. Per-arm names carry an arm suffix."""
    print(f"-- {title}")
    for name, value in metrics.items():
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
        unit = UNITS.get(name) or UNITS[name.rsplit(".", 1)[0]]
        print(f"{name:<40} {text:>18} {unit}")


def declared_metrics(trace: int) -> list[str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    if not (SRC / "edgeflight" / "__init__.py").is_file():
        print(f"perfbench: no edgeflight sources under {SRC}", file=sys.stderr)
        return 2
    if not BENCHMARK_JSON.is_file():
        print(f"perfbench: {BENCHMARK_JSON} is missing", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    ef = load_edgeflight()
    import_s = time.perf_counter() - t0
    probe = hostspeed.Probe()
    import_s *= hostspeed.REF_S / probe.last_s

    wl = workloads[args.workload]
    cfg = workload_config(ef, wl, args.seed)
    cities = city_configs(ef, cfg)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")

    if args.trace:
        passes, metrics, per_arm, spans, problems = traced_run(
            ef, cfg, cities, wl, probe, t0, stem.with_suffix(".spans.csv"))
        metrics["wall_s"] = passes[0].wall_s
    else:
        passes, metrics, per_arm = untraced_run(ef, cfg, cities, wl, probe, args.seconds, import_s)
        spans, problems = {}, []
    prov = provenance(ef, cfg, cities[:passes[0].cities], wl, args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for p in passes:
        problems += check_outcomes(p)
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        problems.append(f"outcome digests differ between passes: {digests}")
    outcomes = outcome_metrics(passes[0], wl.arms)

    for i, p in enumerate(passes):
        print(f"pass {i}: wall {p.wall_s:.3f} s, setup {sum(p.setup_s):.3f} s in reference "
              f"seconds; {p.host_wall_s:.3f} s and {sum(p.setup_host_s):.3f} s on the host; "
              f"{len(p.episodes)} episodes, {p.ticks} ticks, digest {p.digest}")
    print_metrics("end to end" if not args.trace else "per layer, all arms", metrics)
    print_metrics("per arm", per_arm)
    print_metrics("outcomes (simulated time)", outcomes)
    for group, table in spans.items():
        print(f"-- spans, {group}: calls, total s, self s")
        for name, (n, total, self_s) in sorted(table.items()):
            print(f"{name:<40} {n:>8d} {total:>12.6f} {self_s:>12.6f}")
    ref = reference_check(args.workload, args.seed, args.trace, passes[0].digest, passes[0].ticks)
    print(f"outcome digest {passes[0].digest}, {passes[0].ticks} ticks: {ref}")
    for msg in problems:
        print(f"INCORRECT: {msg}")

    report = {"provenance": prov, "metrics": metrics, "per_arm": per_arm, "outcomes": outcomes,
              "digest": passes[0].digest, "ticks": passes[0].ticks, "reference": ref,
              "problems": problems, "spans": spans,
              "passes": [{"wall_s": p.wall_s, "setup_s": p.setup_s, "digest": p.digest,
                          "host_wall_s": p.host_wall_s, "setup_host_s": p.setup_host_s,
                          "episode_s": [e.ref_s for e in p.episodes],
                          "episode_host_s": [e.host_s for e in p.episodes]} for p in passes]}
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    episodes = sum(len(p.episodes) for p in passes)
    result = {
        "correct": not problems,
        "attempted": episodes,
        "failed": sum(not e.metrics.reached for p in passes for e in p.episodes),
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in declared_metrics(args.trace)},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
