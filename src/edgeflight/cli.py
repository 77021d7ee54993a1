"""Command-line front end: generate worlds, fly missions, run seeded batches.

Subcommands:
    generate  build a scenario and write the height grid + scenario file
    run       fly one scenario with one or more policy arms
    batch     run the seeded scenario sequence and write comparison tables

Exit codes: 0 success; 2 configuration or usage error, a map grid too large
for memory included; 3 a mission failed to reach its goal (stuck). Output
files are deterministic for a given config and seed; headers carry the tool
version, config digest, and master seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .config import (
    PRESETS,
    Config,
    config_digest,
    load_config,
    preset_config,
    with_seed,
)
from .errors import ConfigError, ScenarioError
from .gridfile import save_grid
from .planner import PlannerKind
from .scenario import build_scenario
from .simcore import run_batch, run_episode, time_spec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STUCK = 3

_ALL_KINDS = tuple(PlannerKind)


def _header(cfg: Config, seed: int) -> list[str]:
    return [
        f"edgeflight v{__version__}",
        f"config sha256:{config_digest(cfg)}",
        f"master_seed {seed}",
    ]


def _resolve_config(args) -> Config:
    if args.config and args.preset:
        raise ConfigError("pass either --config or --preset, not both")
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = preset_config(args.preset or "default")
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    return cfg


def _parse_kinds(spec: str) -> tuple[PlannerKind, ...]:
    if spec == "all":
        return _ALL_KINDS
    out = []
    for name in spec.split(","):
        name = name.strip()
        try:
            kind = PlannerKind(name)
        except ValueError:
            raise ConfigError(
                f"unknown planner {name!r}; pick from "
                f"{[k.value for k in _ALL_KINDS]} or 'all'"
            ) from None
        if kind in out:
            raise ConfigError(f"planner {name!r} is listed more than once in --planners")
        out.append(kind)
    return tuple(out)


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {args.out!r} cannot be made a directory: {e.strerror}") from None
    return out


def _scenario_json(scenario) -> dict:
    return {
        "bs_positions": [[float(v) for v in p] for p in scenario.bs_positions],
        "serving_bs": scenario.serving_bs,
        "start": [float(v) for v in scenario.start],
        "goal": [float(v) for v in scenario.goal],
        "rng_seed": scenario.cfg.rng_seed,
    }


def cmd_generate(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args)
    scenario = build_scenario(cfg.scenario, cfg.planner.safety_margin_cells)
    head = _header(cfg, cfg.scenario.rng_seed)
    save_grid(out / "city.grid", scenario.truth.heights,
              scenario.truth.cell_size_m, comments=head)
    doc = {"provenance": head, **_scenario_json(scenario)}
    (out / "scenario.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / 'city.grid'} and {out / 'scenario.json'}")
    return EXIT_OK


def _metrics_row(kind: PlannerKind, m, spec: str) -> str:
    return (
        f"{kind.value},{m.flight_distance_m:.3f},{m.flight_duration_s:{spec}},"
        f"{m.avg_uplink_capacity_bps / 1e6:.6f},{m.nlos_distance_ratio:.6f},"
        f"{int(m.reached)},{int(m.stuck)}"
    )


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    kinds = _parse_kinds(args.planners)
    out = _out_dir(args)
    scenario = build_scenario(cfg.scenario, cfg.planner.safety_margin_cells)
    head = _header(cfg, cfg.scenario.rng_seed)
    spec = time_spec(cfg.sim.tick_s)

    lines = [f"# {h}" for h in head]
    lines.append("kind,distance_m,duration_s,avg_uplink_mbps,nlos_ratio,reached,stuck")
    any_stuck = False
    for kind in kinds:
        metrics, log = run_episode(scenario, kind, cfg)
        lines.append(_metrics_row(kind, metrics, spec))
        (out / f"trajectory_{kind.value}.csv").write_text(log.to_csv(head))
        any_stuck |= metrics.stuck
        print(
            f"{kind.value}: distance {metrics.flight_distance_m:.0f} m, "
            f"duration {metrics.flight_duration_s:{spec}} s, "
            f"uplink {metrics.avg_uplink_capacity_bps / 1e6:.1f} Mbps, "
            f"nlos {metrics.nlos_distance_ratio * 100:.1f} %"
            + (" [stuck]" if metrics.stuck else "")
        )
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")
    return EXIT_STUCK if any_stuck else EXIT_OK


def cmd_batch(args) -> int:
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be at least 1, got {args.episodes}")
    cfg = _resolve_config(args)
    kinds = _parse_kinds(args.planners)
    out = _out_dir(args)
    head = _header(cfg, cfg.scenario.rng_seed)
    spec = time_spec(cfg.sim.tick_s)
    result = run_batch(cfg, episodes=args.episodes, kinds=kinds,
                       collect_logs=args.export_trajectories)

    ep_lines = [f"# {h}" for h in head]
    ep_lines.append(
        "episode,scenario_seed,kind,distance_m,duration_s,avg_uplink_mbps,"
        "nlos_ratio,reached,stuck"
    )
    for r in result.rows:
        ep_lines.append(f"{r.episode},{r.scenario_seed},{_metrics_row(r.kind, r.metrics, spec)}")
    (out / "episodes.csv").write_text("\n".join(ep_lines) + "\n")

    agg_lines = [f"# {h}" for h in head]
    agg_lines.append(
        "kind,episodes,total_distance_km,total_duration_s,"
        "avg_uplink_capacity_mbps,nlos_distance_ratio_pct,stuck_episodes"
    )
    for kind in kinds:
        a = result.aggregate(kind)
        agg_lines.append(
            f"{a['kind']},{a['episodes']},{a['total_distance_m'] / 1e3:.4f},"
            f"{a['total_duration_s']:{spec}},{a['avg_uplink_capacity_bps'] / 1e6:.4f},"
            f"{a['nlos_distance_ratio'] * 100:.3f},{a['stuck_episodes']}"
        )
        print(agg_lines[-1])
    (out / "aggregate.csv").write_text("\n".join(agg_lines) + "\n")

    if args.export_trajectories:
        for (ep, kind), log in result.logs.items():
            name = f"trajectory_ep{ep:03d}_{kind.value}.csv"
            (out / name).write_text(log.to_csv(head))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="edgeflight",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--version", action="version", version=f"edgeflight {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="path to a JSON config file")
        sp.add_argument("--preset", choices=list(PRESETS),
                        help="built-in config preset (default: default)")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario master seed")
        sp.add_argument("--out", default="out", help="output directory")

    g = sub.add_parser("generate", help="build a scenario, write grid + scenario files")
    common(g)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="fly one scenario with the selected planners")
    common(r)
    r.add_argument("--planners", default="all",
                   help="comma-separated subset of baseline,explored,global")
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("batch", help="run the seeded comparison batch")
    common(b)
    b.add_argument("--planners", default="all")
    b.add_argument("--episodes", type=int, default=20)
    b.add_argument("--export-trajectories", action="store_true",
                   help="also write per-episode trajectory logs")
    b.set_defaults(func=cmd_batch)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
