"""Checks of the benchmark itself, on a city small enough to fly in seconds.

Run from the repository root:

    python3 -m pytest perfbench
"""

import dataclasses
import json
import math
import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402
from hostspeed import Probe  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "tiny": bench.Workload(
        "flat", ("baseline", "explored", "global"), 1,
        {"scenario": {"map_size_m": [100.0, 100.0], "endpoint_distance_m": [60.0, 60.0]}},
    ),
}
SPEC = json.loads(bench.BENCHMARK_JSON.read_text())


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_declared_metric_with_its_unit(trace, group, capsys):
    rc = bench.main(["--workload", "tiny", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)], workloads=TINY)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert rc == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert re.search(rf"^{re.escape(name)}\s+-?[\d.]+\s+{re.escape(unit)}$", text, re.M), name


def test_traced_pass_keeps_outcomes_and_restores_the_simulator():
    ef = bench.load_edgeflight()
    wl = TINY["tiny"]
    cfg = bench.workload_config(ef, wl, 5)
    cities = bench.city_configs(ef, cfg)[:1]
    targets = bench.trace_targets(ef, Tracer())
    originals = [getattr(owner, attr) for owner, attr, *_ in targets]

    plain = bench.fly_pass(ef, cfg, cities, wl.arms, Probe())
    tracer = Tracer()
    with tracer.installed(bench.trace_targets(ef, tracer)):
        traced = bench.fly_pass(ef, cfg, cities, wl.arms, Probe(), tracer=tracer)

    assert [dataclasses.astuple(e.metrics) for e in traced.episodes] == \
        [dataclasses.astuple(e.metrics) for e in plain.episodes]
    assert traced.digest == plain.digest
    assert set(tracer.names) == {t[2] for t in targets}
    assert [getattr(owner, attr) for owner, attr, *_ in targets] == originals


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))
    outer = tracer.wrap("outer", lambda: (inner(), inner(), time.sleep(0.002)))
    outer()
    agg = tracer.aggregate(lambda ep: "all")["all"]
    calls, total, self_s = agg["outer"]
    assert calls == 1 and agg["inner"][0] == 2
    assert self_s == pytest.approx(total - agg["inner"][1])
    assert 0.0 < self_s < total
    assert tracer.parents == [-1, 0, 0]


def test_a_layer_that_recorded_no_call_is_reported():
    agg = {
        "setup": {"scenario.build": [1, 0.1, 0.1], "linkfield.ray_table": [3, 0.2, 0.2]},
        "global": {"worldmap.sense": [5, 0.1, 0.1]},
    }
    names = {"worldmap.sense", "planner.plan", "radiomap.ensure_layer", "scenario.build"}
    assert bench.missing_layers(agg, ("global",), names) == ["global: planner.plan"]
