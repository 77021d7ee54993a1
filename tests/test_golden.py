"""Golden outputs: a small fixed batch must reproduce committed files byte for byte.

test_08 only compares two runs of the same build with each other; this test
pins the outputs themselves, so a refactor that changes routing, pricing or
the radio-map estimates on every run fails here. The batch is the default
preset at master seed 4 on a 200 m x 200 m map with 80-160 m missions,
3 episodes, all arms, trajectories exported. `episodes.csv` and
`aggregate.csv` are committed verbatim under `tests/golden/`; the nine
trajectory CSVs are pinned by their sha256 digests in
`tests/golden/trajectories.sha256`. The trajectories' `est_state` column
records `RadioMap.state_at` on every tick, `none` included. Every numeric
trajectory field must parse as a plain number. The same batch with
`sim.sticky_nlos` off, the setting under which a measured NLoS cell returns
to its estimate, is pinned by the sha256 digests of all eleven files in
`tests/golden/sticky_off.sha256`.

A change that alters outputs on purpose regenerates the files with
`edgeflight batch --config <cfg> --episodes 3 --export-trajectories --out <dir>`
on the config built by `golden_config()`, copies the two tables, runs
`sha256sum trajectory_*.csv > trajectories.sha256` in `<dir>`, and says
which output changed and why. For `sticky_off.sha256` the config is
`golden_config(sticky_nlos=False)` and the digests cover `episodes.csv`,
`aggregate.csv` and `trajectory_*.csv`.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from edgeflight.cli import EXIT_OK, main
from edgeflight.config import config_to_dict, default_config

GOLDEN = Path(__file__).parent / "golden"


def golden_config(sticky_nlos: bool = True):
    cfg = default_config(seed=4)
    return dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(
            cfg.scenario, map_size_m=(200.0, 200.0), endpoint_distance_m=(80.0, 160.0)
        ),
        sim=dataclasses.replace(cfg.sim, sticky_nlos=sticky_nlos),
    )


def run_golden_batch(tmp_path, cfg) -> Path:
    """Run the 3-episode batch with trajectories on `cfg`; returns the output directory."""
    cfg_path = tmp_path / "golden.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    out = tmp_path / "out"
    rc = main(["batch", "--config", str(cfg_path), "--out", str(out),
               "--episodes", "3", "--export-trajectories"])
    assert rc == EXIT_OK
    return out


def read_digests(name: str) -> dict[str, str]:
    want = {}
    for line in (GOLDEN / name).read_text().splitlines():
        digest, fname = line.split()
        want[fname] = digest
    return want


def test_batch_outputs_match_golden_files(tmp_path):
    out = run_golden_batch(tmp_path, golden_config())

    for name in ("episodes.csv", "aggregate.csv"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    want = read_digests("trajectories.sha256")
    assert len(want) == 9
    got_names = sorted(p.name for p in out.glob("trajectory_*.csv"))
    assert got_names == sorted(want)
    for name in got_names:
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == want[name], name
        rows = [ln.split(",") for ln in data.decode().splitlines() if not ln.startswith("#")]
        cols = rows[0]
        for row in rows[1:]:
            for col, value in zip(cols, row, strict=True):
                if col not in ("mode", "true_state", "est_state"):
                    float(value)  # a plain number, not a numpy repr


def test_sticky_off_batch_matches_golden_digests(tmp_path):
    out = run_golden_batch(tmp_path, golden_config(sticky_nlos=False))
    want = read_digests("sticky_off.sha256")
    assert len(want) == 11
    got_names = sorted(p.name for p in out.glob("*.csv"))
    assert got_names == sorted(want)
    for name in got_names:
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want[name], name
