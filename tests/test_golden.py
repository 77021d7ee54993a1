"""Golden outputs: a small fixed batch must reproduce committed files byte for byte.

test_08 only compares two runs of the same build with each other; this test
pins the outputs themselves, so a refactor that changes routing, pricing or
the radio-map estimates on every run fails here. The batch is the default
preset at master seed 4 on a 200 m x 200 m map with 80-160 m missions,
3 episodes, all arms, trajectories exported. `episodes.csv` and
`aggregate.csv` are committed verbatim under `tests/golden/`; the nine
trajectory CSVs are pinned by their sha256 digests in
`tests/golden/trajectories.sha256`. The trajectories' `est_state` column
records `RadioMap.state_at` of the vehicle's map cell on every tick (on a
global tick that took its flown-ahead record, the truth state that cell
holds). Every episode of this batch
starts in remote mode and takes a frame on its first tick, so no row reads
`none`; `test_simcore` pins the rows before a first frame. Every numeric
trajectory field must parse as a plain number.

A change that alters outputs on purpose regenerates the files with
`edgeflight batch --config <cfg> --episodes 3 --export-trajectories --out <dir>`
on the config built by `golden_config()`, copies the two tables, runs
`sha256sum trajectory_*.csv > trajectories.sha256` in `<dir>`, and says
which output changed and why.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

from edgeflight.cli import EXIT_OK, main
from edgeflight.config import config_to_dict, default_config

GOLDEN = Path(__file__).parent / "golden"


def golden_config():
    cfg = default_config(seed=4)
    return dataclasses.replace(
        cfg,
        scenario=dataclasses.replace(
            cfg.scenario, map_size_m=(200.0, 200.0), endpoint_distance_m=(80.0, 160.0)
        ),
    )


def test_batch_outputs_match_golden_files(tmp_path):
    cfg_path = tmp_path / "golden.json"
    cfg_path.write_text(json.dumps(config_to_dict(golden_config())))
    out = tmp_path / "out"
    rc = main(["batch", "--config", str(cfg_path), "--out", str(out),
               "--episodes", "3", "--export-trajectories"])
    assert rc == EXIT_OK

    for name in ("episodes.csv", "aggregate.csv"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    want = {}
    for line in (GOLDEN / "trajectories.sha256").read_text().splitlines():
        digest, fname = line.split()
        want[fname] = digest
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
