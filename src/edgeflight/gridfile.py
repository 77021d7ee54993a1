"""Portable text format for height grids.

Layout:
    # optional comment lines
    <width_cells> <depth_cells> <cell_size_m>
    <depth rows of width decimal values, row y printed per line>

Values are heights in meters, written with repr-roundtripping precision.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def dump_grid(heights: np.ndarray, cell_size_m: float, comments: list[str] | None = None) -> str:
    nx, ny = heights.shape
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(f"{nx} {ny} {cell_size_m!r}")
    for iy in range(ny):
        lines.append(" ".join(repr(float(v)) for v in heights[:, iy]))
    return "\n".join(lines) + "\n"


def parse_grid(text: str) -> tuple[np.ndarray, float]:
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise ConfigError("empty grid file")
    head = rows[0].split()
    if len(head) != 3:
        raise ConfigError("grid header must be: width depth cell_size")
    try:
        nx, ny, cell = int(head[0]), int(head[1]), float(head[2])
    except ValueError as e:
        raise ConfigError(f"bad grid header: {e}") from None
    if len(rows) - 1 != ny:
        raise ConfigError(f"expected {ny} grid rows, found {len(rows) - 1}")
    heights = np.empty((nx, ny))
    for iy, ln in enumerate(rows[1:]):
        vals = ln.split()
        if len(vals) != nx:
            raise ConfigError(f"row {iy} has {len(vals)} values, expected {nx}")
        heights[:, iy] = [float(v) for v in vals]
    return heights, cell


def save_grid(path, heights: np.ndarray, cell_size_m: float, comments=None) -> None:
    with open(path, "w") as f:
        f.write(dump_grid(heights, cell_size_m, comments))


def load_grid(path) -> tuple[np.ndarray, float]:
    with open(path) as f:
        return parse_grid(f.read())
