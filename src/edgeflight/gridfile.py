"""Portable text format for height grids, as `edgeflight generate` writes them.

Layout:
    # optional comment lines
    <width_cells> <depth_cells> <cell_size_m>
    <depth rows of width decimal values, row y printed per line>

Values are heights in meters, written with repr-roundtripping precision.
"""

from __future__ import annotations

import numpy as np


def dump_grid(heights: np.ndarray, cell_size_m: float, comments: list[str] | None = None) -> str:
    nx, ny = heights.shape
    lines = [f"# {c}" for c in (comments or [])]
    lines.append(f"{nx} {ny} {cell_size_m!r}")
    for iy in range(ny):
        lines.append(" ".join(repr(float(v)) for v in heights[:, iy]))
    return "\n".join(lines) + "\n"


def save_grid(path, heights: np.ndarray, cell_size_m: float, comments=None) -> None:
    with open(path, "w") as f:
        f.write(dump_grid(heights, cell_size_m, comments))

