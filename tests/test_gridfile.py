import numpy as np
import pytest

from edgeflight.gridfile import dump_grid, save_grid
from oracles import load_grid, parse_grid


def test_roundtrip_is_exact():
    rng = np.random.default_rng(42)
    heights = rng.rayleigh(35.0, size=(12, 9))
    text = dump_grid(heights, 5.0)
    back, s = parse_grid(text)
    assert s == 5.0
    assert np.array_equal(back, heights)  # repr floats survive bit-exactly


def test_file_roundtrip(tmp_path):
    heights = np.array([[0.0, 1.5], [2.25, 0.0], [7.0, 3.125]])
    p = tmp_path / "city.grid"
    save_grid(p, heights, 2.5, comments=["written by a test"])
    back, s = load_grid(p)
    assert s == 2.5
    assert np.array_equal(back, heights)
    assert "# written by a test" in p.read_text()


def test_comments_ignored_on_parse():
    heights = np.zeros((2, 2))
    text = dump_grid(heights, 5.0, comments=["alpha", "beta"])
    back, _ = parse_grid(text)
    assert np.array_equal(back, heights)


def test_parse_rejects_malformed_header():
    with pytest.raises(ValueError):
        parse_grid("not a header\n")
    with pytest.raises(ValueError):
        parse_grid("2 2\n0 0\n0 0\n")  # missing cell size


def test_parse_rejects_wrong_row_count():
    text = "2 3 5.0\n0 0\n0 0\n"
    with pytest.raises(ValueError):
        parse_grid(text)
