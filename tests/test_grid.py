import numpy as np
import pytest

from bsvie import TimeGrid, build_grid


def test_nodes_cover_interval_with_exact_endpoints():
    grid = build_grid(2.0, 8, start=0.5)
    assert len(grid) == 9
    assert grid.nodes[0] == 0.5
    assert grid.nodes[-1] == 2.0
    assert grid.dt == pytest.approx(1.5 / 8)
    np.testing.assert_allclose(np.diff(grid.nodes), grid.dt, rtol=1e-12)


def test_interval_validation():
    with pytest.raises(ValueError):
        TimeGrid(horizon=1.0, steps=1)
    with pytest.raises(ValueError):
        TimeGrid(horizon=0.0, steps=4)
    with pytest.raises(ValueError):
        TimeGrid(horizon=1.0, steps=4, start=1.0)
    with pytest.raises(ValueError):
        TimeGrid(horizon=float("inf"), steps=4)
    with pytest.raises(ValueError):
        TimeGrid(horizon=1.0, steps=4, start=float("nan"))


def test_nodes_read_only():
    grid = build_grid(1.0, 4)
    with pytest.raises(ValueError):
        grid.nodes[0] = 7.0
