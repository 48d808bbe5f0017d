from __future__ import annotations

import numpy as np
import pytest

from bsvie import NodeDesign, build_grid, sample_ensemble


@pytest.fixture(scope="session")
def unit_grid():
    return build_grid(1.0, 16)


@pytest.fixture(scope="session")
def unit_ensemble(unit_grid):
    return sample_ensemble(unit_grid, 4096, seed=5)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def built_designs(monkeypatch):
    """Every NodeDesign constructed while the test runs, in order."""
    built = []
    original = NodeDesign.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(NodeDesign, "__init__", counted)
    return built
