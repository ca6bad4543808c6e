"""Shared test fixtures and helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.base import Application, get_app, run_app
from repro.farm.store import LocalDirBackend, ResultStore
from repro.sim.config import SimConfig


def tiny_app(name: str) -> tuple:
    """An application instance with a shrunken 'tiny' dataset injected,
    for fast correctness/coherence tests (the granularity/page ratios of
    the paper datasets are not preserved -- trend tests use the real
    datasets)."""
    app = get_app(name)
    tiny = {
        "Jacobi": {"rows": 32, "cols": 1024, "iters": 2},
        "MGS": {"nvec": 16, "dim": 1024},
        "3D-FFT": {"n1": 16, "n2": 32, "n3": 32, "iters": 1},
        "Shallow": {"nrows": 512, "ncols": 16, "iters": 2},
        "Barnes": {"n": 200, "iters": 1, "max_cells": 2048},
        "Water": {"n": 48, "iters": 1},
        "ILINK": {"narrays": 2, "length": 512, "iters": 2, "stride": 4},
        "TSP": {"n": 8, "max_tours": 1024, "local_depth": 5},
    }[name]
    app.datasets = {**app.datasets, "tiny": tiny}
    return app, "tiny"


def checksum_close(app: Application, a: float, b: float) -> bool:
    """Compare checksums under the application's tolerance."""
    return abs(a - b) <= max(app.checksum_rtol * abs(b), 1e-9)


@pytest.fixture(scope="session")
def session_store(tmp_path_factory) -> ResultStore:
    """One result store for the whole session: tests that read the same
    cells (the golden integration tests, the harness renderers) share
    them through it, so each cell is simulated once per session."""
    return ResultStore(LocalDirBackend(tmp_path_factory.mktemp("results")))


@pytest.fixture
def cfg4():
    """8 processors, 4 KB unit (the paper's baseline)."""
    return SimConfig(nprocs=8, unit_pages=1)


@pytest.fixture
def cfg_small():
    """4 processors, 4 KB unit: cheap protocol-level scenarios."""
    return SimConfig(nprocs=4, unit_pages=1)


ALL_APPS = ["Barnes", "ILINK", "Jacobi", "MGS", "Shallow", "TSP", "Water", "3D-FFT"]

UNIT_CONFIGS = {
    "4K": dict(unit_pages=1),
    "8K": dict(unit_pages=2),
    "16K": dict(unit_pages=4),
    "Dyn": dict(dynamic=True),
}
