"""Benchmark-suite plumbing: output directory, result store, and result
persistence."""

import pathlib

import pytest

from repro.bench.experiments import cells_of
from repro.bench.pool import run_cells
from repro.farm.store import LocalDirBackend, ResultStore

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "repro_results"


@pytest.fixture(scope="session")
def store(tmp_path_factory):
    """One result store for the suite: experiments that share cells
    (figures 1 and 3, the ablations) simulate them once."""
    return ResultStore(LocalDirBackend(tmp_path_factory.mktemp("results")))


def experiment_results(store, name: str):
    """The results of one registered experiment's cells."""
    return run_cells(cells_of(name), store=store).results


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_text(results_dir, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
    print("\n" + text)
