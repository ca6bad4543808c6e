"""Parallel sweep engine: dedup, store economics, serial == parallel."""

import pytest

from repro.bench.pool import SweepCell, dedupe_cells, run_cells
from repro.farm.store import LocalDirBackend, ResultStore


@pytest.fixture
def isolated_store(tmp_path):
    """A fresh, empty directory store."""
    return ResultStore(LocalDirBackend(tmp_path / "cache"))


CELLS = [SweepCell.make("Jacobi", "1Kx1K", label) for label in ("4K", "8K")]


class TestSweepCell:
    def test_kwargs_roundtrip(self):
        c = SweepCell.make("ILINK", "CLP", "Dyn", max_group_pages=2)
        assert c.kwargs == {"max_group_pages": 2}
        assert "max_group_pages=2" in str(c)

    def test_dedupe_collapses_equivalent_spellings(self):
        cells = [
            SweepCell.make("Jacobi", "1Kx1K", "4K"),
            SweepCell.make("Jacobi", "1Kx1K", "4K", unit_pages=1),  # same config
            SweepCell.make("Jacobi", "1Kx1K", "8K"),
        ]
        assert len(dedupe_cells(cells)) == 2

    def test_dedupe_keeps_distinct_extras(self):
        cells = [
            SweepCell.make("ILINK", "CLP", "Dyn", max_group_pages=2),
            SweepCell.make("ILINK", "CLP", "Dyn", max_group_pages=8),
        ]
        assert len(dedupe_cells(cells)) == 2


class TestRunCells:
    def test_serial_fills_both_cache_layers(self, isolated_store):
        """The run's results mapping and the store both receive every
        computed cell."""
        report = run_cells(CELLS, jobs=1, store=isolated_store)
        assert report.ran == 2 and report.cached == 0
        assert set(report.results) == {c.key for c in CELLS}
        assert isolated_store.backend.result_count() == 2
        again = run_cells(CELLS, jobs=1, store=isolated_store)
        assert again.ran == 0 and again.cached == 2
        assert again.results == report.results

    def test_without_store_results_are_returned_only(self, isolated_store):
        report = run_cells(CELLS, jobs=1)
        assert report.ran == 2
        assert set(report.results) == {c.key for c in CELLS}
        assert run_cells(CELLS, jobs=1).ran == 2  # nothing was kept

    def test_parallel_identical_to_serial(self, isolated_store):
        """The acceptance property: a --jobs N sweep produces
        counter-for-counter identical results to the serial run."""
        parallel = run_cells(CELLS, jobs=2, store=isolated_store).results
        serial = run_cells(CELLS, jobs=1).results
        assert parallel == serial  # dataclass equality: every field exact

    def test_parallel_results_land_on_disk(self, isolated_store, tmp_path):
        run_cells(CELLS, jobs=2, store=isolated_store)
        assert isolated_store.backend.result_count() == 2
        # Next invocation: a fresh store over the same directory.
        fresh = ResultStore(LocalDirBackend(tmp_path / "cache"))
        report = run_cells(CELLS, jobs=2, store=fresh)
        assert report.ran == 0 and report.cached == 2
        assert fresh.hits == 2

    def test_progress_callback_sees_runs(self, isolated_store):
        lines = []
        run_cells(CELLS, jobs=1, store=isolated_store, progress=lines.append)
        assert any("Jacobi/1Kx1K@4K" in line for line in lines)

    def test_report_summary_mentions_economics(self, isolated_store):
        report = run_cells(CELLS, jobs=1, store=isolated_store)
        assert "2 unique" in report.summary()
        assert "2 run" in report.summary()
