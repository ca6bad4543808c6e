"""Harness machinery: configs, result lookup, rendering, CSV."""

import pytest

from repro.bench.cache import cell_key
from repro.bench.harness import (
    UNIT_LABELS,
    CaseResult,
    config_for,
    lookup,
    render_breakdown_table,
    render_signature,
    run_case,
    write_csv,
)
from repro.bench.pool import SweepCell, run_cells


class TestConfigFor:
    def test_labels(self):
        assert config_for("4K").unit_pages == 1
        assert config_for("8K").unit_pages == 2
        assert config_for("16K").unit_pages == 4
        assert config_for("Dyn").dynamic
        assert config_for("seq").nprocs == 1

    def test_extra_kwargs_flow_through(self):
        cfg = config_for("Dyn", max_group_pages=2)
        assert cfg.max_group_pages == 2

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            config_for("32K")


class TestRunCase:
    def test_produces_case_result(self):
        c = run_case("Jacobi", "1Kx1K", "4K")
        assert isinstance(c, CaseResult)
        assert c.label == "4K"
        assert c.time_us > 0
        assert c.total_messages == (
            c.useful_messages + c.useless_messages + c.sync_messages
        )

    def test_seq_label(self):
        c = run_case("Jacobi", "1Kx1K", "seq")
        assert c.label == "seq"
        assert c.total_messages == 0


def _results(*cells):
    """A results mapping holding a distinct sentinel per cell key."""
    return {SweepCell.make(*c[:3], **c[3]).key: object() for c in cells}


class TestCache:
    """Renderers find cells through ``lookup``, keyed by the resolved
    config: distinct overrides never alias, equivalent spellings share
    one entry, and an undeclared cell is a ``KeyError``."""

    def test_extra_kwargs_key_cache_separately(self):
        """Regression: cells differing only in ``**extra`` overrides must
        never alias one entry -- keys hash the fully resolved SimConfig,
        so every config field participates."""
        results = _results(
            ("Jacobi", "1Kx1K", "Dyn", {"max_group_pages": 2}),
            ("Jacobi", "1Kx1K", "Dyn", {"max_group_pages": 8}),
            ("Jacobi", "1Kx1K", "Dyn", {}),
        )
        a = lookup(results, "Jacobi", "1Kx1K", "Dyn", max_group_pages=2)
        b = lookup(results, "Jacobi", "1Kx1K", "Dyn", max_group_pages=8)
        assert a is not b
        assert lookup(results, "Jacobi", "1Kx1K", "Dyn") is not a
        with pytest.raises(KeyError, match="max_group_pages=4"):
            lookup(results, "Jacobi", "1Kx1K", "Dyn", max_group_pages=4)

    def test_boolean_extras_key_cache_separately(self):
        results = _results(
            ("Jacobi", "1Kx1K", "16K", {"parallel_fetch": True}),
            ("Jacobi", "1Kx1K", "16K", {"parallel_fetch": False}),
        )
        on = lookup(results, "Jacobi", "1Kx1K", "16K", parallel_fetch=True)
        off = lookup(results, "Jacobi", "1Kx1K", "16K", parallel_fetch=False)
        assert on is not off
        assert cell_key(
            "Jacobi", "1Kx1K", config_for("16K", parallel_fetch=True)
        ) != cell_key(
            "Jacobi", "1Kx1K", config_for("16K", parallel_fetch=False)
        )

    def test_equivalent_spellings_share_one_entry(self):
        """The dual property: two spellings resolving to the same config
        find one entry (no duplicate simulation work)."""
        results = _results(
            ("Jacobi", "1Kx1K", "4K", {}),
            ("Jacobi", "1Kx1K", "16K", {"parallel_fetch": True}),
        )
        a = lookup(results, "Jacobi", "1Kx1K", "4K")
        b = lookup(results, "Jacobi", "1Kx1K", "4K", unit_pages=1)
        c = lookup(results, "Jacobi", "1Kx1K", "16K", parallel_fetch=True)
        d = lookup(results, "Jacobi", "1Kx1K", "16K")
        assert a is b
        assert c is d

    def test_undeclared_cell_is_a_key_error(self):
        results = _results(("Jacobi", "1Kx1K", "4K", {}))
        with pytest.raises(KeyError, match="Jacobi/1Kx1K@8K"):
            lookup(results, "Jacobi", "1Kx1K", "8K")
        with pytest.raises(KeyError, match="MGS/1Kx1K@4K"):
            lookup(results, "MGS", "1Kx1K", "4K")


class TestRendering:
    @pytest.fixture(scope="class")
    def cells(self, session_store):
        results = run_cells(
            [SweepCell.make("Jacobi", "1Kx1K", lb) for lb in UNIT_LABELS],
            store=session_store,
        ).results
        return {
            label: lookup(results, "Jacobi", "1Kx1K", label)
            for label in UNIT_LABELS
        }

    def test_breakdown_table_contains_all_units(self, cells):
        text = render_breakdown_table("Jacobi", "1Kx1K", cells)
        for label in UNIT_LABELS:
            assert label in text
        assert "normalized to 4K" in text

    def test_signature_render(self, cells):
        text = render_signature(cells)
        assert "[4K]" in text and "[16K]" in text
        assert "mean writers" in text

    def test_write_csv(self, cells, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert len(lines) == 3

    def test_write_csv_empty_is_noop(self, tmp_path):
        path = tmp_path / "none.csv"
        write_csv(path, [])
        assert not path.exists()
