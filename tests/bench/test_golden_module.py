"""Golden-gate machinery (unit level; the committed baselines are
exercised end-to-end by tests/integration/test_golden.py)."""

import json

import pytest

from repro.bench import golden
from repro.bench.golden import (
    GOLDEN_FIELDS,
    GOLDEN_LABELS,
    SMALL_DATASETS,
    Mismatch,
    case_snapshot,
    compare_case,
    golden_cells,
)
from repro.bench.pool import SweepCell, run_cells


@pytest.fixture(scope="module")
def case(session_store):
    cell = SweepCell.make("Jacobi", "1Kx1K", "4K")
    return run_cells([cell], store=session_store).results[cell.key]


class TestMatrix:
    def test_covers_all_eight_apps(self):
        assert len(SMALL_DATASETS) == 8
        cells = golden_cells()
        assert len(cells) == 8 * len(GOLDEN_LABELS)

    def test_filter_restricts_apps(self):
        cells = golden_cells(["Jacobi"])
        assert {c.app for c in cells} == {"Jacobi"}
        assert len(cells) == len(GOLDEN_LABELS)

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            golden_cells(["NoSuchApp"])


class TestCompare:
    def test_snapshot_has_every_gated_counter(self, case):
        snap = case_snapshot(case)
        assert set(snap) == set(GOLDEN_FIELDS)
        assert snap["useful_messages"] == case.useful_messages

    def test_identical_snapshot_matches(self, case):
        assert compare_case("x", case, case_snapshot(case)) == []

    def test_drift_is_reported_per_field(self, case):
        gold = case_snapshot(case)
        gold["useless_bytes"] += 4
        gold["faults"] -= 1
        bad = compare_case("Jacobi/1Kx1K@4K", case, gold)
        assert {m.field for m in bad} == {"useless_bytes", "faults"}

    def test_mismatch_renders_expected_actual_and_delta(self):
        text = Mismatch("App/ds@4K", "useless_messages", 10, 17).render()
        assert "App/ds@4K" in text
        assert "expected 10" in text and "got 17" in text
        assert "+7" in text and "%" in text


class TestWriteAndCheck:
    def test_refresh_then_check_roundtrip(self, tmp_path, session_store):
        written = golden.write_golden(
            tmp_path, apps=["Jacobi"], jobs=1, store=session_store
        )
        assert [p.name for p in written] == ["Jacobi.json"]
        report = golden.check(
            tmp_path, apps=["Jacobi"], jobs=1, store=session_store
        )
        assert report.ok
        assert report.cells_checked == len(GOLDEN_LABELS)
        assert "OK" in report.render()

    def test_missing_baseline_fails_with_hint(self, tmp_path, session_store):
        report = golden.check(
            tmp_path, apps=["Jacobi"], jobs=1, store=session_store
        )
        assert not report.ok
        assert len(report.missing) == len(GOLDEN_LABELS)
        assert "--refresh-golden" in report.render()

    def test_perturbed_counter_fails_readably(self, tmp_path, session_store):
        golden.write_golden(
            tmp_path, apps=["Jacobi"], jobs=1, store=session_store
        )
        path = tmp_path / "Jacobi.json"
        entry = json.loads(path.read_text())
        entry["1Kx1K"]["4K"]["useful_messages"] += 3
        path.write_text(json.dumps(entry))
        report = golden.check(
            tmp_path, apps=["Jacobi"], jobs=1, store=session_store
        )
        assert not report.ok
        [m] = report.mismatches
        assert m.field == "useful_messages"
        assert "Jacobi/1Kx1K@4K" in report.render()
        assert "FAILED" in report.render()
