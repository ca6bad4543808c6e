"""Chaos-sweep invariant gate."""

import json

import pytest

from repro.bench.golden import GOLDEN_DIR, GOLDEN_FIELDS, SMALL_DATASETS
from repro.bench.pool import SweepCell, run_cells
from repro.faults.gate import (
    FAULT_FIELDS,
    INVARIANT_FIELDS,
    chaos_cells,
    default_plan,
    run_chaos,
)
from repro.faults.plan import FaultPlan


def test_field_taxonomy_partitions_golden_fields():
    assert set(FAULT_FIELDS) <= set(GOLDEN_FIELDS)
    assert "time_us" not in INVARIANT_FIELDS
    assert not set(INVARIANT_FIELDS) & set(FAULT_FIELDS)
    assert set(INVARIANT_FIELDS) | set(FAULT_FIELDS) | {"time_us"} == set(
        GOLDEN_FIELDS
    )
    assert "checksum" in INVARIANT_FIELDS


def test_chaos_cells_identity():
    plans = [default_plan(seed=s) for s in (0, 1)]
    cells = chaos_cells(plans, apps=["Jacobi"], labels=("4K", "Dyn"))
    assert len(cells) == 4
    # Cells differing only in plan seed resolve to distinct cache keys.
    assert len({c.key for c in cells}) == 4
    with pytest.raises(KeyError, match="unknown application"):
        chaos_cells(plans, apps=["Quake"])
    with pytest.raises(KeyError, match="unknown label"):
        chaos_cells(plans, apps=["Jacobi"], labels=("2K",))


def test_gate_passes_against_committed_baselines():
    report = run_chaos(seeds=2, apps=["Jacobi"], labels=("4K",))
    assert report.ok, report.render()
    assert len(report.verdicts) == 2
    assert report.app_retransmissions["Jacobi"] > 0
    assert report.totals["retransmissions"] > 0
    assert "chaos gate OK" in report.render()


def test_gate_detects_tampered_baseline(tmp_path):
    ds = SMALL_DATASETS["Jacobi"]
    golden = json.loads((GOLDEN_DIR / "Jacobi.json").read_text())
    golden[ds]["4K"]["checksum"] = 12345.0
    golden[ds]["4K"]["useful_messages"] += 1
    (tmp_path / "Jacobi.json").write_text(json.dumps(golden))
    report = run_chaos(seeds=1, apps=["Jacobi"], labels=("4K",),
                       golden_dir=tmp_path)
    assert not report.ok
    bad = [v for v in report.verdicts if not v.ok]
    assert len(bad) == 1
    diffed = {f for f, _, _ in bad[0].diffs}
    assert diffed == {"checksum", "useful_messages"}
    assert "chaos gate FAILED" in report.render()


def test_gate_reports_missing_baseline(tmp_path):
    report = run_chaos(seeds=1, apps=["Jacobi"], labels=("4K",),
                       golden_dir=tmp_path)
    assert not report.ok
    assert "no committed golden baseline" in report.verdicts[0].error


def test_gate_flags_quiet_apps_under_dropping_plan():
    # A plan that drops nothing cannot demand retransmissions...
    plan = FaultPlan.uniform(seed=0, jitter_us=10.0)
    report = run_chaos(seeds=1, plan=plan, apps=["Jacobi"], labels=("4K",))
    assert not plan.drops_messages
    assert report.quiet_apps == [] and report.ok
    # ...but a dropping plan with zero observed retransmissions is a
    # wiring failure, even if every counter matches.
    report.plan = default_plan()
    report.app_retransmissions["Jacobi"] = 0
    assert report.quiet_apps == ["Jacobi"] and not report.ok


def test_gate_surfaces_dropped_cells_as_failures():
    plan = FaultPlan.uniform(seed=0, drop_rate=0.5).replace(
        retries_enabled=False
    )
    report = run_chaos(seeds=1, plan=plan, apps=["Jacobi"], labels=("4K",))
    assert not report.ok
    assert "run failed" in report.verdicts[0].error
    assert "retransmission budget exhausted" in report.verdicts[0].error


def test_pool_isolates_failed_cells():
    ok_cell = SweepCell.make("Jacobi", SMALL_DATASETS["Jacobi"], "4K")
    bad_plan = FaultPlan.uniform(seed=0, drop_rate=0.5).replace(
        retries_enabled=False
    )
    bad_cell = SweepCell.make(
        "Jacobi", SMALL_DATASETS["Jacobi"], "4K",
        fault_plan=bad_plan.canonical(),
    )
    report = run_cells([ok_cell, bad_cell], jobs=1)
    assert len(report.failed) == 1
    assert report.failed[0][0] == str(bad_cell)
    assert "failed" in report.summary()
    # The healthy cell completed and is among the results.
    assert ok_cell.key in report.results
    assert bad_cell.key not in report.results
