"""End-to-end golden regression gate against the committed baselines.

This is the test-suite twin of ``python -m repro.bench --check``: every
application's smallest paper dataset at each consistency unit, plus the
microbenchmarks, must match ``benchmarks/golden/`` counter-for-counter.
Any protocol, simulator, or application change that shifts a message,
byte, fault, or simulated-time counter fails here with a field-level
diff; if the shift is intended, regenerate the baselines with
``python -m repro.bench --refresh-golden`` and commit the diff.
"""

import json

import pytest

from repro.bench import golden
from repro.bench.golden import (
    ARTIFACT_DIR,
    GATED_ARTIFACTS,
    GOLDEN_DIR,
    GOLDEN_LABELS,
    SMALL_DATASETS,
    compare_case,
    golden_cells,
    load_app_golden,
)
from repro.bench.harness import lookup
from repro.bench.pool import run_cells


def test_baselines_are_committed_for_all_eight_apps():
    assert GOLDEN_DIR.is_dir(), (
        f"missing {GOLDEN_DIR}; run python -m repro.bench --refresh-golden"
    )
    for app in SMALL_DATASETS:
        assert load_app_golden(GOLDEN_DIR, app) is not None, app
    assert (GOLDEN_DIR / "micro.json").is_file()


@pytest.mark.parametrize("app", sorted(SMALL_DATASETS))
def test_app_matches_golden_baselines(app, session_store):
    """One exact-match check per application (split per app so a failure
    names the culprit and the rest still report)."""
    ds = SMALL_DATASETS[app]
    gold = load_app_golden(GOLDEN_DIR, app)
    results = run_cells(golden_cells([app]), store=session_store).results
    mismatches = []
    for label in GOLDEN_LABELS:
        entry = gold.get(ds, {}).get(label)
        assert entry is not None, f"no baseline for {app}/{ds}@{label}"
        case = lookup(results, app, ds, label)
        mismatches.extend(compare_case(f"{app}/{ds}@{label}", case, entry))
    assert not mismatches, "\n" + "\n".join(m.render() for m in mismatches)


def test_micro_matches_golden_baselines():
    from repro.bench import micro

    gold = json.loads((GOLDEN_DIR / "micro.json").read_text())
    assert micro.snapshot(micro.run_all()) == gold


def test_full_check_passes_and_is_deterministic(session_store):
    """The gate itself: repro.bench.golden.check over the committed
    baselines, including the committed figure renderings it re-renders
    from those cells."""
    report = golden.check(GOLDEN_DIR, jobs=1, store=session_store)
    assert report.ok, "\n" + report.render()
    assert report.cells_checked == 8 * len(GOLDEN_LABELS) + 5  # + 5 micro
    assert report.artifacts_checked == len(GATED_ARTIFACTS) == 2


def test_stale_committed_rendering_fails_the_gate(
    tmp_path, session_store, monkeypatch
):
    """A committed figure that no longer matches a fresh render of the
    gate's own cells fails the check with a diff and the regen command."""
    (tmp_path / "figure3.txt").write_text(
        (ARTIFACT_DIR / "figure3.txt").read_text()
    )
    stale = (ARTIFACT_DIR / "figure1.txt").read_text().replace(
        "--- Water 512", "--- Water 511", 1
    )
    (tmp_path / "figure1.txt").write_text(stale)
    monkeypatch.setattr(golden, "ARTIFACT_DIR", tmp_path)
    report = golden.check(GOLDEN_DIR, store=session_store)
    assert not report.ok
    assert not report.mismatches and not report.missing
    [entry] = report.stale
    assert "figure1.txt" in entry and "--- Water 511" in entry
    assert "python -m repro.bench figure1 --out" in entry
    assert "1 stale artifact(s)" in report.render()


def test_perturbed_baseline_fails_with_readable_diff(tmp_path, session_store):
    """Acceptance property: a perturbed counter produces a field-level
    diff naming the cell, the expected and actual values, and the delta."""
    bad_dir = tmp_path / "golden"
    bad_dir.mkdir()
    for app in SMALL_DATASETS:
        (bad_dir / f"{app}.json").write_text(
            json.dumps(load_app_golden(GOLDEN_DIR, app))
        )
    (bad_dir / "micro.json").write_text((GOLDEN_DIR / "micro.json").read_text())
    path = bad_dir / "MGS.json"
    entry = json.loads(path.read_text())
    entry["1Kx1K"]["8K"]["useless_messages"] -= 13
    path.write_text(json.dumps(entry))

    report = golden.check(bad_dir, jobs=1, store=session_store)
    assert not report.ok
    [m] = report.mismatches
    assert m.where == "MGS/1Kx1K@8K" and m.field == "useless_messages"
    text = report.render()
    assert "FAILED" in text and "+13" in text and "--refresh-golden" in text
