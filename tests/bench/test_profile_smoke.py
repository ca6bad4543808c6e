"""Smoke tests for ``python -m repro.bench profile``.

The profiler must be purely observational: attaching cProfile to every
engine thread and reading the trace may not perturb a single simulated
counter.  That is the property that keeps the command deterministic-safe
(detlint allows its wall-clock reads because nothing simulation-ordered
consumes them).
"""

import dataclasses
import json
import time

from repro.bench import profile
from repro.bench.harness import run_case

CASE = "Jacobi,1Kx1K,4K"  # cheapest full run with several epochs


def test_run_and_write_outputs(tmp_path):
    text = profile.run_and_write(CASE, tmp_path)
    txt = tmp_path / "jacobi-1Kx1K-4K.profile.txt"
    js = tmp_path / "jacobi-1Kx1K-4K.profile.json"
    assert txt.is_file() and js.is_file()
    assert "top " in text and "phase" in text.lower()
    data = json.loads(js.read_text())
    assert data["app"] == "Jacobi"
    assert data["top"], "top-N function table is empty"
    assert data["phases"], "per-phase table is empty"


def test_profiling_is_observational():
    """The profiled run's counters equal an unprofiled run's exactly."""
    report = profile.run_profile(CASE)
    baseline = run_case("Jacobi", "1Kx1K", "4K")
    assert dataclasses.asdict(report.case) == dataclasses.asdict(baseline)


def test_reported_wall_is_process_wall_not_thread_sum():
    """Wall time is measured around the run, so it can never exceed the
    elapsed time of the call; the summed per-thread figure is reported
    separately as the all-threads total."""
    # Host time is what this test measures; nothing simulated reads it.
    t0 = time.perf_counter()  # detlint: ok(wall-clock)
    report = profile.run_profile(CASE)
    elapsed = time.perf_counter() - t0  # detlint: ok(wall-clock)
    assert 0.0 < report.wall_s <= elapsed
    assert report.threads_total_s > 0.0
    assert "all-threads total" in report.render()
    assert report.to_json_dict()["threads_total_s"] == report.threads_total_s
