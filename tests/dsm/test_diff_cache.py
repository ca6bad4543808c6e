"""The writer-span diff cache (``IntervalStore.diff_cache``): each span's
coalesced diff is built once, garbage collection evicts spans that can
never be requested again, and neither changes a result."""

import dataclasses

import numpy as np
import pytest

import repro.dsm.lrc as lrc
from repro.bench.golden import GOLDEN_FIELDS
from repro.bench.harness import CaseResult
from repro.core import TreadMarks
from repro.dsm.diff import Diff
from repro.dsm.intervals import IntervalStore
from repro.dsm.vc import VectorClock
from repro.sim.config import SimConfig
from tests.conftest import tiny_app


def run_mgs(unit_pages, gc_threshold, monkeypatch=None):
    """Tiny MGS (two vectors per 8K unit, so writers' consecutive
    intervals coalesce); returns the runtime and its result.  With
    ``monkeypatch``, also the list of ``merge_diffs`` chain lengths."""
    app, ds = tiny_app("MGS")
    calls = []
    if monkeypatch is not None:
        merge = lrc.merge_diffs

        def counting_merge(diffs):
            calls.append(len(diffs))
            return merge(diffs)

        monkeypatch.setattr(lrc, "merge_diffs", counting_merge)
    tmk = TreadMarks(
        SimConfig(nprocs=8, unit_pages=unit_pages, gc_threshold=gc_threshold),
        heap_bytes=app.heap_bytes(ds), app_name=app.name, dataset=ds,
    )
    handles = app.setup(tmk, ds)
    params = app.params(ds)
    res = tmk.run(lambda proc: app.worker(proc, handles, params))
    return tmk, res, calls


@pytest.mark.parametrize("unit_pages", [1, 2, 4])
def test_merge_runs_once_per_distinct_multi_interval_span(
    unit_pages, monkeypatch
):
    tmk, res, calls = run_mgs(unit_pages, 0, monkeypatch)
    multi = [k for k in tmk.store.diff_cache if k[2] != k[3]]
    assert multi, "the run must coalesce some multi-interval spans"
    assert all(n > 1 for n in calls)
    assert len(calls) == len(multi)
    # Every distinct span was built (and its scan charged) exactly once.
    assert res.stats.diffs_created == len(tmk.store.diff_cache)


@pytest.mark.parametrize("gc_threshold", [16, 64])
def test_collect_leaves_no_key_naming_a_reclaimed_interval(gc_threshold):
    tmk, _, _ = run_mgs(2, gc_threshold)
    store = tmk.store
    assert store.collected > 0
    for p, unit, first, last in store.diff_cache:
        for i in (first, last):
            try:
                store.get(p, i)
            except KeyError:
                pytest.fail(f"cached span ({p}, {unit}, {first}, {last}) "
                            f"names reclaimed interval {i}")


@pytest.mark.parametrize("unit_pages", [1, 2, 4])
@pytest.mark.parametrize("gc_threshold", [16, 64])
def test_gc_with_multi_interval_spans_equals_no_gc(unit_pages, gc_threshold):
    tmk, with_gc, _ = run_mgs(unit_pages, gc_threshold)
    _, without, _ = run_mgs(unit_pages, 0)
    assert tmk.store.collected > 0
    got = CaseResult.from_run(with_gc)
    want = CaseResult.from_run(without)
    for field in GOLDEN_FIELDS:
        assert getattr(got, field) == getattr(want, field), field
    assert dataclasses.asdict(with_gc.stats) == dataclasses.asdict(
        without.stats
    )


def mkdiff(unit):
    idx = np.array([0], np.int32)
    return Diff(unit=unit, idx=idx, values=np.ones(1, np.uint32),
                wire_bytes=24, nwords=1)


def test_collect_evicts_spans_that_start_or_end_at_a_reclaimed_interval():
    store = IntervalStore(nprocs=2)
    # Proc 0: intervals 1 and 3 write unit 0, interval 2 writes unit 1.
    for i, unit in ((1, 0), (2, 1), (3, 0), (4, 0)):
        store.close_interval(0, VectorClock([i, 0]), {unit: mkdiff(unit)})
    span_0_1_3 = (0, 0, 1, 3)
    span_0_3_4 = (0, 0, 3, 4)
    span_1_2_2 = (0, 1, 2, 2)
    for key in (span_0_1_3, span_0_3_4, span_1_2_2):
        store.diff_cache[key] = mkdiff(key[1])
    # Interval 2 (unit 1 only) is reclaimed; 1, 3, 4 are still referenced.
    store.collect(VectorClock([4, 0]), referenced={(0, 1), (0, 3), (0, 4)})
    # A span over unit 0 straddling interval 2 can still be requested.
    assert set(store.diff_cache) == {span_0_1_3, span_0_3_4}
    # Reclaiming interval 1 kills the span that starts there.
    store.collect(VectorClock([4, 0]), referenced={(0, 3), (0, 4)})
    assert set(store.diff_cache) == {span_0_3_4}
    # ...and reclaiming interval 4 the span that ends there.
    store.collect(VectorClock([4, 0]), referenced={(0, 3)})
    assert store.diff_cache == {}
