"""Property-based tests for WordTracker read-credits/write-clears
semantics (the Section-5.3 usefulness methodology), checked against an
independent dict-based model."""

from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.words import WordTracker

NWORDS = 64


class ModelTracker:
    """Reference semantics: one pending-owner map, credits on first read."""

    def __init__(self):
        self.owner = {}  # word -> msg_id
        self.credits = defaultdict(int)

    def mark(self, idx, msg_id):
        for w in idx:
            self.owner[w] = msg_id

    def on_read(self, word0, n):
        for w in range(word0, word0 + n):
            if w in self.owner:
                self.credits[self.owner.pop(w)] += 1

    def on_write(self, word0, n):
        for w in range(word0, word0 + n):
            self.owner.pop(w, None)

    def pending_count(self):
        return len(self.owner)


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("mark"),
            st.lists(st.integers(0, NWORDS - 1), min_size=1, max_size=16,
                     unique=True),
            st.integers(0, 9),
        ),
        st.tuples(st.just("read"), st.integers(0, NWORDS - 1),
                  st.integers(0, NWORDS)),
        st.tuples(st.just("write"), st.integers(0, NWORDS - 1),
                  st.integers(0, NWORDS)),
    ),
    max_size=40,
)


def run_both(sequence):
    credits = defaultdict(int)
    tracker = WordTracker(NWORDS, lambda m, c: credits.__setitem__(
        m, credits[m] + c))
    model = ModelTracker()
    for op in sequence:
        if op[0] == "mark":
            _, idx, msg = op
            tracker.mark(np.array(sorted(idx), dtype=np.int64), msg)
            model.mark(idx, msg)
        elif op[0] == "read":
            _, w0, n = op
            n = min(n, NWORDS - w0)
            tracker.on_read(w0, n)
            model.on_read(w0, n)
        else:
            _, w0, n = op
            n = min(n, NWORDS - w0)
            tracker.on_write(w0, n)
            model.on_write(w0, n)
    return tracker, model, credits


@given(ops)
@settings(max_examples=150, deadline=None)
def test_tracker_matches_reference_model(sequence):
    tracker, model, credits = run_both(sequence)
    assert dict(credits) == dict(model.credits)
    assert tracker.pending_count() == model.pending_count()


@given(st.lists(st.integers(0, NWORDS - 1), min_size=1, unique=True))
@settings(max_examples=60, deadline=None)
def test_read_credits_each_pending_word_exactly_once(idx):
    """First read credits the carrying message per word; a second read of
    the same range credits nothing (words left the pending state)."""
    tracker, _, credits = run_both([("mark", idx, 5)])
    tracker.on_read(0, NWORDS)
    assert credits == {5: len(idx)}
    tracker.on_read(0, NWORDS)
    assert credits == {5: len(idx)}
    assert tracker.pending_count() == 0


@given(st.lists(st.integers(0, NWORDS - 1), min_size=1, unique=True))
@settings(max_examples=60, deadline=None)
def test_write_clears_without_credit(idx):
    """Overwrite-before-read finalizes the words as useless: no credit,
    and a later read of the range credits nothing either."""
    tracker, _, credits = run_both([("mark", idx, 3)])
    tracker.on_write(0, NWORDS)
    assert credits == {}
    assert tracker.pending_count() == 0
    tracker.on_read(0, NWORDS)
    assert credits == {}


@given(st.lists(st.integers(0, NWORDS - 1), min_size=1, unique=True))
@settings(max_examples=60, deadline=None)
def test_reinstall_retags_to_latest_message(idx):
    """A word re-installed by a later diff before being read belongs to
    the later message; the earlier message gets no credit for it."""
    tracker, _, credits = run_both([("mark", idx, 1), ("mark", idx, 2)])
    tracker.on_read(0, NWORDS)
    assert credits == {2: len(idx)}


@given(ops)
@settings(max_examples=60, deadline=None)
def test_pending_words_never_negative_and_bounded(sequence):
    tracker, _, _ = run_both(sequence)
    assert 0 <= tracker.pending_count() <= NWORDS


# ----------------------------------------------------------------------
# Slice path of mark == fancy-index path, on contiguous ascending runs.
# ----------------------------------------------------------------------
UNIT = 8  # words per consistency unit of the multi-unit trackers below


def mark_fancy(tracker, word_idx, msg_id):
    """The fancy-index form of :meth:`WordTracker.mark`, applied to the
    tracker's state directly (the reference for the slice path)."""
    fresh = tracker._owner[word_idx] < 0
    n = int(np.count_nonzero(fresh))
    tracker._owner[word_idx] = msg_id
    tracker._npending += n
    units, counts = np.unique(word_idx[fresh] // tracker._uw, return_counts=True)
    for u, c in zip(units.tolist(), counts.tolist(), strict=True):
        tracker._unit_pending[u] += c


def twin_trackers(history):
    """Two multi-unit trackers driven through the same history of
    (sorted) marks and reads, so later marks meet a mix of pending,
    re-tagged and resolved words."""
    pair = [WordTracker(NWORDS, lambda m, c: None, unit_words=UNIT)
            for _ in range(2)]
    for idx, msg, r0, rn in history:
        arr = np.array(sorted(idx), dtype=np.int64)
        rn = min(rn, NWORDS - r0)
        for tr in pair:
            tr.mark(arr, msg)
            if rn:
                tr.on_read(r0, rn)
    return pair


history = st.lists(
    st.tuples(
        st.lists(st.integers(0, NWORDS - 1), min_size=1, max_size=12,
                 unique=True),
        st.integers(0, 9),
        st.integers(0, NWORDS - 1),
        st.integers(0, 16),
    ),
    max_size=6,
)


def assert_same_state(a, b):
    assert np.array_equal(a._owner, b._owner)
    assert a.pending_count() == b.pending_count()
    assert a._unit_pending == b._unit_pending


@given(history, st.integers(0, NWORDS // UNIT - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_slice_mark_within_one_unit_matches_fancy(hist, unit, data):
    lo = data.draw(st.integers(0, UNIT - 1))
    hi = data.draw(st.integers(lo + 1, UNIT))
    sliced, fancy = twin_trackers(hist)
    idx = np.arange(unit * UNIT + lo, unit * UNIT + hi, dtype=np.int64)
    sliced.mark(idx, 42)
    mark_fancy(fancy, idx, 42)
    assert_same_state(sliced, fancy)


@given(history, st.data())
@settings(max_examples=100, deadline=None)
def test_slice_mark_spanning_units_matches_fancy(hist, data):
    lo = data.draw(st.integers(0, NWORDS - UNIT - 1))
    hi = data.draw(st.integers((lo // UNIT + 1) * UNIT + 1, NWORDS))
    sliced, fancy = twin_trackers(hist)
    # Unit-relative offsets plus a base, as the fetch path passes them.
    base = (lo // UNIT) * UNIT
    rel = np.arange(lo - base, hi - base, dtype=np.int32)
    sliced.mark(rel, 7, base)
    mark_fancy(fancy, rel.astype(np.int64) + base, 7)
    assert_same_state(sliced, fancy)
