"""The sort-free :func:`merge_diffs` against the sort-based coalescing it
replaced, field by field, on random diff chains."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.diff import Diff, _wire_bytes, merge_diffs

UNIT_WORDS = 64


def merge_diffs_sorted(diffs):
    """Reference coalescing: concatenate the chain and keep the LAST
    occurrence of every word offset (latest interval wins).
    ``np.unique`` on the reversed stream returns first occurrences, which
    are last occurrences of the original order."""
    if len(diffs) == 1:
        return diffs[0]
    idx = np.concatenate([d.idx for d in diffs])
    values = np.concatenate([d.values for d in diffs])
    uniq, first_pos = np.unique(idx[::-1], return_index=True)
    merged_vals = values[::-1][first_pos]
    uniq = uniq.astype(np.int32)
    return Diff(
        unit=diffs[0].unit, idx=uniq, values=merged_vals,
        wire_bytes=_wire_bytes(uniq), nwords=int(uniq.shape[0]),
    )


def make_diff(unit, offsets, seed):
    idx = np.array(sorted(offsets), dtype=np.int32)
    values = (
        np.arange(idx.shape[0], dtype=np.uint32) * np.uint32(2654435761)
        + np.uint32(seed)
    )
    return Diff(
        unit=unit, idx=idx, values=values, wire_bytes=_wire_bytes(idx),
        nwords=int(idx.shape[0]),
    )


def assert_same_diff(got, want):
    assert got.unit == want.unit
    assert got.idx.dtype == np.int32 and want.idx.dtype == np.int32
    assert got.values.dtype == np.uint32 and want.values.dtype == np.uint32
    assert np.array_equal(got.idx, want.idx)
    assert np.array_equal(got.values, want.values)
    assert got.wire_bytes == want.wire_bytes
    assert got.nwords == want.nwords


# A write mask: empty, one contiguous run, or arbitrary offsets (so
# chains mix overlapping, disjoint and non-contiguous masks).
masks = st.one_of(
    st.just(frozenset()),
    st.tuples(
        st.integers(0, UNIT_WORDS - 1), st.integers(1, UNIT_WORDS)
    ).map(lambda t: frozenset(range(t[0], min(UNIT_WORDS, t[0] + t[1])))),
    st.frozensets(st.integers(0, UNIT_WORDS - 1), max_size=UNIT_WORDS),
)


@given(st.lists(masks, min_size=1, max_size=8), st.integers(0, 2**31))
@settings(max_examples=300, deadline=None)
def test_sort_free_merge_equals_sorted_oracle(chain, seed):
    diffs = [make_diff(3, mask, seed + k) for k, mask in enumerate(chain)]
    assert_same_diff(merge_diffs(diffs), merge_diffs_sorted(diffs))


@given(st.lists(st.just(frozenset()), min_size=1, max_size=4))
@settings(max_examples=10, deadline=None)
def test_all_empty_chain(chain):
    diffs = [make_diff(0, mask, k) for k, mask in enumerate(chain)]
    merged = merge_diffs(diffs)
    assert_same_diff(merged, merge_diffs_sorted(diffs))
    assert merged.nwords == 0


@given(masks, st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_single_diff_chain_passes_through(mask, seed):
    d = make_diff(1, mask, seed)
    assert merge_diffs([d]) is d
    assert merge_diffs_sorted([d]) is d
