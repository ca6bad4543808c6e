"""The per-processor lazy release consistency protocol engine.

One :class:`LrcProc` per simulated processor holds:

* a private copy of the shared heap (:class:`AddressSpace`),
* a vector clock of the intervals it has seen,
* per-unit *pending write notices* -- invalidations received at acquires
  and barriers that have not yet been satisfied by fetching diffs,
* the twins of units written in the current interval.

Life cycle of a write, exactly as in TreadMarks:

1. the first write to a unit in an interval makes a *twin* (and pays a
   memory-protection operation);
2. at the next synchronization the interval *closes*: each twinned unit
   is compared to the current contents to create a word-granularity diff,
   and (proc, interval, unit) write notices are published;
3. an acquire (or barrier departure) delivers to the acquirer all write
   notices it has not seen, invalidating the named units;
4. the first access to an invalid unit faults; the faulting processor
   requests diffs from every concurrent writer of the unit -- requests to
   the same writer are combined, distinct writers answer in parallel --
   applies them in a happens-before-compatible order, and revalidates.

The fetch granularity (one unit, or a dynamic page group) is delegated to
an aggregation strategy from :mod:`repro.dsm.aggregation`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.dsm.address_space import AddressSpace, SharedHeapLayout
from repro.dsm.diff import (
    DIFF_HEADER_BYTES,
    RUN_HEADER_BYTES,
    WORD,
    Diff,
    apply_diff,
    create_diff,
    merge_diffs,
)
from repro.dsm.intervals import IntervalStore, WriteNotice
from repro.dsm.vc import VectorClock
from repro.sim.clock import Clock
from repro.sim.config import SimConfig
from repro.sim.network import MessageClass, Network
from repro.stats.counters import ProtocolStats
from repro.stats.words import WordTracker

if TYPE_CHECKING:
    from repro.dsm.aggregation import Aggregator

#: Fixed bytes of a diff request message plus per-requested-diff entry.
REQUEST_BASE_BYTES = 8
REQUEST_ENTRY_BYTES = 12


class LrcProc:
    """Consistency state and protocol actions of one processor."""

    def __init__(
        self,
        pid: int,
        layout: SharedHeapLayout,
        config: SimConfig,
        store: IntervalStore,
        network: Network,
        stats: ProtocolStats,
        clock: Clock,
        credit,
    ) -> None:
        self.pid = pid
        self.layout = layout
        self.config = config
        self.store = store
        self.network = network
        self.stats = stats
        self.clock = clock
        self.space = AddressSpace(layout)
        self.tracker = WordTracker(
            layout.nwords, credit, unit_words=layout.words_per_unit
        )
        self.vc = VectorClock(config.nprocs)
        self.pending: Dict[int, List[WriteNotice]] = {}
        self.pending_n = np.zeros(layout.nunits, dtype=np.int32)
        """Per-unit mirror of ``len(self.pending[unit])``.  The dict of
        :class:`WriteNotice` lists stays the source of truth (fetch and
        the barrier GC walk it), but every hot-path *emptiness* question
        -- aggregator readiness, dirty masks, invalidation counting --
        reads this preallocated array instead of hashing unit ids.
        Every site that mutates ``pending`` updates the mirror in the
        same statement block; ``tests/properties`` pins the invariant."""
        self.twins: Dict[int, np.ndarray] = {}
        self.twinned = np.zeros(layout.nunits, dtype=bool)
        """Per-unit mirror of ``unit in self.twins``: the batched diff
        kernel and the scatter fast path test twin presence as one
        vectorized mask instead of per-unit dict lookups."""
        self._twin_pool: Optional[np.ndarray] = None
        self._twin_slot = np.full(layout.nunits, -1, dtype=np.int32)
        self._twin_count = 0
        self._twin_persist = np.zeros(layout.nunits, dtype=bool)
        """Units whose (logical) twin survives from an earlier interval:
        in TreadMarks a twin persists across releases until the unit is
        invalidated or its diff is garbage collected, so re-dirtying such
        a unit in the next interval costs nothing.  Our simulator closes
        intervals eagerly for correctness but charges twin costs on the
        real system's schedule."""
        self.unsent_notices = 0
        """Write notices created since this processor's last barrier
        arrival (models the arrival-message payload)."""
        self.aggregator: Optional["Aggregator"] = None  # wired by the runtime
        self.trace = None
        """Optional :class:`repro.trace.recorder.TraceRecorder` attached
        by the runtime.  All hooks below are observer-only: they never
        advance the clock or touch protocol state."""
        # Hot-path locals: the access path runs once per shared access,
        # so the per-access cost constants are cached off the config.
        self._region_op_us = config.region_op_us
        self._word_access_us = config.word_access_us
        self._wpu = layout.words_per_unit
        self._heap_words = layout.nwords

    # ------------------------------------------------------------------
    # Application access path
    # ------------------------------------------------------------------
    def read_words(self, word0: int, nwords: int) -> np.ndarray:
        """Shared read of a word range: fault if needed, resolve word
        usefulness, charge access time, return the raw words."""
        if word0 < 0 or nwords <= 0 or word0 + nwords > self._heap_words:
            self._check_range(word0, nwords)
        self.aggregator.ensure_valid(word0, nwords)
        if self.trace is not None:
            self.trace.on_access(self.pid, self.clock.now, "read", word0, nwords)
        self.tracker.on_read(word0, nwords)
        clock = self.clock
        clock.now = clock.now + (
            self._region_op_us + nwords * self._word_access_us
        )
        return self.space.read_words(word0, nwords)

    def write_words(self, word0: int, values: np.ndarray) -> None:
        """Shared write of a word range: fault if needed, twin the
        covered units on first write, install the values."""
        nwords = int(values.shape[0])
        if word0 < 0 or nwords <= 0 or word0 + nwords > self._heap_words:
            self._check_range(word0, nwords)
        self.aggregator.ensure_valid(word0, nwords)
        twins = self.twins
        wpu = self._wpu
        for unit in range(word0 // wpu, (word0 + nwords - 1) // wpu + 1):
            if unit not in twins:
                self._make_twin(unit)
        if self.trace is not None:
            self.trace.on_access(self.pid, self.clock.now, "write", word0, nwords)
        self.tracker.on_write(word0, nwords)
        self.space.write_words(word0, values)
        clock = self.clock
        clock.now = clock.now + (
            self._region_op_us + nwords * self._word_access_us
        )

    def _check_range(self, word0: int, nwords: int) -> None:
        if word0 < 0 or nwords <= 0 or word0 + nwords > self.layout.nwords:
            raise IndexError(
                f"shared access [{word0}, {word0 + nwords}) outside heap "
                f"of {self.layout.nwords} words"
            )

    # ------------------------------------------------------------------
    # Bulk access path (gather / scatter)
    # ------------------------------------------------------------------
    # ``read_gather`` / ``write_scatter`` are *semantically defined* as a
    # loop of :meth:`read_words` / :meth:`write_words` over equal-length
    # word ranges, in order (the reference path, forced by
    # ``config.access_mode == "scalar"``).  When the bulk fast path can
    # prove the loop would neither fault nor change aggregation state
    # (:meth:`Aggregator.ready` over the touched units, plus the
    # protocol's own :meth:`_bulk_write_ready`), it charges the clock
    # with the *identical sequence of float additions* folded in one
    # step, performs twin bookkeeping in the same first-touch order, and
    # moves all data with one vectorized gather/scatter.  Any
    # uncertainty -- a pending unit, an access-invalid page, a non-owned
    # unit under single-writer invalidate, an out-of-bounds range --
    # falls back to the reference loop, which faults (or raises) exactly
    # where a scalar program would.  ``tests/equivalence/`` asserts the
    # two paths are bit-identical in every counter, checksum, and trace
    # event across all applications and protocols.

    def read_gather(self, starts: np.ndarray, nwords: int) -> np.ndarray:
        """Bulk read of ``len(starts)`` word ranges of ``nwords`` words
        each; returns an (nranges, nwords) uint32 array.  Equivalent to
        calling :meth:`read_words` once per range, in order."""
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        n = int(starts.shape[0])
        if n == 0:
            return np.empty((0, max(nwords, 0)), dtype=np.uint32)
        if self._bulk_ready_units(starts, nwords, write=False) is None:
            out = self._read_gather_mid(starts, nwords)
            if out is not None:
                return out
            return self._read_gather_ref(starts, nwords)
        per = self._region_op_us + nwords * self._word_access_us
        trace = self.trace
        if trace is None:
            if not self.tracker.pending_count():
                self.clock.advance_to(self._fold_end(n, per))
                return self.space.gather(starts, nwords)
            # Pending words among valid units: resolve them in one
            # batched pass (exact for disjoint ranges -- each word is
            # credited at most once and totals are additive).
            idx = self._mid_tier_ranges(starts, nwords)
            if idx is not None:
                self.clock.advance_to(self._fold_end(n, per))
                self.tracker.resolve_read(idx.reshape(-1))
                return self.space.gather(starts, nwords)
        tracker, clock = self.tracker, self.clock
        for i in range(n):
            w0 = int(starts[i])
            if trace is not None:
                trace.on_access(self.pid, clock.now, "read", w0, nwords)
            tracker.on_read(w0, nwords)
            clock.advance(per)
        return self.space.gather(starts, nwords)

    def write_scatter(self, starts: np.ndarray, values: np.ndarray) -> None:
        """Bulk write of ``len(starts)`` word ranges from a (nranges,
        nwords) uint32 array.  Equivalent to calling :meth:`write_words`
        once per range, in order."""
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.uint32)
        if values.ndim != 2 or values.shape[0] != starts.shape[0]:
            raise ValueError(
                f"write_scatter needs (nranges, nwords) values matching "
                f"{starts.shape[0]} starts, got shape {values.shape}"
            )
        n, nwords = int(values.shape[0]), int(values.shape[1])
        if n == 0:
            return
        touched = self._bulk_ready_units(starts, nwords, write=True)
        if touched is None:
            if not self._write_scatter_mid(starts, values):
                self._write_scatter_ref(starts, values)
            return
        per = self._region_op_us + nwords * self._word_access_us
        trace = self.trace
        if trace is None:
            pend = self.tracker.pending_count()
            prep = self._bulk_write_prep_needed(touched)
            if not pend and not prep:
                self.clock.advance_to(self._fold_end(n, per))
                self.space.scatter(starts, values)
                return
            idx = self._mid_tier_ranges(starts, nwords)
            if idx is not None:
                # Batched tier: fold the clock over runs of ranges whose
                # units are already twinned, run the per-range prep (and
                # its clock charges) only where a first write occurs,
                # and clear overwritten pending words in one pass.  The
                # touched units are ``ready`` here, so twinning is the
                # only per-range work -- and a range's prep twins its
                # units, letting every later range over them fold.
                if not prep:
                    self.clock.advance_to(self._fold_end(n, per))
                else:
                    twins = self.twins
                    wpu = self._wpu
                    span = nwords - 1
                    run = 0
                    for w0 in starts.tolist():
                        u0 = w0 // wpu
                        u1 = (w0 + span) // wpu
                        if all(
                            u in twins for u in range(u0, u1 + 1)
                        ):
                            run += 1
                            continue
                        if run:
                            self.clock.advance_to(
                                self._fold_end(run, per)
                            )
                            run = 0
                        self._bulk_write_prep(w0, nwords)
                        self.clock.advance(per)
                    if run:
                        self.clock.advance_to(self._fold_end(run, per))
                if pend:
                    self.tracker.resolve_write(idx.reshape(-1))
                self.space.scatter(starts, values)
                return
        tracker, clock = self.tracker, self.clock
        for i in range(n):
            w0 = int(starts[i])
            self._bulk_write_prep(w0, nwords)
            if trace is not None:
                trace.on_access(self.pid, clock.now, "write", w0, nwords)
            tracker.on_write(w0, nwords)
            clock.advance(per)
        # Deferring the data movement behind the bookkeeping loop is
        # exact: a unit is always twinned at its first touch within the
        # scatter, before any of the scatter's rows have modified it.
        self.space.scatter(starts, values)

    def _read_gather_ref(self, starts: np.ndarray, nwords: int) -> np.ndarray:
        out = np.empty((starts.shape[0], nwords), dtype=np.uint32)
        for i in range(starts.shape[0]):
            out[i] = self.read_words(int(starts[i]), nwords)
        return out

    def _write_scatter_ref(self, starts: np.ndarray, values: np.ndarray) -> None:
        for i in range(starts.shape[0]):
            self.write_words(int(starts[i]), values[i])

    # The *middle tier* handles gathers/scatters that the pure fast path
    # must refuse (pending fetches among the touched units): it keeps
    # the reference loop's exact per-range fault resolution and clock
    # charges -- ``ensure_valid`` then ``advance`` per range, in order,
    # the identical float sequence -- but batches the word-usefulness
    # resolution and the data movement into one vectorized pass at the
    # end.  That batching is exact because the ranges are pairwise
    # disjoint (checked) and a range's words cannot change state after
    # its own ``ensure_valid``: the first touch of a unit drains its
    # pending diffs, and later faults apply diffs only to *their* units,
    # so each word's owner tag and value are already final when its
    # range's turn has passed.  Tracing forces the reference loop (trace
    # events carry per-range timestamps sampled mid-loop), as does any
    # protocol that overrides the scalar access method itself.

    def _mid_tier_ranges(
        self, starts: np.ndarray, nwords: int
    ) -> Optional[np.ndarray]:
        """Flat word indices for a middle-tier pass, or None if the
        gather/scatter does not qualify (bounds, overlap, tracing)."""
        if self.config.access_mode != "bulk" or nwords <= 0:
            return None
        if self.trace is not None:
            return None
        if int(starts.min()) < 0:
            return None
        if int(starts.max()) + nwords > self.layout.nwords:
            return None
        if starts.shape[0] > 1:
            s = np.sort(starts)
            if int(np.diff(s).min()) < nwords:
                return None  # overlapping ranges: replay word by word
        return starts[:, None] + np.arange(nwords, dtype=np.int64)[None, :]

    def _mid_dirty_arr(
        self, need_twins: bool
    ) -> Optional[np.ndarray]:
        """Bool per unit: True where the per-range bookkeeping (fault
        resolution, first-write twinning) may still do work.  Clean
        units are exact no-ops apart from their clock charge -- and
        *stay* clean for the rest of the pass, because faults only
        shrink the pending set, pages only become access-valid, and
        twins only accumulate.  The middle-tier loops exploit the same
        monotonicity in the other direction: a dirty unit stays dirty
        until the pass's *own first range over it* runs (a fetch only
        drains other units' pending as a dynamic-aggregation group
        member, which leaves them access-invalid, hence still dirty),
        so the work positions are exactly the first-touch ranges of the
        initially dirty units.  None when the aggregator cannot provide
        its dirty-unit mask."""
        dirty = self.aggregator.dirty_units()
        if dirty is None:
            return None
        if need_twins:
            dirty = dirty | ~self.twinned
        return dirty

    @staticmethod
    def _mid_first_touch(u0s: np.ndarray, dirty: np.ndarray) -> List[int]:
        """Positions of the first range over each dirty unit, in range
        order (every range single-unit): exactly where the reference
        loop's ``ensure_valid`` (and first-write twinning) does work --
        see :meth:`_mid_dirty_arr` for why later ranges are no-ops."""
        uniq, first_idx = np.unique(u0s, return_index=True)
        sel = first_idx[dirty[uniq]]
        sel.sort()
        return sel.tolist()

    def _read_gather_mid(
        self, starts: np.ndarray, nwords: int
    ) -> Optional[np.ndarray]:
        if type(self).read_words is not LrcProc.read_words:
            return None
        idx = self._mid_tier_ranges(starts, nwords)
        if idx is None:
            return None
        per = self._region_op_us + nwords * self._word_access_us
        n = int(starts.shape[0])
        ensure = self.aggregator.ensure_valid
        advance = self.clock.advance
        dirty = self._mid_dirty_arr(need_twins=False)
        if dirty is None:
            for w0 in starts.tolist():
                ensure(w0, nwords)
                advance(per)
        else:
            wpu = self._wpu
            u0s = starts // wpu
            u1s = (starts + (nwords - 1)) // wpu
            if np.array_equal(u0s, u1s):
                # Single-unit ranges: the work positions are known up
                # front (first touch of each dirty unit); runs of
                # no-op ranges between them charge their clock in one
                # fold -- the same sequential float additions.
                pos = 0
                for i in self._mid_first_touch(u0s, dirty):
                    if i > pos:
                        self.clock.advance_to(self._fold_end(i - pos, per))
                    ensure(int(starts[i]), nwords)
                    advance(per)
                    pos = i + 1
                if n > pos:
                    self.clock.advance_to(self._fold_end(n - pos, per))
            else:
                # Unit-straddling ranges: walk in order, flipping a
                # range's units clean after its own ensure so later
                # ranges over them fold.
                dl = dirty.tolist()
                run = 0
                for i, w0 in enumerate(starts.tolist()):
                    u0 = int(u0s[i])
                    u1 = int(u1s[i])
                    if not (dl[u0] if u1 == u0 else True in dl[u0:u1 + 1]):
                        run += 1
                        continue
                    if run:
                        self.clock.advance_to(self._fold_end(run, per))
                        run = 0
                    ensure(w0, nwords)
                    for u in range(u0, u1 + 1):
                        dl[u] = False
                    advance(per)
                if run:
                    self.clock.advance_to(self._fold_end(run, per))
        self.tracker.resolve_read(idx.reshape(-1))
        return self.space.words[idx]

    def _write_scatter_mid(
        self, starts: np.ndarray, values: np.ndarray
    ) -> bool:
        if type(self).write_words is not LrcProc.write_words:
            return False
        nwords = int(values.shape[1])
        idx = self._mid_tier_ranges(starts, nwords)
        if idx is None:
            return False
        per = self._region_op_us + nwords * self._word_access_us
        n = int(starts.shape[0])
        ensure = self.aggregator.ensure_valid
        advance = self.clock.advance
        twins = self.twins
        wpu = self._wpu
        span = nwords - 1
        dirty = self._mid_dirty_arr(need_twins=True)
        if dirty is None:
            for w0 in starts.tolist():
                ensure(w0, nwords)
                for unit in range(w0 // wpu, (w0 + span) // wpu + 1):
                    if unit not in twins:
                        self._make_twin(unit)
                advance(per)
        else:
            u0s = starts // wpu
            u1s = (starts + span) // wpu
            if np.array_equal(u0s, u1s):
                pos = 0
                for i in self._mid_first_touch(u0s, dirty):
                    if i > pos:
                        self.clock.advance_to(self._fold_end(i - pos, per))
                    w0 = int(starts[i])
                    ensure(w0, nwords)
                    unit = int(u0s[i])
                    if unit not in twins:
                        self._make_twin(unit)
                    advance(per)
                    pos = i + 1
                if n > pos:
                    self.clock.advance_to(self._fold_end(n - pos, per))
            else:
                dl = dirty.tolist()
                run = 0
                for i, w0 in enumerate(starts.tolist()):
                    u0 = int(u0s[i])
                    u1 = int(u1s[i])
                    if not (dl[u0] if u1 == u0 else True in dl[u0:u1 + 1]):
                        run += 1
                        continue
                    if run:
                        self.clock.advance_to(self._fold_end(run, per))
                        run = 0
                    ensure(w0, nwords)
                    for unit in range(u0, u1 + 1):
                        if unit not in twins:
                            self._make_twin(unit)
                        dl[unit] = False
                    advance(per)
                if run:
                    self.clock.advance_to(self._fold_end(run, per))
        self.tracker.resolve_write(idx.reshape(-1))
        self.space.words[idx] = values
        return True

    def _bulk_ready_units(
        self, starts: np.ndarray, nwords: int, write: bool
    ) -> Optional[List[int]]:
        """The units a gather/scatter touches, if the fast path may run;
        None forces the reference loop.  The returned list may be a
        conservative superset when individual ranges span more than two
        units (safe: extra units can only veto the fast path)."""
        if self.config.access_mode != "bulk" or nwords <= 0:
            return None
        if int(starts.min()) < 0:
            return None
        last = starts + (nwords - 1)
        if int(last.max()) >= self.layout.nwords:
            return None
        wpu = self.layout.words_per_unit
        u0 = starts // wpu
        u1 = last // wpu
        if int((u1 - u0).max()) <= 1:
            touched = np.unique(np.concatenate((u0, u1))).tolist()
        else:
            touched = list(range(int(u0.min()), int(u1.max()) + 1))
        if not self.aggregator.ready(touched):
            return None
        if write and not self._bulk_write_ready(touched):
            return None
        return touched

    def _bulk_write_ready(self, units: List[int]) -> bool:
        """Protocol veto for the scatter fast path.  The base multiple-
        writer protocols (tm-lrc, hlrc, erc) handle first-write twinning
        inside the bookkeeping loop, so any valid span is ready; the
        single-writer protocol overrides this to require exclusive
        ownership (otherwise its per-unit ownership acquisition must run
        on the reference path)."""
        return True

    def _bulk_write_prep_needed(self, units: List[int]) -> bool:
        """Whether :meth:`_bulk_write_prep` would do anything for a
        scatter over ``units`` (conservative True is safe)."""
        return not self.twinned[units].all()

    def _bulk_write_prep(self, word0: int, nwords: int) -> None:
        """Per-range first-write bookkeeping on the scatter fast path --
        exactly the twin block of :meth:`write_words`."""
        for unit in self.layout.units_of_range(word0, nwords):
            if unit not in self.twins:
                self._make_twin(unit)

    def _fold_end(self, n: int, per: float) -> float:
        """The clock value after ``n`` sequential ``advance(per)`` calls,
        bit-identical to the loop: ``cumsum`` accumulates left-to-right
        in float64, the same associativity as repeated ``+=`` (pinned by
        ``tests/core/test_bulk_access.py``)."""
        arr = np.empty(n + 1, dtype=np.float64)
        arr[0] = self.clock.now
        arr[1:] = per
        return float(arr.cumsum()[-1])

    # ------------------------------------------------------------------
    # Twinning and interval closing
    # ------------------------------------------------------------------
    def _make_twin(self, unit: int) -> None:
        # Twins live in rows of a preallocated pool (reused across
        # intervals, grown geometrically) so an interval's worth of twins
        # costs no per-unit allocations and the batched diff kernel can
        # gather them with one fancy index.  ``self.twins[unit]`` is a
        # *view* of the pool row: protocols that patch a live twin
        # (hlrc/erc flushes) write through it unchanged.
        pool = self._twin_pool
        if pool is None or self._twin_count == pool.shape[0]:
            cap = 64 if pool is None else pool.shape[0] * 2
            grown = np.empty((cap, self._wpu), dtype=np.uint32)
            if pool is not None:
                grown[: pool.shape[0]] = pool
                slot_of = self._twin_slot
                for u in self.twins:
                    self.twins[u] = grown[slot_of[u]]
            self._twin_pool = pool = grown
        slot = self._twin_count
        self._twin_count = slot + 1
        pool[slot] = self.space.unit_view(unit)
        self.twins[unit] = pool[slot]
        self._twin_slot[unit] = slot
        self.twinned[unit] = True
        if self._twin_persist[unit]:
            # The real system's twin from an earlier interval is still in
            # place (no invalidation arrived, no diff was requested):
            # re-dirtying the unit is free.
            return
        self._twin_persist[unit] = True
        self.stats.twins += 1
        self.stats.mprotects += 1  # remove write protection
        if self.trace is not None:
            self.trace.on_twin(self.pid, self.clock.now, unit)
        self.clock.advance(
            self.config.mprotect_us
            + self.layout.unit_bytes * self.config.twin_byte_us
        )

    def close_interval(self) -> None:
        """End the current interval (called at every synchronization
        operation, on the processor's own thread): record per-unit diffs
        and publish the interval's write notices.

        The simulator materializes the diff data here so a later fetch
        can be served from any point in the run, but the *cost* of diff
        creation is charged lazily at fetch time (see :meth:`fetch`), as
        in TreadMarks, where a release only queues write notices and the
        word-compare scan happens when a diff is first requested."""
        if not self.twins:
            return
        diffs = self._interval_diffs()
        self.vc.tick(self.pid)
        self.store.close_interval(self.pid, self.vc, diffs)
        self.stats.intervals_closed += 1
        self.stats.write_notices_sent += len(diffs)
        self.unsent_notices += len(diffs)
        self.twins.clear()
        self.twinned[:] = False
        self._twin_count = 0

    def _interval_diffs(self) -> Dict[int, Diff]:
        """Word-compare every twinned unit against current memory in one
        batched pass; bit-identical to :meth:`_interval_diffs_ref` (the
        per-unit ``create_diff`` loop, kept as the differential oracle).

        Identity argument: ``np.flatnonzero(self.twinned)`` is the
        ascending unit order of ``sorted(self.twins)``; a raveled
        ``np.flatnonzero`` over the stacked ``(unit, word)`` inequality
        matrix enumerates changed words by unit then word offset --
        exactly the reference loop's per-unit ``np.nonzero`` outputs
        concatenated; and run counting per segment reproduces
        ``diff._wire_bytes`` because in flat coordinates a run can only
        continue across a row boundary as ``offset == 0`` (which we
        break explicitly), so segment boundaries always break a run.

        The kernel is density-adaptive: bulk writers that dirty most of
        a unit (Jacobi/Shallow interior sweeps) pay mainly for the
        idx/value copies, and a per-row pass over the inequality matrix
        stays cache-resident, while the flat kernel's int64 index
        arrays would double the traffic; sparse intervals (false-shared
        pages, Barnes/TSP scatter) are where the flat one-pass kernel
        wins.  Both branches produce identical :class:`Diff` contents.
        """
        units = np.flatnonzero(self.twinned)
        wpu = self._wpu
        if units.shape[0] <= 64:
            # Few twinned units: the per-unit view loop touches no
            # memory beyond the changed words themselves, while the
            # batched kernel would copy every twin and current unit
            # into stacked matrices first.  Batching only pays once
            # the per-call numpy overhead amortizes over many units.
            return self._interval_diffs_ref()
        cur2d = self.space.words.reshape(-1, wpu)[units]
        twin2d = self._twin_pool[self._twin_slot[units]]
        ne = twin2d != cur2d
        nchanged = int(np.count_nonzero(ne))
        nunits_twinned = units.shape[0]
        diffs: Dict[int, Diff] = {}
        if nchanged * 4 > nunits_twinned * wpu:
            # Dense: >25% of twinned words changed.
            for i, unit in enumerate(units.tolist()):
                idx = np.flatnonzero(ne[i])
                n = idx.shape[0]
                idx32 = idx.astype(np.int32)
                if n:
                    runs = 1 + int(np.count_nonzero(np.diff(idx32) != 1))
                    wire = (
                        DIFF_HEADER_BYTES + runs * RUN_HEADER_BYTES + n * WORD
                    )
                else:
                    wire = DIFF_HEADER_BYTES
                diffs[unit] = Diff(
                    unit=unit,
                    idx=idx32,
                    values=cur2d[i, idx],
                    wire_bytes=wire,
                    nwords=int(n),
                )
            return diffs
        flat = np.flatnonzero(ne.reshape(-1))
        vals = cur2d.reshape(-1)[flat]
        cc = flat % wpu
        cc32 = cc.astype(np.int32)
        seg_start = np.searchsorted(
            flat, np.arange(nunits_twinned) * wpu
        )
        nruns_total = 0
        run_before = seg_start  # placeholder when nchanged == 0
        if nchanged:
            new_run = np.empty(nchanged, dtype=bool)
            new_run[0] = True
            np.logical_or(
                np.diff(flat) != 1, cc[1:] == 0, out=new_run[1:]
            )
            run_pos = np.flatnonzero(new_run)
            run_before = np.searchsorted(run_pos, seg_start)
            nruns_total = run_pos.shape[0]
        for i, unit in enumerate(units.tolist()):
            s = int(seg_start[i])
            e = int(seg_start[i + 1]) if i + 1 < nunits_twinned else nchanged
            n = e - s
            if n:
                rb = (
                    int(run_before[i + 1])
                    if i + 1 < nunits_twinned
                    else nruns_total
                )
                runs = rb - int(run_before[i])
                wire = DIFF_HEADER_BYTES + runs * RUN_HEADER_BYTES + n * WORD
            else:
                wire = DIFF_HEADER_BYTES
            diffs[unit] = Diff(
                unit=unit,
                idx=cc32[s:e],
                values=vals[s:e],
                wire_bytes=wire,
                nwords=n,
            )
        return diffs

    def _interval_diffs_ref(self) -> Dict[int, Diff]:
        """Reference diff creation: one :func:`create_diff` per twinned
        unit in ascending order (the pre-vectorization implementation)."""
        diffs: Dict[int, Diff] = {}
        for unit in sorted(self.twins):
            diffs[unit] = create_diff(
                unit, self.twins[unit], self.space.unit_view(unit)
            )
        return diffs

    def at_sync_point(self) -> None:
        """Hook run on the processor's own thread immediately before it
        parks at any synchronization operation."""
        self.close_interval()
        self.aggregator.on_sync()

    # ------------------------------------------------------------------
    # Invalidation (runs on the scheduler thread while parked)
    # ------------------------------------------------------------------
    def apply_notices_upto(self, new_vc: VectorClock) -> tuple:
        """Receive write notices for every interval covered by ``new_vc``
        that this processor has not seen; invalidate their units.

        Returns ``(cost_us, payload_bytes, n_notices)`` so the caller can
        charge the wake-up time and size the carrying message.

        The per-unit side effects are batched per *interval* (the units
        of one interval are distinct, so testing ``pending_n == 0``
        against the state before the interval's own appends is exactly
        the per-notice emptiness check, and clearing persistence /
        access-validity flags is idempotent); the
        :class:`~repro.dsm.intervals.WriteNotice` objects themselves are
        still appended one by one because a later fetch consumes them as
        ordered lists.  ``tests/properties`` diffs this against the
        retained :meth:`IntervalStore.notices_between` oracle.
        """
        newly_invalid = 0
        n = 0
        pending = self.pending
        pending_n = self.pending_n
        persist = self._twin_persist
        invalidate_many = self.aggregator.on_invalidate_many
        store = self.store
        own_vc = self.vc
        for proc in range(self.config.nprocs):
            for interval in store.intervals_between(
                proc, own_vc[proc], new_vc[proc]
            ):
                if interval.proc == self.pid:
                    raise AssertionError("received a notice for own interval")
                ua = interval.units_arr
                if not ua.shape[0]:
                    continue
                n += ua.shape[0]
                newly_invalid += int((pending_n[ua] == 0).sum())
                pending_n[ua] += 1
                persist[ua] = False
                invalidate_many(ua)
                iproc, iidx, iseq = (
                    interval.proc,
                    interval.index,
                    interval.commit_seq,
                )
                for unit in interval.units_list:
                    lst = pending.get(unit)
                    if lst is None:
                        lst = pending[unit] = []
                    lst.append(
                        WriteNotice(
                            proc=iproc, index=iidx, unit=unit, commit_seq=iseq
                        )
                    )
        self.vc.join(new_vc)
        cost = newly_invalid * self.config.mprotect_us
        self.stats.mprotects += newly_invalid
        return cost, n * self.config.write_notice_bytes, n

    # ------------------------------------------------------------------
    # Fault service
    # ------------------------------------------------------------------
    def fetch(self, units: Sequence[int]) -> None:
        """Service an access miss by fetching the pending diffs of
        ``units`` (the faulting unit plus whatever the aggregation
        strategy bundled with it).

        Requests to the same writer are combined into one exchange;
        distinct writers are contacted in parallel, so the stall is the
        maximum (not the sum) of the per-writer response times --- the
        aggregation advantage of Sections 3 and 4.
        """
        pending_get = self.pending.get
        by_writer: Dict[int, List[WriteNotice]] = {}
        for unit in units:
            for notice in pending_get(unit, ()):
                by_writer.setdefault(notice.proc, []).append(notice)
        if not by_writer:
            raise AssertionError(f"fetch with nothing pending: units={units}")

        config = self.config
        now = self.clock.now
        fault_id = len(self.stats.fault_records)

        # Coalesce each writer's diffs as TreadMarks' lazy diffing would:
        # group the globally commit-ordered notices into maximal runs of
        # consecutive (writer, unit) entries and merge each run into one
        # diff (repro.dsm.diff.merge_diffs).  Restricting merging to
        # *consecutive* runs keeps the apply order a linear extension of
        # happens-before even when another writer's interval falls
        # between two intervals of the same writer (migratory data under
        # locks), where merging across would resurrect stale words.
        all_notices = sorted(
            (nt for lst in by_writer.values() for nt in lst),
            key=attrgetter("commit_seq"),
        )
        runs: List[List[WriteNotice]] = []
        for nt in all_notices:
            if runs and runs[-1][-1].proc == nt.proc and runs[-1][-1].unit == nt.unit:
                runs[-1].append(nt)
            else:
                runs.append([nt])

        per_writer_runs: Dict[int, List[int]] = {w: [] for w in by_writer}
        to_apply: List[tuple] = []  # (writer, diff) in commit order
        writer_diff_cost: Dict[int, float] = {w: 0.0 for w in by_writer}
        store_get = self.store.get
        diff_cache = self.store.diff_cache
        unit_scan_us = self.layout.unit_bytes * config.diff_create_byte_us
        for position, run in enumerate(runs):
            first = run[0]
            cache_key = (first.proc, first.unit, first.index, run[-1].index)
            d = diff_cache.get(cache_key)
            if d is None:
                # Lazy diffing: the writer builds the span's diff when it
                # is first requested (the scan cost sits on the response
                # path) and keeps it in the diff cache; later requests
                # for the same span are served from there.
                if len(run) == 1:
                    d = store_get(first.proc, first.index).diff_for(first.unit)
                else:
                    d = merge_diffs(
                        [store_get(nt.proc, nt.index).diff_for(nt.unit)
                         for nt in run]
                    )
                diff_cache[cache_key] = d
                writer_diff_cost[first.proc] += unit_scan_us
                self.stats.diffs_created += 1
                self.stats.diff_words_created += d.nwords
                if self.trace is not None:
                    self.trace.on_diff_create(
                        first.proc, self.pid, now, first.unit, d.nwords
                    )
            per_writer_runs[first.proc].append(position)
            to_apply.append((first.proc, d))

        # Build the exchanges: normally one per writer carrying all that
        # writer's runs; with combine_requests disabled (ablation), one
        # per (writer, run).  Each plan lists its runs' commit positions.
        exchange_plans: List[tuple] = []  # (writer, [positions], n_notices)
        if config.combine_requests:
            for writer in sorted(by_writer):
                exchange_plans.append(
                    (writer, per_writer_runs[writer], len(by_writer[writer]))
                )
        else:
            for position, (writer, _d) in enumerate(to_apply):
                exchange_plans.append((writer, [position], 1))

        stall = 0.0
        exchange_ids = []
        reply_of_run = [0] * len(to_apply)  # commit position -> reply msg id
        network = self.network
        msg_cost = config.msg_cost_us
        parallel = config.parallel_fetch
        for writer, positions, n_notices in exchange_plans:
            ex = network.new_exchange(self.pid, writer, fault_id)
            exchange_ids.append(ex)
            req_bytes = REQUEST_BASE_BYTES + REQUEST_ENTRY_BYTES * n_notices
            # Both legs of the exchange stall the faulting processor, so
            # injected delivery faults (repro.faults) charge their delays
            # to it, whichever direction the perturbed copy travels.
            req = network.record(
                self.pid, writer, MessageClass.DIFF_REQUEST, req_bytes, now, ex,
                waiter=self.pid,
            )
            reply_bytes = sum(to_apply[pos][1].wire_bytes for pos in positions)
            reply_words = sum(to_apply[pos][1].nwords for pos in positions)
            reply = network.record(
                writer, self.pid, MessageClass.DIFF_REPLY, reply_bytes, now, ex,
                waiter=self.pid,
            )
            reply.words_carried = reply_words
            for pos in positions:
                reply_of_run[pos] = reply.msg_id
            network.close_exchange(ex, req.msg_id, reply.msg_id)
            response_time = (
                msg_cost(req_bytes)
                + config.diff_service_us
                + writer_diff_cost[writer]
                + msg_cost(reply_bytes)
            )
            if parallel:
                stall = max(stall, response_time)
            else:
                stall += response_time

        # Per-exchange CPU time at the requester (send + receive): wire
        # latencies overlap across writers, CPU work does not.
        stall += 2 * config.msg_cpu_us * len(exchange_plans)

        # Apply in global commit order.
        apply_cost = 0.0
        stats = self.stats
        tracker_mark = self.tracker.mark
        apply_byte_us = config.diff_apply_byte_us
        wpu = self._wpu
        words = self.space.words
        for position, (writer, d) in enumerate(to_apply):
            msg_id = reply_of_run[position]
            w0 = d.unit * wpu
            apply_diff(d, words[w0 : w0 + wpu])
            tracker_mark(d.idx, msg_id, w0)
            apply_cost += d.data_bytes * apply_byte_us
            stats.diffs_applied += 1
            stats.diff_words_applied += d.nwords
            if self.trace is not None:
                pages, page_words = (), ()
                if d.nwords:
                    pg, cnt = np.unique(
                        (d.idx.astype(np.int64) + w0) // self.layout.words_per_page,
                        return_counts=True,
                    )
                    pages = tuple(int(p) for p in pg)
                    page_words = tuple(int(c) for c in cnt)
                self.trace.on_diff_apply(
                    self.pid, now, d.unit, writer, d.nwords, msg_id,
                    pages, page_words,
                )

        pending_pop = self.pending.pop
        pending_n = self.pending_n
        for unit in units:
            pending_pop(unit, None)
            pending_n[unit] = 0

        stats.mprotects += len(units)
        cost = (
            config.fault_trap_us
            + len(units) * config.mprotect_us
            + stall
            + apply_cost
        )
        trace_eid = None
        if self.trace is not None:
            trace_eid = self.trace.on_fault(
                proc=self.pid,
                ts=now,
                fault_id=fault_id,
                units=tuple(units),
                writers=len(by_writer),
                exchange_ids=tuple(exchange_ids),
                stall_us=stall,
                cost_us=cost,
            )
        self.stats.record_fault(
            proc=self.pid,
            time_us=now,
            units=tuple(units),
            writers=len(by_writer),
            exchange_ids=tuple(exchange_ids),
            trace_eid=trace_eid,
        )
        self.clock.advance(cost)

    def monitoring_fault(self, unit: int) -> None:
        """A dynamic-aggregation access-tracking fault: the unit's data is
        already current, so no messages are exchanged; only the trap and
        re-protection costs are paid (the Section-4 monitoring overhead)."""
        self.stats.mprotects += 1
        cost = self.config.fault_trap_us + self.config.mprotect_us
        trace_eid = None
        if self.trace is not None:
            trace_eid = self.trace.on_fault(
                proc=self.pid,
                ts=self.clock.now,
                fault_id=len(self.stats.fault_records),
                units=(unit,),
                writers=0,
                exchange_ids=(),
                stall_us=0.0,
                cost_us=cost,
                monitoring=True,
            )
        self.stats.record_fault(
            proc=self.pid,
            time_us=self.clock.now,
            units=(unit,),
            writers=0,
            exchange_ids=(),
            monitoring=True,
            trace_eid=trace_eid,
        )
        self.clock.advance(cost)
