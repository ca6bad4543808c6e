"""Hot-path profiler for sweep cells: where does wall-clock go?

    python -m repro.bench profile
    python -m repro.bench profile --profile-case Barnes,32K,4K

Runs one (application, dataset, unit-label) cell once with

* a :mod:`cProfile` profiler attached to **every engine worker thread**
  (application and protocol code runs on those threads, so a main-thread
  profiler would see almost nothing) plus the main thread, aggregated
  into one top-N-by-cumulative-time table.  The threads take turns and
  each profile also counts the time its thread sat parked, so the
  table's all-threads total exceeds the run's wall time, which is
  measured separately around the whole run; and
* the :mod:`repro.trace` recorder, whose barrier arrive/depart events
  attribute the run's *simulated* microseconds (and fault / diff /
  message counts) to per-barrier-epoch phases -- the same hooks the
  Chrome-trace exporter consumes, so profiling adds no new
  instrumentation to the protocol layer.

The profiler is observational: the report ends with the cell's golden
counters, and ``tests/bench/test_profile_smoke.py`` asserts they equal
an unprofiled run of the same cell.  Output lands in
``repro_results/profile/`` as both ``.txt`` (human table) and ``.json``.
"""

from __future__ import annotations

import bisect
import cProfile
import io
import json
import pathlib
import pstats
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.apps.base import get_app, run_app
from repro.bench.harness import CaseResult, config_for

#: Default cell: the heaviest full-size figure-1 configuration.
DEFAULT_CASE = "Barnes,32K,4K"
#: Default output directory (under the repository root).
DEFAULT_OUT = pathlib.Path("repro_results") / "profile"
#: Rows in the cumulative-time table.
TOP_N = 20


@dataclass
class PhaseRow:
    """Aggregates of one barrier epoch (one paper 'phase')."""

    epoch: int
    busy_us: float = 0.0
    """Simulated processor-time between the previous barrier departure
    and this epoch's arrival, summed over processors."""
    faults: int = 0
    diff_creates: int = 0
    messages: int = 0


@dataclass
class ProfileReport:
    """Everything the profile command measured for one cell."""

    app: str
    dataset: str
    label: str
    wall_s: float
    """Process wall time of the profiled run."""
    threads_total_s: float
    """Profiled time summed over every thread, parked time included."""
    case: CaseResult
    top: List[Tuple[str, int, float, float]]
    """(function, ncalls, tottime_s, cumtime_s), cumulative-descending."""
    phases: List[PhaseRow] = field(default_factory=list)
    tail_busy_us: float = 0.0
    """Simulated busy time after the last barrier (checksum epilogue)."""

    # ------------------------------------------------------------------
    def render(self) -> str:
        out = io.StringIO()
        cell = f"{self.app}/{self.dataset}/{self.label}"
        out.write(
            f"profile {cell}: {self.wall_s:.2f}s wall "
            f"({self.threads_total_s:.2f}s all-threads total)\n\n"
        )
        out.write(f"top {TOP_N} by cumulative time (all threads)\n")
        out.write(f"{'cum_s':>8} {'tot_s':>8} {'ncalls':>9}  function\n")
        for name, ncalls, tot, cum in self.top:
            out.write(f"{cum:8.3f} {tot:8.3f} {ncalls:9d}  {name}\n")
        out.write("\nper-phase simulated cost (barrier epochs)\n")
        out.write(
            f"{'epoch':>5} {'busy_ms':>10} {'faults':>7} "
            f"{'diffs':>6} {'msgs':>7}\n"
        )
        for ph in self.phases:
            out.write(
                f"{ph.epoch:5d} {ph.busy_us / 1000.0:10.2f} "
                f"{ph.faults:7d} {ph.diff_creates:6d} {ph.messages:7d}\n"
            )
        if self.tail_busy_us:
            out.write(
                f"{'tail':>5} {self.tail_busy_us / 1000.0:10.2f}\n"
            )
        c = self.case
        out.write(
            f"\ncounters: time_us={c.time_us} faults={c.faults} "
            f"msgs={c.total_messages} bytes={c.total_bytes} "
            f"checksum={c.checksum}\n"
        )
        return out.getvalue()

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "dataset": self.dataset,
            "label": self.label,
            "wall_s": self.wall_s,
            "threads_total_s": self.threads_total_s,
            "top": [
                {"function": n, "ncalls": c, "tottime_s": t, "cumtime_s": u}
                for n, c, t, u in self.top
            ],
            "phases": [
                {
                    "epoch": p.epoch,
                    "busy_us": p.busy_us,
                    "faults": p.faults,
                    "diff_creates": p.diff_creates,
                    "messages": p.messages,
                }
                for p in self.phases
            ],
            "tail_busy_us": self.tail_busy_us,
            "counters": self.case.to_json_dict(),
        }


# ----------------------------------------------------------------------
def _profiled_run(app_name: str, dataset: str, label: str):
    """Run one cell with a profiler on every engine thread; returns
    (RunResult, list of per-thread profiles)."""
    from repro.sim.engine import Engine

    profiles: List[cProfile.Profile] = []
    orig = Engine._thread_body

    def wrapped(self: Engine, ctx, fn) -> None:  # type: ignore[no-untyped-def]
        prof = cProfile.Profile()
        profiles.append(prof)

        def run(c) -> None:  # type: ignore[no-untyped-def]
            prof.enable()
            try:
                fn(c)
            finally:
                prof.disable()

        orig(self, ctx, run)

    main_prof = cProfile.Profile()
    profiles.append(main_prof)
    Engine._thread_body = wrapped  # type: ignore[method-assign]
    try:
        main_prof.enable()
        try:
            res = run_app(
                get_app(app_name), dataset, config_for(label, trace=True)
            )
        finally:
            main_prof.disable()
    finally:
        Engine._thread_body = orig  # type: ignore[method-assign]
    return res, profiles


def _top_rows(
    profiles: List[cProfile.Profile], top_n: int
) -> Tuple[List[Tuple[str, int, float, float]], float]:
    """Aggregate thread profiles into (rows, all-threads total seconds)."""
    stats = pstats.Stats(profiles[0], stream=io.StringIO())
    for prof in profiles[1:]:
        stats.add(prof)
    rows: List[Tuple[str, int, float, float]] = []
    for (fname, lineno, func), (
        _cc,
        nc,
        tt,
        ct,
        _callers,
    ) in stats.stats.items():  # type: ignore[attr-defined]
        short = pathlib.Path(fname).name if fname != "~" else "builtin"
        rows.append((f"{short}:{lineno}:{func}", nc, tt, ct))
    # Cumulative-descending, then name: a total order, so equal-cost
    # rows render in a stable order.
    rows.sort(key=lambda r: (-r[3], r[0]))
    total = getattr(stats, "total_tt", 0.0)
    return rows[:top_n], float(total)


def _phase_rows(trace) -> Tuple[List[PhaseRow], float]:  # type: ignore[no-untyped-def]
    """Fold trace events into per-barrier-epoch aggregates."""
    arrives = trace.by_kind("barrier_arrive")
    departs = trace.by_kind("barrier_depart")
    if not arrives:
        return [], 0.0
    # Epoch k of processor p spans from p's depart of barrier k-1 (or 0)
    # to its arrival at barrier k; boundaries are per-proc arrival times.
    by_proc_arrive: Dict[int, List[float]] = {}
    by_proc_depart: Dict[int, List[float]] = {}
    for ev in arrives:
        by_proc_arrive.setdefault(ev.proc, []).append(ev.ts_us)
    for ev in departs:
        by_proc_depart.setdefault(ev.proc, []).append(ev.wake_ts_us)
    nepochs = max(len(ts) for ts in by_proc_arrive.values())
    phases = [PhaseRow(epoch=i) for i in range(nepochs)]
    tail = 0.0
    for proc, ats in by_proc_arrive.items():
        dts = by_proc_depart.get(proc, [])
        prev = 0.0
        for i, at in enumerate(ats):
            phases[i].busy_us += at - prev
            prev = dts[i] if i < len(dts) else at
        # Work after the final departure (checksum epilogue).
        last = trace.events[-1].ts_us if trace.events else prev
        if last > prev:
            tail += last - prev
    for kind, attr in (
        ("fault", "faults"),
        ("diff_create", "diff_creates"),
        ("message", "messages"),
    ):
        for ev in trace.by_kind(kind):
            ats = by_proc_arrive.get(ev.proc)
            if not ats:
                continue
            i = bisect.bisect_left(ats, ev.ts_us)
            if i < nepochs:
                setattr(
                    phases[i], attr, getattr(phases[i], attr) + 1
                )
    return phases, tail


# ----------------------------------------------------------------------
def run_profile(case_spec: str) -> ProfileReport:
    """Profile one ``APP,DATASET,LABEL`` cell."""
    parts = case_spec.split(",")
    if len(parts) != 3:
        raise ValueError(
            f"--profile-case wants APP,DATASET,LABEL; got {case_spec!r}"
        )
    app_name, dataset, label = (p.strip() for p in parts)
    # The report's wall time is host time by design; nothing
    # simulation-ordered reads it.
    t0 = time.perf_counter()  # detlint: ok(wall-clock)
    res, profiles = _profiled_run(app_name, dataset, label)
    wall = time.perf_counter() - t0  # detlint: ok(wall-clock)
    top, threads_total = _top_rows(profiles, TOP_N)
    phases, tail = _phase_rows(res.trace)
    return ProfileReport(
        app=app_name,
        dataset=dataset,
        label=label,
        wall_s=wall,
        threads_total_s=threads_total,
        case=CaseResult.from_run(res),
        top=top,
        phases=phases,
        tail_busy_us=tail,
    )


def run_and_write(case_spec: str, outdir: pathlib.Path) -> str:
    """Profile a cell, write .txt/.json reports, return the rendered
    table (with the output paths appended)."""
    report = run_profile(case_spec)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{report.app.lower()}-{report.dataset}-{report.label}"
    txt = outdir / f"{stem}.profile.txt"
    js = outdir / f"{stem}.profile.json"
    text = report.render()
    txt.write_text(text)
    js.write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return text + f"\nwrote {txt}\nwrote {js}"
