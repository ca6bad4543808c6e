"""Host-time benchmark of the DSM simulator.

    python3 perfbench/run.py --workload fault-heavy --seed 1 --seconds 12 --trace 0

One closed-loop client in one process: the workload's cells run one at a
time through ``repro.bench.harness.run_case`` (each cell's engine keeps
exactly one simulated-processor thread runnable).  The seed permutes the
cell order of every pass; cell results do not depend on it.

``--trace 0`` runs the first cell as a warm-up, then timed passes for about
``--seconds``, and prints the end-to-end metrics.
``--trace 1`` runs the first cell as a warm-up, then pairs of a clean pass and a
span pass (:mod:`spans`) until ``--seconds`` have elapsed, and prints
the per-layer metrics.

Every cell of every pass is checked against the committed golden
results, and against its own result in the first pass.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a run record with every
sample, the quartiles, the per-cell split and a host fingerprint is
written to ``perfbench/out/``.  A failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import workloads
from workloads import ROOT, WORKLOADS, Cell, Expected

HERE = ROOT / "perfbench"
OUT = HERE / "out"
#: Set-up probes per ``--trace 0`` run; setup_s is their median.
SETUP_PROBES = 7
#: Minimum clean/span pass pairs of a ``--trace 1`` run.
MIN_SPAN_PAIRS = 2
#: glibc ``mallopt`` parameter numbers.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
#: Fixed mmap threshold: blocks from this size up get their own mapping.
MMAP_THRESHOLD = 4 << 20


def steady_malloc() -> None:
    """Make glibc malloc's layout independent of the run's history.

    * One arena.  The engine runs one simulated-processor thread at a
      time, so per-thread arenas buy nothing; they only keep freed memory
      in whichever arena a thread happened to get, which made peak RSS
      vary by about 10% from run to run.
    * A fixed mmap threshold (and trim threshold twice it).  By default
      glibc raises the threshold to the largest mapped block freed so
      far, so whether a Barnes array came from a mapping or from the heap
      depended on which cells ran before; a pass's peak then read about
      228 or about 247 MB at random.  4 MiB keeps the many smaller numpy
      temporaries on the heap: at 128 KiB, Barnes ran 1.5x slower.

    A no-op where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(M_ARENA_MAX, 1)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)


def release_heap_and_reset_peak() -> None:
    """Hand the heap that freed objects left behind back to the OS
    (``malloc_trim``) and reset the kernel's peak-RSS mark of this
    process.  Without the trim, a cell's peak included whatever heap
    earlier cells had freed but glibc kept, so it grew with the number
    and order of the cells before it."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError as exc:
        raise SystemExit(f"perfbench: cannot reset the peak-RSS mark: {exc}") from exc


def peak_rss_mb() -> float:
    """This process's peak resident memory since the last reset, in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SystemExit("perfbench: no VmHWM in /proc/self/status")


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Sample count, median and quartiles of one metric's samples."""
    vals = sorted(values)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"n": len(vals), "median": statistics.median(vals), "q1": q1, "q3": q3,
            "samples": list(values)}


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    from repro.bench.cache import code_version

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "code_version": code_version()}


def measure_setup(workload: str) -> List[float]:
    """Seconds from process start until the first cell could start, in
    fresh probe processes that do the benchmark's set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "workloads.py"), workload],
                              stdout=subprocess.PIPE, text=True) as child:
            assert child.stdout is not None
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up probe exited {code}")
    return samples


class Runner:
    """Runs seeded passes over one workload and checks every cell."""

    def __init__(self, cells: Tuple[Cell, ...], expected: Dict[Cell, Expected], seed: int) -> None:
        from repro.bench.harness import run_case

        self._run_case = run_case
        self.cells = cells
        self.expected = expected
        self.rng = random.Random(seed)
        self.first: Dict[Cell, Any] = {}
        """Each cell's first CaseResult; every later one must equal it."""
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run_cell(self, cell: Cell) -> Tuple[float, Any]:
        """(wall time, CaseResult) of one cell.  The time includes
        collecting the cell's own cyclic garbage, so no cell pays for its
        predecessor's and the process never holds two cells' state at
        once (peak memory does not depend on the order)."""
        t0 = time.perf_counter()
        case = self._run_case(cell.app, cell.dataset, cell.label, **cell.extra())
        gc.collect()
        return time.perf_counter() - t0, case

    def warm_up(self) -> None:
        """Run the workload's first cell outside the timed passes, so
        one-time first-use costs stay out of them.  It is the same cell
        for every seed: the heap layout it leaves lasts the whole run,
        and a seed-chosen one moved physics-heavy's peak RSS by 3%."""
        cell = self.cells[0]
        self._check(cell, self.run_cell(cell)[1])

    def run_pass(self, after_cell: Any = None) -> Tuple[float, Dict[Cell, float], float]:
        """One pass in a fresh seeded order; returns the wall time from
        the first cell's start to the last cell's end, each cell's wall
        time, and the pass's peak RSS in MB: the largest of its cells'
        peaks, each taken from a trimmed heap
        (:func:`release_heap_and_reset_peak`), so it does not depend on
        the order.  The trims and ``after_cell(cell)`` run untimed after
        each cell."""
        order = list(self.cells)
        self.rng.shuffle(order)
        walls: Dict[Cell, float] = {}
        cases: Dict[Cell, Any] = {}
        gc.collect()
        release_heap_and_reset_peak()
        peak = 0.0
        untimed = 0.0
        start = time.perf_counter()
        for cell in order:
            walls[cell], cases[cell] = self.run_cell(cell)
            t0 = time.perf_counter()
            peak = max(peak, peak_rss_mb())
            release_heap_and_reset_peak()
            if after_cell is not None:
                after_cell(cell)
            untimed += time.perf_counter() - t0
        wall = time.perf_counter() - start - untimed
        for cell in order:
            self._check(cell, cases[cell])
        return wall, walls, peak

    def _check(self, cell: Cell, case: Any) -> None:
        self.attempted += 1
        bad = workloads.check(cell, case, self.expected[cell])
        if self.first.setdefault(cell, case).to_json_dict() != case.to_json_dict():
            bad.append(f"  {cell.name}: CaseResult differs from the first pass")
        if bad:
            self.failed += 1
            self.errors += bad


def end_to_end(runner: Runner, workload: str, seconds: float) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Warm-up cell, then timed passes for about ``seconds``; returns (metric
    summaries, per-cell wall summaries)."""
    runner.warm_up()
    walls: List[float] = []
    peaks: List[float] = []
    cell_walls: Dict[Cell, List[float]] = {c: [] for c in runner.cells}
    t_end = time.perf_counter() + seconds
    # Start another pass only while at least half of it fits the budget.
    while not walls or time.perf_counter() + statistics.median(walls) / 2 < t_end:
        wall, per_cell, peak = runner.run_pass()
        walls.append(wall)
        peaks.append(peak)
        for cell, w in per_cell.items():
            cell_walls[cell].append(w)
    cells = {c.name: summary(v) for c, v in cell_walls.items()}
    slowest = max(cells.values(), key=lambda s: s["median"])
    metrics = {
        "wall_s": summary(walls),
        "slowest_cell_s": slowest,
        "setup_s": summary(measure_setup(workload)),
        "peak_rss_mb": summary(peaks),
    }
    return metrics, cells


def per_layer(runner: Runner, seconds: float) -> Tuple[Dict[str, Any], Dict[str, Any], List[str]]:
    """Warm-up cell, then clean/span pass pairs for ``seconds``; returns
    (metric summaries, per-cell split, self-check failures)."""
    from spans import LAYERS, PARK, SpanMeter

    meter = SpanMeter()
    problems: List[str] = []
    runner.warm_up()
    clean: List[float] = []
    clean_cells: Dict[Cell, List[float]] = {c: [] for c in runner.cells}
    span_walls: List[float] = []
    span_cells: Dict[Cell, List[Dict[str, Tuple[int, float]]]] = {c: [] for c in runner.cells}
    span_cell_walls: Dict[Cell, List[float]] = {c: [] for c in runner.cells}

    def take(cell: Cell) -> None:
        span_cells[cell].append(meter.take())

    t_end = time.perf_counter() + seconds
    while len(span_walls) < MIN_SPAN_PAIRS or time.perf_counter() < t_end:
        wall, per_cell, _ = runner.run_pass()
        clean.append(wall)
        for cell, w in per_cell.items():
            clean_cells[cell].append(w)
        with meter:
            wall, per_cell, _ = runner.run_pass(after_cell=take)
        if not meter.restored():
            problems.append("span pass left a wrapped attribute in place")
        span_walls.append(wall)
        for cell, w in per_cell.items():
            span_cell_walls[cell].append(w)

    names = meter.names
    calls: Dict[str, int] = {n: 0 for n in names}
    self_samples: Dict[str, List[float]] = {n: [0.0] * len(span_walls) for n in names}
    unattributed = [0.0] * len(span_walls)
    split: Dict[str, Any] = {}
    for cell in runner.cells:
        takes = span_cells[cell]
        counts = {n: takes[0][n][0] for n in names}
        for i, t in enumerate(takes):
            if {n: t[n][0] for n in names} != counts:
                problems.append(f"{cell.name}: span call counts differ between span passes")
            attributed = sum(t[n][1] for n in names)
            rest = span_cell_walls[cell][i] - attributed
            if rest < -0.005 * span_cell_walls[cell][i]:
                problems.append(f"{cell.name}: spans attribute {attributed:.3f}s of a "
                                f"{span_cell_walls[cell][i]:.3f}s cell")
            unattributed[i] += rest
            for n in names:
                self_samples[n][i] += t[n][1]
        for n in names:
            calls[n] += counts[n]
        split[cell.name] = {
            n: {"calls": counts[n], "self_s": statistics.median(t[n][1] for t in takes)}
            for n in names if counts[n]
        }

    metrics: Dict[str, Any] = {}
    for n in names:
        metrics[f"{n}.calls"] = summary([calls[n]])
        if n != PARK:
            metrics[f"{n}.self_s"] = summary(self_samples[n])
    for layer in LAYERS:
        layer_self = [sum(self_samples[n][i] for n in names if n.split(".")[0] == layer)
                      for i in range(len(span_walls))]
        metrics[f"{layer}.self_s"] = summary(layer_self)
        metrics[f"{layer}.share"] = summary([s / w for s, w in zip(layer_self, span_walls, strict=True)])
    metrics["sim.unattributed_s"] = summary(unattributed)
    fetches = calls["dsm.fetch"]
    metrics["dsm.diffs_per_fault"] = summary([calls["dsm.apply_diff"] / fetches if fetches else 0.0])
    metrics["bench.span_overhead_x"] = summary([s / c for s, c in zip(span_walls, clean, strict=True)])
    twins = [c for c in runner.cells if not c.trace and replace(c, trace=True) in runner.cells]
    traced = [replace(c, trace=True) for c in twins]
    ratios = [0.0]
    if twins:
        ratios = [sum(clean_cells[c][i] for c in traced) / sum(clean_cells[c][i] for c in twins)
                  for i in range(len(clean))]
    metrics["bench.trace_overhead_x"] = summary(ratios)
    metrics["bench.cell_fail_ratio"] = summary([runner.failed / runner.attempted])
    cases = runner.first.values()
    metrics["sim.faults"] = summary([sum(c.faults for c in cases)])
    metrics["sim.messages"] = summary([sum(c.total_messages for c in cases)])
    metrics["sim.bytes"] = summary([sum(c.total_bytes for c in cases)])
    metrics["bench.clean_wall_s"] = summary(clean)
    metrics["bench.span_wall_s"] = summary(span_walls)
    return metrics, split, problems


def declared_metrics(trace: bool) -> Dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[Sequence[str]] = None) -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    steady_malloc()
    expected = workloads.prepare(args.workload)
    declared = declared_metrics(bool(args.trace))
    runner = Runner(WORKLOADS[args.workload], expected, args.seed)
    if args.trace:
        stats, cells, span_problems = per_layer(runner, args.seconds)
    else:
        stats, cells = end_to_end(runner, args.workload, args.seconds)
        span_problems = []
    problems = runner.errors + span_problems

    extra = sorted(set(declared) - set(stats))
    if extra:
        problems.append(f"declared but not measured: {extra}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_fingerprint(),
        "cells": [c.name for c in runner.cells], "attempted": runner.attempted,
        "failed": runner.failed, "problems": problems, "metrics": stats,
        "per_cell": cells, "run_s": time.perf_counter() - t_start,
    }
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for name in sorted(stats):
        s = stats[name]
        print(f"{name:40s} {s['median']:>14.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    for line in problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": stats[n]["median"], "unit": u}
                    for n, u in declared.items() if n in stats},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
