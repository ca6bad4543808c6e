"""Performance-regression smoke gate for the bulk-access fast path.

    python -m repro.bench.perf_smoke
    python -m repro.bench.perf_smoke --repeats 5 --bench BENCH_vec.json

``BENCH_bulk.json`` (repo root) records the measured figure-1 speedup
of the bulk region-access port over the pre-port per-element baseline;
``BENCH_vec.json`` records the vectorized protocol kernels' full-size
sweep timings.  Each carries one designated smoke cell with its
measured bulk-mode wall time.  This gate re-times that cell under the
bulk fast path
(best of ``--repeats``) and fails when it runs more than
``max_regression`` slower than recorded -- the failure mode this smoke
exists to catch is a change that silently knocks the fast path down a
tier (e.g. every access suddenly taking the reference loop).

Wall time is machine-dependent; the recorded budget includes the
``max_regression`` headroom (25%) on top of a best-of-N measurement,
and the gate scores a best-of-N too, so scheduler noise cancels.  A
persistently slower CI host can widen the budget by refreshing the
recorded seconds -- the gate's value is catching order-of-magnitude
tier losses, not 5% drifts.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Callable, Optional, Sequence

from repro.bench.harness import run_case

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
#: Benchmark records live at the repository root (BENCH_bulk.json is the
#: PR-7 bulk-port record; BENCH_vec.json the vectorized-kernel record --
#: gate against it with ``--bench BENCH_vec.json``).
DEFAULT_BENCH = REPO_ROOT / "BENCH_bulk.json"


def time_cell(app: str, dataset: str, label: str, repeats: int) -> float:
    """Best-of-``repeats`` wall seconds of one bulk-mode cell (one
    untimed warmup run amortizes imports and allocator warmup)."""
    run_case(app, dataset, label)
    return min(
        _timed(lambda: run_case(app, dataset, label))
        for _ in range(repeats)
    )


def _timed(fn: Callable[[], object]) -> float:
    # This module *measures* host wall time (that is its job); nothing
    # simulation-ordered happens here.
    t0 = time.perf_counter()  # detlint: ok(wall-clock)
    fn()
    return time.perf_counter() - t0  # detlint: ok(wall-clock)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf_smoke",
        description="Fail when the bulk fast path's designated smoke "
        "cell regresses vs a repo-root BENCH_*.json record.",
    )
    parser.add_argument(
        "--bench",
        type=pathlib.Path,
        default=DEFAULT_BENCH,
        help="BENCH_*.json record to gate against, e.g. BENCH_vec.json "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed repetitions; the best is scored (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    spec = json.loads(args.bench.read_text())["perf_smoke"]
    app, dataset, label = spec["app"], spec["dataset"], spec["label"]
    recorded = float(spec["seconds"])
    max_regression = float(spec["max_regression"])
    budget = recorded * (1.0 + max_regression)

    best = time_cell(app, dataset, label, args.repeats)
    print(
        f"perf smoke {app}/{dataset} {label} (bulk): best of "
        f"{args.repeats} = {best:.3f}s (recorded {recorded:.3f}s, "
        f"budget {budget:.3f}s)"
    )
    if best > budget:
        print(
            f"FAIL: smoke cell regressed more than "
            f"{max_regression:.0%} vs {args.bench.name}",
            file=sys.stderr,
        )
        return 1
    print("perf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
