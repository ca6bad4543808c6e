"""Command-line front end of the fault lab.

    python -m repro.faults --chaos-sweep --seeds 5
    python -m repro.faults --chaos-sweep --seeds 3 --apps Jacobi,TSP --jobs 4
    python -m repro.faults Jacobi 1Kx1K 4K --drop 0.05 --jitter 100

Two modes:

* ``--chaos-sweep`` runs the invariant gate (:mod:`repro.faults.gate`):
  N reseeded fault plans across every application's smallest paper
  dataset, each cell exact-matched against the committed fault-free
  golden baselines.  Exit 1 if any checksum or useful-data counter
  moved, or a dropping plan produced zero retransmissions anywhere.

* ``APP DATASET LABEL`` runs one faulty cell and prints it side by side
  with the fault-free run of the same cell, so the cost of a plan is
  visible counter by counter.

Fault knobs (``--drop/--dup/--reorder/--jitter`` etc.) configure a
uniform all-classes plan; ``--no-retries`` turns recovery off, in which
case the first lost message aborts the run with its identity.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Optional, Sequence

from repro.bench import cache
from repro.bench.golden import GOLDEN_DIR, GOLDEN_LABELS, SMALL_DATASETS
from repro.bench.harness import CaseResult, run_case
from repro.bench.pool import SweepCell, run_cells
from repro.farm.store import LocalDirBackend, ResultStore
from repro.faults.channel import DroppedMessageError
from repro.faults.gate import FAULT_FIELDS, INVARIANT_FIELDS, run_chaos
from repro.faults.plan import FaultPlan


def build_plan(args: argparse.Namespace) -> FaultPlan:
    """The uniform plan described by the CLI fault knobs."""
    return FaultPlan.uniform(
        seed=args.seed,
        drop_rate=args.drop,
        dup_rate=args.dup,
        reorder_rate=args.reorder,
        jitter_us=args.jitter,
    ).replace(
        max_retries=args.max_retries,
        timeout_us=args.timeout_us,
        retries_enabled=not args.no_retries,
    )


def render_single(base: CaseResult, faulty: CaseResult) -> str:
    """Side-by-side fault-free vs faulty report of one cell."""
    lines = [
        f"--- {faulty.app}/{faulty.dataset}@{faulty.label} ---",
        f"{'counter':28} {'fault-free':>14} {'faulty':>14}",
    ]
    fields = ("time_us",) + INVARIANT_FIELDS + FAULT_FIELDS
    for f in fields:
        b, x = getattr(base, f), getattr(faulty, f)
        if b == x:
            mark = ""
        elif f == "time_us":
            mark = "  +shadow"
        elif f in FAULT_FIELDS:
            mark = "  +fault"
        else:
            mark = "  **"
        bs = f"{b:.1f}" if isinstance(b, float) else str(b)
        xs = f"{x:.1f}" if isinstance(x, float) else str(x)
        lines.append(f"{f:28} {bs:>14} {xs:>14}{mark}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Fault-injection lab: faulty runs and the chaos gate.",
    )
    parser.add_argument(
        "cell",
        nargs="*",
        metavar="APP DATASET LABEL",
        help="run one faulty cell and compare against its fault-free run",
    )
    parser.add_argument(
        "--chaos-sweep",
        action="store_true",
        help="run the invariant gate over every application's smallest "
        "dataset; exit 1 on any divergence from benchmarks/golden/",
    )
    parser.add_argument("--seeds", type=int, default=5, metavar="N",
                        help="number of reseeded plans to sweep (default 5)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base plan seed (default 0)")
    parser.add_argument(
        "--apps", type=str, default=None, metavar="APP[,APP]",
        help="restrict the sweep to these applications",
    )
    parser.add_argument(
        "--labels", type=str, default="4K", metavar="L[,L]",
        help=f"consistency labels to sweep, from {GOLDEN_LABELS} "
        "(default 4K)",
    )
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan cells out over N worker processes")
    parser.add_argument("--drop", type=float, default=0.02,
                        help="message drop rate (default 0.02)")
    parser.add_argument("--dup", type=float, default=0.01,
                        help="duplicate-delivery rate (default 0.01)")
    parser.add_argument("--reorder", type=float, default=0.02,
                        help="bounded-reorder rate (default 0.02)")
    parser.add_argument("--jitter", type=float, default=50.0, metavar="US",
                        help="max latency jitter per message in "
                        "microseconds (default 50)")
    parser.add_argument("--max-retries", type=int, default=8,
                        help="retransmission cap per message (default 8)")
    parser.add_argument("--timeout-us", type=float, default=1000.0,
                        help="initial retransmission timeout (default 1000)")
    parser.add_argument(
        "--no-retries", action="store_true",
        help="disable the timeout/retransmit machinery: the first lost "
        "message raises DroppedMessageError",
    )
    parser.add_argument(
        "--golden-dir", type=pathlib.Path, default=GOLDEN_DIR,
        help="golden baseline directory (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=cache.DEFAULT_CACHE_DIR,
        help="result store directory (default: %(default)s)",
    )
    parser.add_argument("--no-cache", action="store_true",
                        help="run without a result store")
    args = parser.parse_args(argv)

    if args.chaos_sweep == bool(args.cell):
        parser.error("give either --chaos-sweep or APP DATASET LABEL")
    if args.cell and len(args.cell) != 3:
        parser.error(
            f"single-run mode takes exactly APP DATASET LABEL, "
            f"got {args.cell!r}"
        )
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    store = None if args.no_cache else ResultStore(LocalDirBackend(args.cache_dir))
    plan = build_plan(args)
    if args.chaos_sweep:
        report = run_chaos(
            seeds=args.seeds,
            base_seed=args.seed,
            plan=plan,
            apps=args.apps.split(",") if args.apps else None,
            labels=tuple(args.labels.split(",")),
            jobs=args.jobs,
            golden_dir=args.golden_dir,
            progress=lambda msg: print(f"# {msg}", file=sys.stderr),
            store=store,
        )
        print(report.render())
        return 0 if report.ok else 1

    app, dataset, label = args.cell
    if app in SMALL_DATASETS and dataset == "small":
        dataset = SMALL_DATASETS[app]
    if label not in GOLDEN_LABELS:
        print(f"error: unknown unit label {label!r}; "
              f"have {GOLDEN_LABELS}", file=sys.stderr)
        return 1
    cell = SweepCell.make(app, dataset, label)
    try:
        base = run_cells([cell], store=store).results[cell.key]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    try:
        faulty = run_case(app, dataset, label, fault_plan=plan.canonical())
    except DroppedMessageError as exc:
        print(f"run failed: {exc}")
        return 1
    print(render_single(base, faulty))
    invariant_ok = all(
        getattr(base, f) == getattr(faulty, f) for f in INVARIANT_FIELDS
    )
    print(
        "invariant: "
        + ("OK (only time and fault counters moved)" if invariant_ok
           else "VIOLATED (** rows above)")
    )
    return 0 if invariant_ok else 1

if __name__ == "__main__":
    sys.exit(main())
