"""The paper's central trade-off, reproduced in one script.

Sweeps the consistency unit (4 / 8 / 16 KB and the dynamic page-group
scheme) over the two extreme applications:

* **ILINK** -- fine-grained sharing mixed with true sharing on every
  page: aggregation wins, no useless messages appear;
* **MGS (1Kx1K)** -- read/write granularity exactly one page: any larger
  unit manufactures write-write false sharing, useless messages explode,
  and performance collapses (the paper's Figure 2 log-scale panel).

The dynamic scheme tracks the winner on both.

    python examples/false_sharing_tradeoff.py
"""

from repro.bench.harness import UNIT_LABELS, lookup
from repro.bench.pool import SweepCell, run_cells


def sweep(app: str, dataset: str) -> None:
    print(f"\n=== {app} {dataset} ===")
    results = run_cells(
        [SweepCell.make(app, dataset, label) for label in UNIT_LABELS]
    ).results
    base = None
    print(f"{'unit':>5} {'time':>8} {'norm':>6} {'messages':>9} "
          f"{'useless':>8} {'useless KB':>11} {'mean CW':>8}")
    for label in UNIT_LABELS:
        c = lookup(results, app, dataset, label)
        if base is None:
            base = c.time_us
        mean_cw = sum(k * sum(v) for k, v in c.signature.items())
        print(
            f"{label:>5} {c.time_us / 1e6:7.3f}s {c.time_us / base:6.2f} "
            f"{c.total_messages:9d} {c.useless_messages:8d} "
            f"{c.useless_bytes // 1024:11d} {mean_cw:8.2f}"
        )


def main() -> None:
    sweep("ILINK", "CLP")
    sweep("MGS", "1Kx1K")
    print(
        "\nReading: ILINK's signature (mean CW) is invariant, so larger "
        "units only\naggregate -- time falls monotonically.  MGS's "
        "signature shifts right with the\nunit, useless messages explode, "
        "and time degrades severely; the dynamic\nscheme matches the best "
        "static choice on both."
    )


if __name__ == "__main__":
    main()
