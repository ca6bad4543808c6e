"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.bench.harness` -- run matrix, caching, normalization, and
  ASCII rendering shared by all experiments.
* :mod:`repro.bench.table1` -- Table 1 (sequential times and 8-processor
  speedups at the 4 KB unit).
* :mod:`repro.bench.figures` -- Figures 1 and 2 (normalized execution
  time / messages / data with useful-useless-piggyback breakdowns) and
  Figure 3 (false-sharing signatures at 4 KB vs 16 KB).
* :mod:`repro.bench.micro` -- the Section 5.1 platform microbenchmarks.
* :mod:`repro.bench.ablation` -- ablations of the design choices called
  out in DESIGN.md (dynamic group size, request combining, parallel
  fetch).
* :mod:`repro.bench.experiments` -- the registry of every experiment's
  cells and renderer, read by the bench CLI and the farm.
* :mod:`repro.bench.cache` -- cell keys over (code version, app,
  dataset, config) and the stored-entry layout; any source change
  invalidates every stored cell.
* :mod:`repro.bench.pool` -- reads cells from a result store and runs
  the misses, serially or over processes (``--jobs``), bit-identical to
  serial execution.
* :mod:`repro.bench.golden` -- the golden-baseline regression gate
  (``--check`` / ``--refresh-golden`` against ``benchmarks/golden/``).

Each module renders the paper-shaped table as text from the results of
its cells and returns the raw numbers; the ``benchmarks/``
pytest-benchmark suite drives them and writes the outputs next to
EXPERIMENTS.md.
"""

from repro.bench.harness import (
    UNIT_LABELS,
    CaseResult,
    lookup,
    run_case,
    render_breakdown_table,
)
from repro.bench.pool import SweepCell, run_cells

__all__ = [
    "UNIT_LABELS",
    "CaseResult",
    "SweepCell",
    "lookup",
    "run_case",
    "run_cells",
    "render_breakdown_table",
]
