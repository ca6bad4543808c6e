"""The experiment registry: each experiment's cells and renderer, once.

An experiment pairs the sweep cells it consumes with a renderer, a pure
function of the results of those cells (cell key -> ``CaseResult``, as
returned by :func:`repro.bench.pool.run_cells`).  Every front end reads
this one table:

* ``python -m repro.bench <name>`` runs each experiment that has a
  renderer;
* ``python -m repro.farm submit <name>`` enqueues each one that has
  cells (``golden`` and ``chaos`` are sweeps with no renderer);
* ``python -m repro.farm serve`` renders each one that has both.

``micro`` measures sync primitives directly, so it has a renderer but
no cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import ablation, figures, micro, protocol_sweep, table1
from repro.bench.golden import golden_cells
from repro.bench.harness import Results
from repro.bench.pool import SweepCell
from repro.faults.gate import chaos_cells, default_plan


@dataclass(frozen=True)
class Experiment:
    """One named experiment: its cells, its renderer, or both."""

    cells: Optional[Callable[[], List[SweepCell]]]
    render: Optional[Callable[[Results], str]]


def _figure(
    which: str, fig: Callable[[Results], Tuple[figures.Matrix, str]]
) -> Experiment:
    return Experiment(lambda: figures.cells(which), lambda r: fig(r)[1])


EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        table1.cells, lambda r: table1.render_table1(table1.build_table1(r))
    ),
    "figure1": _figure("figure1", figures.figure1),
    "figure2": _figure("figure2", figures.figure2),
    "figure3": _figure("figure3", figures.figure3),
    "micro": Experiment(None, lambda r: micro.render(micro.run_all())),
    "ablation": Experiment(ablation.cells, ablation.render_all),
    "protocols": Experiment(
        protocol_sweep.cells,
        lambda r: protocol_sweep.render(protocol_sweep.sweep_rows(r)),
    ),
    "golden": Experiment(golden_cells, None),
    "chaos": Experiment(
        lambda: chaos_cells([default_plan(seed) for seed in range(3)]), None
    ),
}


def renderable() -> List[str]:
    """Experiments the bench CLI can print."""
    return sorted(n for n, e in EXPERIMENTS.items() if e.render is not None)


def sweepable() -> List[str]:
    """Experiments with cells (what ``farm submit`` enqueues)."""
    return sorted(n for n, e in EXPERIMENTS.items() if e.cells is not None)


def servable() -> List[str]:
    """Experiments the results service renders from stored cells."""
    return sorted(set(renderable()) & set(sweepable()))


def render(name: str, results: Results) -> str:
    """One experiment's text rendering from the results of its cells;
    ``KeyError`` if the renderer reads a cell that is not in them."""
    renderer = EXPERIMENTS[name].render
    if renderer is None:
        raise ValueError(f"experiment {name!r} has no renderer")
    return renderer(results)


def cells_of(name: str) -> List[SweepCell]:
    """The cells one experiment consumes (none for ``micro``)."""
    cells = EXPERIMENTS[name].cells
    return [] if cells is None else cells()
