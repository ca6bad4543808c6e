"""Parallel execution of independent sweep cells.

Every paper experiment reduces to a set of independent (application,
dataset, configuration) cells, so the sweep is embarrassingly parallel:
``run_cells`` deduplicates the requested cells, reads what it can from a
:class:`repro.farm.store.ResultStore` (when given one), runs the misses
serially or over a ``multiprocessing`` pool, writes them back to the
store, and returns every result it read or computed -- the mapping the
experiment renderers are pure functions of.

Determinism: each cell seeds the process-global RNGs from a hash of its
own identity (see :func:`repro.bench.cache.cell_seed`, applied inside
``run_case``), and the applications use fixed-seed local generators, so
a cell's result is bit-identical whether it runs in the parent process,
a pool worker, or any order relative to other cells.  Workers ship
results back as JSON dicts (the same lossless encoding the store
uses), so ``--jobs N`` output is counter-for-counter identical to a
serial run -- asserted by ``tests/bench/test_pool.py`` and the CI
bench-smoke job.

Workers are spawned (not forked): the simulator parks processor
contexts on threads, and spawn keeps workers free of any inherited
thread state.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.cache import cell_key
from repro.bench.harness import CaseResult, config_for, run_case
from repro.faults.channel import DroppedMessageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (the store imports us)
    from repro.farm.store import ResultStore


@dataclass(frozen=True)
class SweepCell:
    """One (application, dataset, configuration) cell of a sweep.

    ``extra`` holds the keyword overrides beyond the unit label, as a
    sorted item tuple so cells are hashable and picklable.
    """

    app: str
    dataset: str
    label: str
    extra: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, app: str, dataset: str, label: str, **extra: Any) -> "SweepCell":
        return cls(app, dataset, label, tuple(sorted(extra.items())))

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.extra)

    @property
    def key(self) -> str:
        return cell_key(self.app, self.dataset, config_for(self.label, **self.kwargs))

    def __str__(self) -> str:
        extras = "".join(f" {k}={v}" for k, v in self.extra)
        return f"{self.app}/{self.dataset}@{self.label}{extras}"


def _run_cell_json(cell: SweepCell) -> Dict[str, Any]:
    """Pool worker: run one cell, return its lossless JSON encoding.

    A cell whose fault plan exhausts the retransmission budget (retries
    disabled, or a drop rate the retry cap cannot beat) fails alone: the
    worker ships an error marker instead of poisoning the whole sweep.
    """
    try:
        result = run_case(cell.app, cell.dataset, cell.label, **cell.kwargs)
    except DroppedMessageError as exc:
        return {"__failed__": str(exc)}
    return result.to_json_dict()


def dedupe_cells(cells: Sequence[SweepCell]) -> List[SweepCell]:
    """Drop cells whose resolved configuration duplicates an earlier one
    (first spelling wins), preserving order."""
    seen: Dict[str, SweepCell] = {}
    out: List[SweepCell] = []
    for cell in cells:
        if cell.key not in seen:
            seen[cell.key] = cell
            out.append(cell)
    return out


@dataclass
class SweepReport:
    """What ``run_cells`` did: the results, plus store economics."""

    requested: int = 0
    deduped: int = 0
    cached: int = 0
    ran: int = 0
    jobs: int = 1
    results: Dict[str, CaseResult] = field(default_factory=dict)
    """Cell key -> result for every cell read from the store or run."""
    failed: List[Tuple[str, str]] = field(default_factory=list)
    """``(cell, error)`` for cells that raised
    :class:`repro.faults.channel.DroppedMessageError`; their results are
    absent from ``results``, everything else completed normally."""

    def summary(self) -> str:
        tail = f", {len(self.failed)} failed" if self.failed else ""
        return (
            f"{self.requested} cells requested, {self.deduped} unique: "
            f"{self.cached} from store, {self.ran} run "
            f"({'serial' if self.jobs <= 1 else f'{self.jobs} jobs'}){tail}"
        )


def run_cells(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Read or compute every cell, running misses with up to ``jobs``
    worker processes; new results are written back to ``store``.
    Returns a :class:`SweepReport` whose ``results`` hold every cell.
    """
    report = SweepReport(requested=len(cells), jobs=max(1, jobs))
    unique = dedupe_cells(cells)
    report.deduped = len(unique)

    missing: List[SweepCell] = []
    for cell in unique:
        hit = store.get_result(cell) if store is not None else None
        if hit is None:
            missing.append(cell)
        else:
            report.results[cell.key] = hit
    report.cached = len(unique) - len(missing)
    report.ran = len(missing)

    def finish(cell: SweepCell, data: Dict[str, Any]) -> None:
        if "__failed__" in data:
            report.failed.append((str(cell), data["__failed__"]))
            if progress:
                progress(f"FAIL {cell}: {data['__failed__']}")
            return
        result = CaseResult.from_json_dict(data)
        report.results[cell.key] = result
        if store is not None:
            store.put_result(cell, result)
        if progress:
            progress(f"done {cell}")

    if report.jobs <= 1 or len(missing) <= 1:
        for cell in missing:
            if progress:
                progress(f"run  {cell}")
            finish(cell, _run_cell_json(cell))
        return report

    ctx = multiprocessing.get_context("spawn")
    nworkers = min(report.jobs, len(missing))
    if progress:
        progress(f"fan-out: {len(missing)} cells over {nworkers} workers")
    with ctx.Pool(processes=nworkers) as pool:
        for cell, data in zip(
            missing, pool.map(_run_cell_json, missing), strict=True
        ):
            finish(cell, data)
    return report
