"""Golden-baseline regression gate.

``python -m repro.bench --check`` re-runs a fixed matrix -- every
application on its smallest paper dataset at each consistency unit
(4K/8K/16K/Dyn), plus the Section-5.1 microbenchmarks -- and compares
the communication counters against baselines committed under
``benchmarks/golden/``.  The simulator is deterministic, so comparison
is **exact**: any drift in messages, bytes, useless data, faults,
simulated time, or checksums means a behavior change that either is a
bug or must be acknowledged by regenerating the baselines
(``--refresh-golden``) and reviewing the diff in the commit.

File layout: one ``<app>.json`` per application holding
``{dataset: {label: {counter: value}}}``, plus ``micro.json``.  Baselines
for non-default consistency protocols (``--protocols``) use the same
layout under a ``<protocol>/`` subdirectory; the default protocol's
files stay at the top level, byte-identical to the pre-zoo layout.

An unfiltered bulk-mode check also re-renders the committed
``repro_results/figure1.txt`` and ``figure3.txt`` from the cells it
already holds (every cell they read is in the gate's matrix) and fails
on any byte difference, so the committed output cannot drift from the
code.
"""

from __future__ import annotations

import difflib
import json
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.bench import figures, micro
from repro.bench.harness import CaseResult, lookup
from repro.bench.pool import SweepCell, run_cells
from repro.sim.config import DEFAULT_PROTOCOL

if TYPE_CHECKING:  # pragma: no cover - the store imports the bench pool
    from repro.farm.store import ResultStore

#: Counters compared exactly against the baselines, in report order.
#: The fault-lab counters are all zero on the gate's reliable network;
#: keeping them in the baselines means any leak of fault machinery into
#: fault-free runs trips the exact-match gate.
GOLDEN_FIELDS = (
    "time_us",
    "useful_messages",
    "useless_messages",
    "sync_messages",
    "useful_bytes",
    "useless_bytes",
    "piggybacked_useless_bytes",
    "sync_bytes",
    "faults",
    "monitoring_faults",
    "checksum",
    "fault_messages",
    "fault_bytes",
    "retransmissions",
    "duplicate_deliveries",
    "timeout_stalls",
)

#: Every application's smallest paper dataset (the gate's fixed matrix).
SMALL_DATASETS = {
    "3D-FFT": "64x64x32",
    "Barnes": "16K",
    "ILINK": "CLP",
    "Jacobi": "1Kx1K",
    "MGS": "1Kx1K",
    "Shallow": "1Kx0.5K",
    "TSP": "19-city",
    "Water": "512",
}

GOLDEN_LABELS = ("4K", "8K", "16K", "Dyn")

#: Paper full-size datasets (unscaled problem sizes), only reachable at
#: simulator speed through the bulk-access fast path and the vectorized
#: protocol kernels.  The **default tier** of the bulk ``--check`` gate
#: (opt out with ``--small-only``; scalar-mode checks stay small-only
#: unless ``--full`` is forced): they ride in the same per-app baseline
#: files under their own dataset key, default protocol only, at a
#: reduced label set.
FULL_DATASETS = {"Barnes": "32K", "Jacobi": "512x512", "Shallow": "512x512"}

FULL_LABELS = ("4K", "Dyn")

#: Protocols with committed baselines.  The default protocol's files
#: live at the top of the golden directory exactly as before the
#: protocol zoo existed (byte-identical paths and content); each other
#: protocol gets a ``<protocol>/`` subdirectory with the same layout.
GOLDEN_PROTOCOLS = (DEFAULT_PROTOCOL, "erc", "hlrc", "swi")

#: Default baseline directory (checked into the repository).
GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "golden"

#: Committed renderings directory (``repro_results/`` at the repo root).
ARTIFACT_DIR = GOLDEN_DIR.parents[1] / "repro_results"

#: Committed renderings an unfiltered bulk check re-renders from its own
#: cells: name -> figure function.
GATED_ARTIFACTS = {"figure1": figures.figure1, "figure3": figures.figure3}


def _protocol_extra(protocol: str) -> Dict[str, Any]:
    """The config override for one protocol -- empty for the default, so
    default-protocol cells keep their pre-zoo cache keys and seeds."""
    return {} if protocol == DEFAULT_PROTOCOL else {"protocol": protocol}


def _cell_extra(protocol: str, access_mode: str = "bulk") -> Dict[str, Any]:
    """Config overrides for one gate cell.  Like the protocol override,
    the default access mode stays out of the dict so default cells keep
    their existing cache keys and per-cell seeds.  Scalar cells resolve
    to distinct cache keys (no aliasing with the bulk results they are
    compared against); the belt-and-braces global-RNG seed differs too,
    which is immaterial because every application constructs its own
    fixed-seed generators."""
    extra = _protocol_extra(protocol)
    if access_mode != "bulk":
        extra["access_mode"] = access_mode
    return extra


def golden_cells(
    apps: Optional[Sequence[str]] = None,
    protocols: Sequence[str] = (DEFAULT_PROTOCOL,),
    access_mode: str = "bulk",
    full: bool = False,
) -> List[SweepCell]:
    """The gate's sweep cells, optionally restricted to some apps,
    widened to extra protocols, and/or widened to the paper full-size
    datasets (``full``)."""
    names = sorted(SMALL_DATASETS) if apps is None else list(apps)
    for name in names:
        if name not in SMALL_DATASETS:
            raise KeyError(
                f"unknown application {name!r}; have {sorted(SMALL_DATASETS)}"
            )
    cells = [
        SweepCell.make(app, SMALL_DATASETS[app], label,
                       **_cell_extra(p, access_mode))
        for p in protocols
        for app in names
        for label in GOLDEN_LABELS
    ]
    if full:
        cells.extend(
            SweepCell.make(app, FULL_DATASETS[app], label,
                           **_cell_extra(DEFAULT_PROTOCOL, access_mode))
            for app in names
            if app in FULL_DATASETS
            for label in FULL_LABELS
        )
    return cells


def case_snapshot(case: CaseResult) -> Dict[str, object]:
    """The exact-matched counter subset of one cell's result."""
    return {f: getattr(case, f) for f in GOLDEN_FIELDS}


@dataclass(frozen=True)
class Mismatch:
    """One counter that diverged from its baseline."""

    where: str   # "App/dataset@label" or "micro"
    field: str
    expected: object
    actual: object

    def render(self) -> str:
        delta = ""
        if isinstance(self.expected, (int, float)) and isinstance(
            self.actual, (int, float)
        ):
            d = self.actual - self.expected
            delta = f"  ({'+' if d >= 0 else ''}{d:g}, {_pct(d, self.expected)})"
        return (
            f"  {self.where}: {self.field}: expected {self.expected!r}, "
            f"got {self.actual!r}{delta}"
        )


def _pct(delta: float, base: float) -> str:
    if not base:
        return "n/a"
    return f"{100.0 * delta / base:+.2f}%"


def compare_case(
    where: str, case: CaseResult, golden: Dict[str, Any]
) -> List[Mismatch]:
    """Exact comparison of one cell against its baseline entry."""
    out: List[Mismatch] = []
    for f in GOLDEN_FIELDS:
        expected = golden.get(f)
        actual = getattr(case, f)
        if expected != actual:
            out.append(Mismatch(where, f, expected, actual))
    return out


# ----------------------------------------------------------------------
# Baseline files
# ----------------------------------------------------------------------
def _app_path(
    golden_dir: pathlib.Path, app: str, protocol: str = DEFAULT_PROTOCOL
) -> pathlib.Path:
    name = f"{app.replace('/', '_')}.json"
    if protocol == DEFAULT_PROTOCOL:
        return golden_dir / name
    return golden_dir / protocol / name


def load_app_golden(
    golden_dir: pathlib.Path, app: str, protocol: str = DEFAULT_PROTOCOL
) -> Optional[Dict[str, Any]]:
    path = _app_path(golden_dir, app, protocol)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def write_golden(
    golden_dir: pathlib.Path,
    apps: Optional[Sequence[str]] = None,
    jobs: int = 1,
    with_micro: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    protocols: Sequence[str] = (DEFAULT_PROTOCOL,),
    full: bool = False,
    store: Optional[ResultStore] = None,
) -> List[pathlib.Path]:
    """(Re)generate baseline files from the current code; returns the
    paths written.

    Baseline files are merged per dataset: a refresh that does not run
    the full-size cells (``full=False``) rewrites the small-dataset
    entries and leaves a previously committed full-size entry in place
    (and vice versa), so the two matrices can be refreshed
    independently.
    """
    cells = golden_cells(apps, protocols, full=full)
    results = run_cells(cells, jobs, store, progress).results
    golden_dir = pathlib.Path(golden_dir)
    written: List[pathlib.Path] = []
    names = sorted(SMALL_DATASETS) if apps is None else list(apps)
    for protocol in protocols:
        extra = _protocol_extra(protocol)
        for app in names:
            ds = SMALL_DATASETS[app]
            entry = load_app_golden(golden_dir, app, protocol) or {}
            entry[ds] = {
                label: case_snapshot(lookup(results, app, ds, label, **extra))
                for label in GOLDEN_LABELS
            }
            if full and protocol == DEFAULT_PROTOCOL and app in FULL_DATASETS:
                fds = FULL_DATASETS[app]
                entry[fds] = {
                    label: case_snapshot(lookup(results, app, fds, label))
                    for label in FULL_LABELS
                }
            path = _app_path(golden_dir, app, protocol)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
            written.append(path)
    if with_micro and apps is None and DEFAULT_PROTOCOL in protocols:
        golden_dir.mkdir(parents=True, exist_ok=True)
        path = golden_dir / "micro.json"
        path.write_text(
            json.dumps(micro.snapshot(micro.run_all()), indent=1, sort_keys=True)
            + "\n"
        )
        written.append(path)
    return written


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------
@dataclass
class CheckReport:
    """Outcome of one ``--check`` invocation."""

    cells_checked: int = 0
    mismatches: List[Mismatch] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    artifacts_checked: int = 0
    stale: List[str] = field(default_factory=list)
    """One rendered diff per committed rendering that drifted."""
    sweep_summary: str = ""

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.missing and not self.stale

    def render(self) -> str:
        fresh = (
            f"; {self.artifacts_checked} committed renderings are fresh"
            if self.artifacts_checked else ""
        )
        if self.ok:
            return (
                f"golden check OK: {self.cells_checked} cells match the "
                f"baselines exactly{fresh}"
            )
        stale = f", {len(self.stale)} stale artifact(s)" if self.stale else ""
        lines = [
            f"golden check FAILED: {len(self.mismatches)} counter mismatch(es), "
            f"{len(self.missing)} missing baseline(s){stale} "
            f"over {self.cells_checked} cells"
        ]
        for m in self.missing:
            lines.append(f"  {m}: no committed baseline "
                         f"(run --refresh-golden and commit the result)")
        lines.extend(self.stale)
        lines.extend(m.render() for m in self.mismatches)
        if self.mismatches:
            lines.append(
                "  (exact-match semantics: if the change is intended, "
                "regenerate with --refresh-golden and review the diff)"
            )
        return "\n".join(lines)


def check(
    golden_dir: pathlib.Path = GOLDEN_DIR,
    apps: Optional[Sequence[str]] = None,
    jobs: int = 1,
    with_micro: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    protocols: Sequence[str] = (DEFAULT_PROTOCOL,),
    access_mode: str = "bulk",
    full: bool = False,
    store: Optional[ResultStore] = None,
) -> CheckReport:
    """Run the gate matrix and compare every cell against the baselines.

    ``access_mode="scalar"`` re-runs the matrix with every bulk region
    access decomposed into word accesses and exact-matches it against
    the *same* committed baselines (which are generated under the bulk
    fast path) -- the scalar-vs-bulk equivalence gate.  The micro
    baselines measure sync primitives directly and are skipped there.
    ``full`` widens the matrix with the paper full-size datasets.  An
    unfiltered bulk check of the default protocol also re-renders
    :data:`GATED_ARTIFACTS` against the files in :data:`ARTIFACT_DIR`.
    """
    report = CheckReport()
    golden_dir = pathlib.Path(golden_dir)
    cells = golden_cells(apps, protocols, access_mode, full=full)
    sweep = run_cells(cells, jobs, store, progress)
    report.sweep_summary = sweep.summary()
    results = sweep.results
    names = sorted(SMALL_DATASETS) if apps is None else list(apps)

    def compare_cell(
        app: str, ds: str, label: str, protocol: str,
        golden_entry: Optional[Dict[str, Any]],
    ) -> None:
        extra = _cell_extra(protocol, access_mode)
        tag = "" if protocol == DEFAULT_PROTOCOL else f" [{protocol}]"
        where = f"{app}/{ds}@{label}{tag}"
        case = lookup(results, app, ds, label, **extra)
        report.cells_checked += 1
        entry = (golden_entry or {}).get(ds, {}).get(label)
        if entry is None:
            report.missing.append(where)
            return
        report.mismatches.extend(compare_case(where, case, entry))

    for protocol in protocols:
        for app in names:
            golden = load_app_golden(golden_dir, app, protocol)
            for label in GOLDEN_LABELS:
                compare_cell(app, SMALL_DATASETS[app], label, protocol, golden)
            if full and protocol == DEFAULT_PROTOCOL and app in FULL_DATASETS:
                for label in FULL_LABELS:
                    compare_cell(
                        app, FULL_DATASETS[app], label, protocol, golden
                    )
    unfiltered_bulk = (
        apps is None and DEFAULT_PROTOCOL in protocols and access_mode == "bulk"
    )
    if unfiltered_bulk:
        for name, figure in GATED_ARTIFACTS.items():
            report.artifacts_checked += 1
            path = ARTIFACT_DIR / f"{name}.txt"
            committed = path.read_text() if path.is_file() else ""
            fresh = figure(results)[1] + "\n"
            if committed != fresh:
                diff = difflib.unified_diff(
                    committed.splitlines(), fresh.splitlines(),
                    f"{path} (committed)", "fresh render", n=0, lineterm="",
                )
                report.stale.append(
                    f"  {path}: stale; regenerate with `python -m "
                    f"repro.bench {name} --out {path.parent}`\n    "
                    + "\n    ".join(list(diff)[:12])
                )
    if with_micro and unfiltered_bulk:
        path = golden_dir / "micro.json"
        measured = micro.snapshot(micro.run_all())
        report.cells_checked += len(measured)
        if not path.is_file():
            report.missing.append("micro")
        else:
            golden_micro = json.loads(path.read_text())
            for name, value in measured.items():
                expected = golden_micro.get(name)
                if expected != value:
                    report.mismatches.append(
                        Mismatch("micro", name, expected, value)
                    )
    return report
