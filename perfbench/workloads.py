"""Workload definitions and the per-cell correctness check.

A workload is a fixed list of sweep cells on the paper's golden-pinned
datasets.  Every timed cell is checked against the committed expected
results:

* a cell with a committed golden entry (top level for tm-lrc,
  ``<protocol>/`` otherwise) must match all ``GOLDEN_FIELDS`` exactly;
* a cell without one must produce a checksum bit-identical to the tm-lrc
  golden checksum of the same dataset and label (release consistency
  makes the final data protocol-invariant).

Run as a script, this module is the set-up probe: it performs the
benchmark's set-up for one workload (import numpy and ``repro``, load the
expected results) and prints ``ready``::

    python3 perfbench/workloads.py fault-heavy
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@dataclass(frozen=True)
class Cell:
    """One sweep cell: ``app/dataset@label[/protocol]``, optionally traced."""

    app: str
    dataset: str
    label: str
    protocol: str = "tm-lrc"
    trace: bool = False

    @property
    def name(self) -> str:
        proto = "" if self.protocol == "tm-lrc" else f"/{self.protocol}"
        return f"{self.app}/{self.dataset}@{self.label}{proto}" + (
            "+trace" if self.trace else ""
        )

    def extra(self) -> Dict[str, Any]:
        """``run_case`` overrides; defaults stay out so cell seeds match
        the golden gate's."""
        extra: Dict[str, Any] = {}
        if self.protocol != "tm-lrc":
            extra["protocol"] = self.protocol
        if self.trace:
            extra["trace"] = True
        return extra


MGS = ("MGS", "1Kx1K")
BARNES = ("Barnes", "32K")
SHALLOW = ("Shallow", "512x512")

#: name -> cells.  The reasons each workload exists are in README.md and
#: BENCHMARK.json; in short: the fault path, app physics, the eager write
#: path (erc never faults), and the traced access path.
WORKLOADS: Dict[str, Tuple[Cell, ...]] = {
    "fault-heavy": tuple(Cell(*MGS, label) for label in ("4K", "8K", "16K", "Dyn")),
    "physics-heavy": tuple(Cell(*BARNES, label) for label in ("4K", "Dyn")),
    "eager-write": tuple(
        Cell(*SHALLOW, "4K", protocol) for protocol in ("erc", "hlrc", "swi")
    ) + (Cell(*MGS, "4K", "erc"),),
    "sim-trace": (
        Cell(*BARNES, "4K", trace=True),
        Cell(*BARNES, "4K"),
        Cell(*SHALLOW, "4K", trace=True),
        Cell(*SHALLOW, "4K"),
    ),
}


def add_src_path() -> None:
    """Make the checkout's ``src/`` importable; fail with a named error
    when the benchmark runs outside a full checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Expected:
    """What one cell must produce: a full golden snapshot, or only the
    tm-lrc checksum of the same dataset and label."""

    snapshot: Optional[Dict[str, Any]]
    checksum: Optional[float]


def load_expected(cells: Tuple[Cell, ...]) -> Dict[Cell, Expected]:
    """Load the committed expected results for ``cells``.  This is part
    of set-up; a missing baseline is an error, not a skipped check."""
    from repro.bench.golden import GOLDEN_DIR, load_app_golden

    files: Dict[Tuple[str, str], Dict[str, Any]] = {}

    def entry(app: str, protocol: str, dataset: str, label: str) -> Optional[Dict[str, Any]]:
        key = (app, protocol)
        if key not in files:
            files[key] = load_app_golden(GOLDEN_DIR, app, protocol) or {}
        return files[key].get(dataset, {}).get(label)

    out: Dict[Cell, Expected] = {}
    for cell in cells:
        snap = entry(cell.app, cell.protocol, cell.dataset, cell.label)
        if snap is not None:
            out[cell] = Expected(snapshot=snap, checksum=None)
            continue
        base = entry(cell.app, "tm-lrc", cell.dataset, cell.label)
        if base is None:
            raise SystemExit(f"perfbench: no committed baseline for {cell.name}")
        out[cell] = Expected(snapshot=None, checksum=base["checksum"])
    return out


def check(cell: Cell, case: Any, expected: Expected) -> List[str]:
    """Mismatches of one cell's ``CaseResult`` against its expectation
    (empty when correct)."""
    from repro.bench.golden import compare_case

    if expected.snapshot is not None:
        return [m.render() for m in compare_case(cell.name, case, expected.snapshot)]
    if case.checksum != expected.checksum:
        return [
            f"  {cell.name}: checksum: expected {expected.checksum!r} "
            f"(tm-lrc golden), got {case.checksum!r}"
        ]
    return []


def prepare(workload: str) -> Dict[Cell, Expected]:
    """The benchmark's set-up: import numpy and every ``repro`` layer the
    cells run, then load the expected results."""
    add_src_path()
    import numpy  # noqa: F401
    import repro.apps  # noqa: F401
    import repro.bench.harness  # noqa: F401

    return load_expected(WORKLOADS[workload])


if __name__ == "__main__":
    prepare(sys.argv[1])
    print("ready", flush=True)
