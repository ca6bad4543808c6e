"""Table 1: applications, datasets, sequential times, 8-processor
speedups (4 KB consistency unit).

The paper's absolute seconds belong to 166 MHz Pentiums and the authors'
full-size inputs; our column reports *simulated* seconds on the modelled
platform with the scaled datasets, so the comparable quantity is the
speedup column (the paper's range is 4.07 - 6.51 over the rows it
reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.apps.base import AppRegistry
from repro.bench.harness import Results, lookup

if TYPE_CHECKING:  # pragma: no cover - only for the cells() annotation
    from repro.bench.pool import SweepCell

#: Paper Table 1 values where the OCR of the text is unambiguous:
#: (application, dataset) -> (sequential seconds, speedup).
PAPER_TABLE1 = {
    ("Barnes", "16K"): (69.8, 4.25),
    ("ILINK", "CLP"): (1127.9, 5.54),
    ("3D-FFT", "64x64x32"): (18.7, 4.07),
    ("3D-FFT", "64x64x64"): (38.2, 4.31),
    ("MGS", "1Kx1K"): (120.9, 5.64),
    ("MGS", "2Kx2K"): (1112.4, 6.51),
    ("MGS", "1Kx4K"): (560.3, 6.11),
    ("Shallow", "1Kx0.5K"): (179.1, 5.01),
}


@dataclass
class Table1Row:
    app: str
    dataset: str
    seq_seconds: float
    par_seconds: float
    speedup: float
    paper_speedup: float | None


def cells() -> List[SweepCell]:
    """The sweep cells Table 1 consumes."""
    from repro.bench.pool import SweepCell

    out: List[SweepCell] = []
    for name in AppRegistry.names():
        for ds in sorted(AppRegistry.get(name).datasets):
            out.append(SweepCell.make(name, ds, "seq"))
            out.append(SweepCell.make(name, ds, "4K"))
    return out


def build_table1(results: Results) -> List[Table1Row]:
    """Every (application, dataset), sequential and on 8 processors at
    the 4 KB unit."""
    rows: List[Table1Row] = []
    for name in AppRegistry.names():
        app_datasets = AppRegistry.get(name).datasets
        for ds in sorted(app_datasets):
            seq = lookup(results, name, ds, "seq")
            par = lookup(results, name, ds, "4K")
            paper = PAPER_TABLE1.get((name, ds))
            rows.append(
                Table1Row(
                    app=name,
                    dataset=ds,
                    seq_seconds=seq.time_us / 1e6,
                    par_seconds=par.time_us / 1e6,
                    speedup=seq.time_us / par.time_us,
                    paper_speedup=paper[1] if paper else None,
                )
            )
    return rows


def render_table1(rows: List[Table1Row]) -> str:
    lines = [
        "Table 1: datasets, simulated sequential times, and 8-processor "
        "speedups (4 KB unit)",
        f"{'Program':<9} {'Input':<13} {'Seq. time':>10} {'8-proc':>8} "
        f"{'Speedup':>8} {'Paper':>6}",
    ]
    for r in rows:
        paper = f"{r.paper_speedup:.2f}" if r.paper_speedup else "--"
        lines.append(
            f"{r.app:<9} {r.dataset:<13} {r.seq_seconds:>9.2f}s "
            f"{r.par_seconds:>7.3f}s {r.speedup:>8.2f} {paper:>6}"
        )
    return "\n".join(lines)
