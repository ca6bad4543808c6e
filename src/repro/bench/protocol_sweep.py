"""Protocol x unit-size sweep: where aggregation stops paying, per protocol.

The paper's Figure 1 sweeps the consistency-unit size (4K/8K/16K/Dyn)
under TreadMarks LRC and shows aggregation paying until false sharing
overtakes it.  This sweep re-runs that experiment under every protocol
in the zoo (:mod:`repro.protocols`), because the trade-off's *shape* is
protocol-specific:

* ``tm-lrc`` -- larger units amortize fault exchanges until write-write
  false sharing multiplies diff gathers (the paper's story);
* ``hlrc``   -- faults are one exchange regardless of writers, so
  aggregation keeps helping messages longer, but whole-unit fetches make
  useless *data* grow with the unit much faster;
* ``erc``    -- no faults to amortize: unit size is nearly irrelevant
  (diffs are word-granularity), so the rows are expected to be flat --
  aggregation neither pays nor hurts;
* ``swi``    -- every falsely-shared boundary ping-pongs whole-unit
  ownership, so larger units get strictly more expensive on the sharing
  apps: aggregation stops paying immediately.

``stops_paying`` marks the largest static unit that still strictly
improved execution time over the next smaller one -- "4K" means growing
the unit never helped at all.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bench.golden import (
    GOLDEN_LABELS,
    GOLDEN_PROTOCOLS,
    SMALL_DATASETS,
    _protocol_extra,
    golden_cells,
)
from repro.bench.harness import CaseResult, Results, lookup
from repro.bench.pool import SweepCell

#: Sweep order: the paper's protocol first, then the zoo.
PROTOCOL_ORDER = ("tm-lrc", "hlrc", "erc", "swi")

#: Static unit labels in growth order (Dyn is reported but not part of
#: the stops-paying scan, which is about static aggregation).
STATIC_LABELS = ("4K", "8K", "16K")


def cells() -> List[SweepCell]:
    """Every cell the sweep consumes (all apps x labels x protocols)."""
    assert set(PROTOCOL_ORDER) == set(GOLDEN_PROTOCOLS)
    return golden_cells(None, PROTOCOL_ORDER)


def _case(results: Results, app: str, label: str, protocol: str) -> CaseResult:
    return lookup(
        results, app, SMALL_DATASETS[app], label, **_protocol_extra(protocol)
    )


def stops_paying(times: Dict[str, float]) -> str:
    """The largest static unit whose step up still strictly improved the
    execution time (``times`` maps label -> time_us)."""
    best = STATIC_LABELS[0]
    for prev, cur in zip(STATIC_LABELS, STATIC_LABELS[1:], strict=False):
        if times[cur] < times[prev]:
            best = cur
        else:
            break
    return best


def sweep_rows(results: Results) -> List[Dict[str, Any]]:
    """Flat per-(app, protocol) rows (CSV-friendly)."""
    rows: List[Dict[str, Any]] = []
    for app in sorted(SMALL_DATASETS):
        base_tm = _case(results, app, "4K", "tm-lrc")
        for protocol in PROTOCOL_ORDER:
            cases = {
                lb: _case(results, app, lb, protocol) for lb in GOLDEN_LABELS
            }
            times = {lb: c.time_us for lb, c in cases.items()}
            row: Dict[str, Any] = {
                "app": app,
                "dataset": SMALL_DATASETS[app],
                "protocol": protocol,
                "stops_paying": stops_paying(times),
                "time_4K_vs_tmlrc": times["4K"] / base_tm.time_us,
            }
            for lb in GOLDEN_LABELS:
                c = cases[lb]
                row[f"time_{lb}_rel"] = times[lb] / times["4K"]
                row[f"messages_{lb}"] = c.total_messages
                row[f"useless_bytes_{lb}"] = c.useless_bytes
            rows.append(row)
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    """The protocol-zoo table: per app, one row per protocol with times
    normalized to that protocol's own 4K cell, the cross-protocol 4K
    ratio, and the unit size at which static aggregation stopped paying;
    then the stops-paying summary matrix."""
    lines = [
        "Protocol zoo: execution time vs consistency-unit size",
        "(each row normalized to its own 4K; x tm-lrc = absolute 4K time",
        " relative to tm-lrc's; 'stops' = largest static unit that still",
        " strictly improved time)",
    ]
    for app in sorted(SMALL_DATASETS):
        app_rows = [r for r in rows if r["app"] == app]
        lines.append(f"--- {app} {app_rows[0]['dataset']} ---")
        lines.append(
            f"  {'protocol':8} {'4K':>6} {'8K':>6} {'16K':>6} {'Dyn':>6} "
            f"{'x tm-lrc':>9} {'stops':>6}"
        )
        for r in app_rows:
            lines.append(
                f"  {r['protocol']:8} "
                + " ".join(f"{r[f'time_{lb}_rel']:6.2f}" for lb in GOLDEN_LABELS)
                + f" {r['time_4K_vs_tmlrc']:9.2f} {r['stops_paying']:>6}"
            )
    lines.append("")
    lines.append("Where static aggregation stops paying (per protocol):")
    lines.append(
        "  " + f"{'app':10}" + "".join(f"{p:>8}" for p in PROTOCOL_ORDER)
    )
    for app in sorted(SMALL_DATASETS):
        by_proto = {
            r["protocol"]: r["stops_paying"]
            for r in rows
            if r["app"] == app
        }
        lines.append(
            "  " + f"{app:10}"
            + "".join(f"{by_proto[p]:>8}" for p in PROTOCOL_ORDER)
        )
    return "\n".join(lines)
