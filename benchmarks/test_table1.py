"""Regenerates Table 1 (sequential times and 8-processor speedups)."""

from benchmarks.conftest import experiment_results, save_text
from repro.bench.harness import write_csv
from repro.bench.table1 import build_table1, render_table1


def test_table1(benchmark, results_dir, store):
    rows = benchmark.pedantic(
        lambda: build_table1(experiment_results(store, "table1")),
        rounds=1,
        iterations=1,
    )
    save_text(results_dir, "table1.txt", render_table1(rows))
    write_csv(
        results_dir / "table1.csv",
        (
            dict(
                app=r.app,
                dataset=r.dataset,
                seq_seconds=f"{r.seq_seconds:.4f}",
                par_seconds=f"{r.par_seconds:.4f}",
                speedup=f"{r.speedup:.2f}",
                paper_speedup=r.paper_speedup or "",
            )
            for r in rows
        ),
    )
    # Shape assertions: all speedups positive; the paper-reported rows
    # land in a sane band (the paper's range is 4.07-6.51).
    assert all(r.speedup > 1.0 for r in rows if r.app not in ("TSP",))
    reported = [r for r in rows if r.paper_speedup]
    assert reported
    for r in reported:
        assert 2.5 <= r.speedup <= 8.0, (r.app, r.dataset, r.speedup)
