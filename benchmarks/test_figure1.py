"""Regenerates Figure 1 (Barnes, Ilink, TSP, Water unit-size sweeps)."""

from benchmarks.conftest import experiment_results, save_text
from repro.bench.figures import expected_shape_figure1, figure1
from repro.bench.harness import write_csv


def test_figure1(benchmark, results_dir, store):
    matrix, text = benchmark.pedantic(
        lambda: figure1(experiment_results(store, "figure1")),
        rounds=1,
        iterations=1,
    )
    save_text(results_dir, "figure1.txt", text)
    write_csv(
        results_dir / "figure1.csv",
        (
            dict(
                app=app,
                dataset=ds,
                unit=label,
                time_us=f"{c.time_us:.1f}",
                messages=c.total_messages,
                useless_messages=c.useless_messages,
                bytes=c.total_bytes,
                useless_bytes=c.useless_bytes,
                piggybacked_useless_bytes=c.piggybacked_useless_bytes,
            )
            for (app, ds), cells in matrix.items()
            for label, c in cells.items()
        ),
    )
    violations = expected_shape_figure1(matrix)
    assert not violations, violations
