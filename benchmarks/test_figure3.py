"""Regenerates Figure 3 (false-sharing signatures at 4 KB vs 16 KB)."""

from benchmarks.conftest import experiment_results, save_text
from repro.bench.figures import expected_shape_figure3, figure3
from repro.bench.harness import write_csv


def test_figure3(benchmark, results_dir, store):
    matrix, text = benchmark.pedantic(
        lambda: figure3(experiment_results(store, "figure3")),
        rounds=1,
        iterations=1,
    )
    save_text(results_dir, "figure3.txt", text)
    write_csv(
        results_dir / "figure3.csv",
        (
            dict(
                app=app,
                dataset=ds,
                unit=label,
                writers=writers,
                useful_fraction=f"{u:.4f}",
                useless_fraction=f"{ul:.4f}",
            )
            for (app, ds), cells in matrix.items()
            for label in ("4K", "16K")
            for writers, (u, ul) in sorted(cells[label].signature.items())
        ),
    )
    violations = expected_shape_figure3(matrix)
    assert not violations, violations
