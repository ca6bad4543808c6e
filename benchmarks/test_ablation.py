"""Ablations of the design choices DESIGN.md calls out."""

from benchmarks.conftest import experiment_results, save_text
from repro.bench.ablation import (
    ablate_parallel_fetch,
    ablate_request_combining,
    render,
    sweep_group_size,
)


def _ablations(store):
    return experiment_results(store, "ablation")


def test_group_size_sweep(benchmark, results_dir, store):
    def run():
        results = _ablations(store)
        return sweep_group_size(results, "ILINK", "CLP") + sweep_group_size(
            results, "MGS", "1Kx1K"
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_text(results_dir, "ablation_group_size.txt", render(rows))
    ilink = [r for r in rows if "ILINK" in r.name]
    mgs = [r for r in rows if "MGS" in r.name]
    # Grouping must help Ilink (fewer messages with bigger groups)...
    assert ilink[-1].total_messages < ilink[0].total_messages
    # ...and must never hurt MGS by more than a few percent relative to
    # no grouping (the paper's "at worst a few percent below").
    base = mgs[0].time_us
    assert all(r.time_us <= base * 1.05 for r in mgs)


def test_request_combining(benchmark, results_dir, store):
    rows = benchmark.pedantic(
        lambda: ablate_request_combining(_ablations(store), "ILINK", "CLP"),
        rounds=1,
        iterations=1,
    )
    save_text(results_dir, "ablation_combining.txt", render(rows))
    combined, uncombined = rows
    assert combined.total_messages <= uncombined.total_messages
    assert combined.time_us <= uncombined.time_us * 1.01


def test_parallel_fetch(benchmark, results_dir, store):
    rows = benchmark.pedantic(
        lambda: ablate_parallel_fetch(_ablations(store), "ILINK", "CLP"),
        rounds=1,
        iterations=1,
    )
    save_text(results_dir, "ablation_parallel_fetch.txt", render(rows))
    parallel, serial = rows
    # Same message count, strictly more stall when serialized.
    assert parallel.total_messages == serial.total_messages
    assert parallel.time_us < serial.time_us
