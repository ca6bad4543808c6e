"""The perf smoke gate names the record it actually gated."""

from repro.bench import perf_smoke


def test_over_budget_failure_names_the_gated_record(monkeypatch, capsys):
    timed = []

    def slow(app, dataset, label, repeats):
        timed.append((app, dataset, label))
        return 1e6  # far past any recorded budget

    monkeypatch.setattr(perf_smoke, "time_cell", slow)
    bench = perf_smoke.REPO_ROOT / "BENCH_vec.json"
    assert perf_smoke.main(["--bench", str(bench), "--repeats", "1"]) == 1
    err = capsys.readouterr().err
    assert "vs BENCH_vec.json" in err
    assert "BENCH_bulk.json" not in err
    assert timed == [("Barnes", "32K", "4K")]
