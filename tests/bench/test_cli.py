"""CLI runner smoke tests (fast experiments only)."""

import pytest

from repro.bench.cli import main
from repro.bench.experiments import (
    EXPERIMENTS,
    cells_of,
    renderable,
    servable,
    sweepable,
)
from repro.bench.pool import dedupe_cells
from repro.farm import service, submit
from repro.farm.store import open_store


def test_commands_cover_all_experiments():
    assert set(renderable()) == {
        "table1", "figure1", "figure2", "figure3", "micro", "ablation",
        "protocols",
    }


def test_micro_via_cli(capsys, tmp_path):
    rc = main(["micro", "--out", str(tmp_path), "--no-cache"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "microbenchmarks" in out
    assert (tmp_path / "micro.txt").exists()


def test_bad_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["not-an-experiment"])


def test_bad_jobs_rejected():
    with pytest.raises(SystemExit):
        main(["micro", "--jobs", "0"])


def test_nothing_to_do_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_one_registry_feeds_cli_submit_and_service(tmp_path):
    """The bench CLI, ``farm submit`` and ``farm serve`` expose the
    registry's names and cells: the CLI every renderable experiment,
    submit every one with cells, the service every one with both."""
    paper = {"table1", "figure1", "figure2", "figure3", "ablation",
             "protocols"}
    assert set(servable()) == paper
    assert set(renderable()) == paper | {"micro"}
    assert set(submit.sweep_names()) == set(sweepable()) == paper | {
        "golden", "chaos"
    }
    assert cells_of("micro") == []  # micro has no sweep cells
    for name in sweepable():
        cells = cells_of(name)
        assert cells, name
        assert submit.sweep_cells([name]) == cells, name
        if name in paper:
            assert service.experiment_cells(name) == dedupe_cells(cells)
    # The service routes exactly the servable names (an empty store
    # answers 202 pending for those, 404 for the rest)...
    svc = service.FarmService(open_store(str(tmp_path / "store")))
    for name in EXPERIMENTS:
        status = svc.handle(f"/v1/experiments/{name}.csv").status
        assert status == (202 if name in paper else 404), name
    # ...and the CLI refuses sweeps that have no renderer.
    for name in ("golden", "chaos"):
        with pytest.raises(SystemExit):
            main([name])


def test_unknown_protocol_rejected():
    with pytest.raises(SystemExit):
        main(["--check", "--protocols", "mesi"])


class TestGoldenFlow:
    """--refresh-golden / --check wired through the CLI (one cheap app).

    Every invocation points ``--cache-dir`` at the session store, so the
    Jacobi cells are simulated once for the whole suite."""

    @pytest.fixture()
    def cache_dir(self, session_store):
        return str(session_store.backend.root)

    def test_refresh_then_check_roundtrip(self, tmp_path, capsys, cache_dir):
        gdir = tmp_path / "golden"
        args = ["--only", "Jacobi", "--golden-dir", str(gdir),
                "--cache-dir", cache_dir]
        assert main(["--refresh-golden"] + args) == 0
        assert (gdir / "Jacobi.json").exists()
        capsys.readouterr()
        assert main(["--check"] + args) == 0
        captured = capsys.readouterr()
        assert "golden check OK" in captured.out
        # The refresh stored every cell, so the check simulates nothing.
        assert "6 from store, 0 run" in captured.err

    def test_check_fails_on_drift(self, tmp_path, capsys, cache_dir):
        import json

        gdir = tmp_path / "golden"
        args = ["--only", "Jacobi", "--golden-dir", str(gdir),
                "--cache-dir", cache_dir]
        main(["--refresh-golden"] + args)
        path = gdir / "Jacobi.json"
        entry = json.loads(path.read_text())
        entry["1Kx1K"]["Dyn"]["sync_messages"] += 1
        path.write_text(json.dumps(entry))
        assert main(["--check"] + args) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "sync_messages" in out

    def test_check_missing_baselines_fails(self, tmp_path, capsys, cache_dir):
        rc = main(["--check", "--only", "Jacobi",
                   "--golden-dir", str(tmp_path / "nowhere"),
                   "--cache-dir", cache_dir])
        assert rc == 1
        assert "missing baseline" in capsys.readouterr().out

    def test_protocol_baselines_roundtrip(self, tmp_path, capsys, cache_dir):
        # --protocols widens the gate; non-default baselines land in a
        # <protocol>/ subdirectory and check tags cells with [erc].
        gdir = tmp_path / "golden"
        args = ["--only", "Jacobi", "--protocols", "erc",
                "--golden-dir", str(gdir),
                "--cache-dir", cache_dir]
        assert main(["--refresh-golden"] + args) == 0
        assert (gdir / "erc" / "Jacobi.json").exists()
        assert not (gdir / "Jacobi.json").exists()
        assert main(["--check"] + args) == 0
        assert "golden check OK" in capsys.readouterr().out
