"""Result keys and the directory store: keying, invalidation, round-trip
fidelity."""

import json

import pytest

from repro.bench.cache import (
    CACHE_SCHEMA,
    cell_key,
    cell_seed,
    code_version,
    entry_filename,
)
from repro.bench.harness import CaseResult, config_for, run_case
from repro.bench.pool import SweepCell, run_cells
from repro.farm.store import LocalDirBackend, ResultStore
from repro.sim.config import SimConfig

CELL = SweepCell.make("Jacobi", "1Kx1K", "4K")


@pytest.fixture
def case():
    return run_case("Jacobi", "1Kx1K", "4K")


def _entry_path(root):
    return root / entry_filename(CELL.app, CELL.dataset, CELL.label, CELL.key)


class TestKeys:
    def test_key_is_stable(self):
        cfg = SimConfig()
        assert cell_key("Jacobi", "1Kx1K", cfg) == cell_key("Jacobi", "1Kx1K", cfg)

    def test_key_varies_with_identity(self):
        cfg = SimConfig()
        base = cell_key("Jacobi", "1Kx1K", cfg)
        assert cell_key("MGS", "1Kx1K", cfg) != base
        assert cell_key("Jacobi", "2Kx2K", cfg) != base
        assert cell_key("Jacobi", "1Kx1K", cfg.replace(unit_pages=2)) != base

    def test_equivalent_config_spellings_share_a_key(self):
        # The key hashes the resolved config, not the spelling.
        assert cell_key("Jacobi", "1Kx1K", config_for("4K")) == cell_key(
            "Jacobi", "1Kx1K", config_for("4K", unit_pages=1)
        )

    def test_code_version_tracks_source_content(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        v1 = code_version(tmp_path)
        assert v1 == code_version(tmp_path)
        (tmp_path / "a.py").write_text("x = 2\n")
        assert code_version(tmp_path) != v1
        (tmp_path / "b.py").write_text("")
        v3 = code_version(tmp_path)
        assert v3 != v1

    def test_seed_independent_of_code_version(self):
        # Seeds key results across commits; they must not churn with code.
        cfg = SimConfig()
        s = cell_seed("Jacobi", "1Kx1K", cfg)
        assert 0 <= s < 2**32
        assert s == cell_seed("Jacobi", "1Kx1K", cfg)
        assert s != cell_seed("Jacobi", "1Kx1K", cfg.replace(unit_pages=2))


class TestCacheDir:
    """The ``--cache-dir`` layout, read and written through the store."""

    def test_roundtrip_is_lossless(self, tmp_path, case):
        store = ResultStore(LocalDirBackend(tmp_path))
        store.put_result(CELL, case)
        assert store.get_result(CELL) == case  # field-for-field, floats exact
        assert store.hits == 1 and store.misses == 0

    def test_miss_on_absent_entry(self, tmp_path):
        store = ResultStore(LocalDirBackend(tmp_path))
        assert store.get_result(CELL) is None
        assert store.misses == 1

    def test_miss_on_corrupt_entry(self, tmp_path, case):
        store = ResultStore(LocalDirBackend(tmp_path))
        store.put_result(CELL, case)
        _entry_path(tmp_path).write_text("{ not json")
        assert store.get_result(CELL) is None

    def test_miss_on_schema_bump(self, tmp_path, case):
        store = ResultStore(LocalDirBackend(tmp_path))
        store.put_result(CELL, case)
        path = _entry_path(tmp_path)
        entry = json.loads(path.read_text())
        entry["schema"] = CACHE_SCHEMA + 1
        path.write_text(json.dumps(entry))
        assert store.get_result(CELL) is None

    def test_entry_names_are_readable(self, tmp_path, case):
        ResultStore(LocalDirBackend(tmp_path)).put_result(CELL, case)
        [path] = tmp_path.glob("*.json")
        assert path.name.startswith("Jacobi-1Kx1K-4K-")


class TestStoreLayer:
    def test_second_process_is_served_from_store(self, tmp_path):
        """A fresh store over the same directory (i.e. a new invocation)
        is served without re-running the simulation."""
        first = run_cells([CELL], store=ResultStore(LocalDirBackend(tmp_path)))
        assert first.ran == 1
        again = run_cells([CELL], store=ResultStore(LocalDirBackend(tmp_path)))
        assert again.ran == 0 and again.cached == 1
        assert again.results == first.results


class TestCaseResultJson:
    def test_signature_keys_survive_roundtrip(self, case):
        data = json.loads(json.dumps(case.to_json_dict()))
        back = CaseResult.from_json_dict(data)
        assert back == case
        assert all(isinstance(k, int) for k in back.signature)
