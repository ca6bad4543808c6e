"""Read-only results service: routing, pending semantics, ETags.

Figure 1 is narrowed to the four precomputed Jacobi cells
(``FIGURE1_CASES`` monkeypatched) so the suite renders real bench
output from a store without running the paper's full coarse-grained
sweep; the protocol sweep's store is filled with those Jacobi results
under every one of its cell keys (renderers only read by key).  One
test binds a real socket to exercise the HTTP layer (``If-None-Match``
revalidation); everything else drives :class:`FarmService` directly.
"""

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.bench import figures, harness, pool
from repro.bench.experiments import EXPERIMENTS, Experiment
from repro.bench.golden import GOLDEN_FIELDS
from repro.bench.harness import lookup
from repro.farm.service import FarmService, experiment_cells, make_server
from repro.farm.store import open_store

JACOBI_ONLY = [("Jacobi", "1Kx1K")]


@pytest.fixture()
def jacobi_figure1(monkeypatch):
    monkeypatch.setattr(figures, "FIGURE1_CASES", JACOBI_ONLY)


@pytest.fixture()
def empty_store(tmp_path):
    store = open_store(str(tmp_path / "store"))
    yield store
    store.close()


@pytest.fixture()
def full_store(empty_store, jacobi_cells, jacobi_results):
    for label, cell in jacobi_cells.items():
        empty_store.put_result(cell, jacobi_results[label])
    return empty_store


def _json_body(response):
    return json.loads(response.body.decode())


class TestRouting:
    def test_index_lists_endpoints(self, empty_store):
        response = FarmService(empty_store).handle("/")
        assert response.status == 200
        body = _json_body(response)
        assert "/v1/status.json" in body["endpoints"]

    def test_healthz(self, empty_store):
        response = FarmService(empty_store).handle("/healthz")
        assert response.status == 200
        assert response.body == b"ok\n"

    def test_status_counts_results(self, full_store, jacobi_cells):
        response = FarmService(full_store).handle("/v1/status.json")
        assert response.status == 200
        assert _json_body(response)["results"] == len(jacobi_cells)

    @pytest.mark.parametrize("path", [
        "/nope",
        "/v1/experiments/figure9.json",
        "/v1/experiments/figure1.pdf",
        "/v1/experiments/figure1",
    ])
    def test_unknown_resources_404(self, empty_store, path):
        assert FarmService(empty_store).handle(path).status == 404

    def test_query_string_is_ignored(self, empty_store):
        assert FarmService(empty_store).handle("/healthz?x=1").status == 200


class TestExperiments:
    def test_incomplete_experiment_is_pending_not_computed(
        self, empty_store, jacobi_figure1, jacobi_cells
    ):
        response = FarmService(empty_store).handle(
            "/v1/experiments/figure1.json"
        )
        assert response.status == 202
        body = _json_body(response)
        assert body["status"] == "pending"
        assert body["need"] == len(jacobi_cells)
        assert body["have"] == 0
        assert len(body["missing"]) == len(jacobi_cells)
        # Pending never triggers a simulation: the store stays empty.
        assert empty_store.backend.result_count() == 0

    def test_complete_experiment_json(
        self, full_store, jacobi_figure1, jacobi_cells, jacobi_results
    ):
        response = FarmService(full_store).handle(
            "/v1/experiments/figure1.json"
        )
        assert response.status == 200
        assert response.etag is not None
        body = _json_body(response)
        assert body["experiment"] == "figure1"
        assert len(body["cells"]) == len(jacobi_cells)
        by_label = {c["label"]: c for c in body["cells"]}
        for label, cell in jacobi_cells.items():
            served = by_label[label]
            assert served["key"] == cell.key
            want = jacobi_results[label].to_json_dict()
            assert served["result"] == want

    def test_etag_is_stable_across_requests(
        self, full_store, jacobi_figure1
    ):
        svc = FarmService(full_store)
        first = svc.handle("/v1/experiments/figure1.json")
        second = svc.handle("/v1/experiments/figure1.csv")
        assert first.etag == second.etag  # same cells, any format
        assert first.etag.startswith('"') and first.etag.endswith('"')

    def test_complete_experiment_csv(
        self, full_store, jacobi_figure1, jacobi_cells
    ):
        response = FarmService(full_store).handle(
            "/v1/experiments/figure1.csv"
        )
        assert response.status == 200
        assert response.content_type == "text/csv"
        lines = response.body.decode().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["app", "dataset", "label", "protocol", "key"]
        assert set(header[5:]) == set(GOLDEN_FIELDS)
        assert len(lines) == 1 + len(jacobi_cells)
        assert all(line.startswith("Jacobi,1Kx1K,") for line in lines[1:])

    def test_complete_experiment_txt_renders_bench_output(
        self, full_store, jacobi_figure1, jacobi_cells, jacobi_results
    ):
        response = FarmService(full_store).handle(
            "/v1/experiments/figure1.txt"
        )
        assert response.status == 200
        text = response.body.decode()
        assert "Figure 1" in text
        assert "Jacobi" in text
        # Byte-identical to the bench CLI's rendering of the same cells.
        results = {
            cell.key: jacobi_results[label]
            for label, cell in jacobi_cells.items()
        }
        assert text == EXPERIMENTS["figure1"].render(results) + "\n"

    def test_undeclared_cell_is_a_500_not_a_simulation(
        self, full_store, jacobi_figure1, monkeypatch
    ):
        """A renderer that reads a cell its experiment did not declare
        fails the request; nothing is simulated or stored."""
        monkeypatch.setattr(harness, "run_case", _no_simulation)
        monkeypatch.setattr(pool, "run_case", _no_simulation)
        monkeypatch.setitem(EXPERIMENTS, "figure1", Experiment(
            EXPERIMENTS["figure1"].cells,
            lambda r: lookup(r, "Jacobi", "1Kx1K", "Dyn",
                             max_group_pages=3).app,
        ))
        before = full_store.backend.result_count()
        response = FarmService(full_store).handle(
            "/v1/experiments/figure1.txt"
        )
        assert response.status == 500
        assert "Jacobi/1Kx1K@Dyn max_group_pages=3" in _json_body(
            response
        )["error"]
        assert full_store.backend.result_count() == before


class TestCells:
    def test_stored_cell_served_with_key_etag(
        self, full_store, jacobi_cells
    ):
        cell = jacobi_cells["4K"]
        response = FarmService(full_store).handle(
            f"/v1/cells/{cell.key}.json"
        )
        assert response.status == 200
        assert response.etag == f'"{cell.key}"'
        body = _json_body(response)
        assert body["key"] == cell.key
        assert body["app"] == "Jacobi"

    def test_queued_cell_is_pending(self, empty_store, jacobi_cells):
        cell = jacobi_cells["4K"]
        empty_store.submit([cell])
        response = FarmService(empty_store).handle(
            f"/v1/cells/{cell.key}.json"
        )
        assert response.status == 202
        assert _json_body(response)["state"] == "queued"

    def test_unknown_cell_404(self, empty_store):
        response = FarmService(empty_store).handle(
            "/v1/cells/ffffffffffffffffffffffff.json"
        )
        assert response.status == 404


class TestHTTP:
    @pytest.fixture()
    def server(self, full_store):
        srv = make_server(full_store, "127.0.0.1", 0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)

    def _get(self, server, path, headers=None):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}{path}", headers=headers or {}
        )
        try:
            with urllib.request.urlopen(request) as resp:
                return resp.status, dict(resp.headers), resp.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    def test_etag_revalidation_304(self, server, jacobi_figure1):
        path = "/v1/experiments/figure1.json"
        status, headers, body = self._get(server, path)
        assert status == 200
        etag = headers["ETag"]
        assert json.loads(body)["experiment"] == "figure1"
        status, headers, body = self._get(
            server, path, {"If-None-Match": etag}
        )
        assert status == 304
        assert headers["ETag"] == etag
        assert body == b""

    def test_head_has_no_body(self, server):
        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/healthz", method="HEAD"
        )
        with urllib.request.urlopen(request) as resp:
            assert resp.status == 200
            assert resp.read() == b""


def _no_simulation(*args, **kwargs):
    raise AssertionError("the service must never simulate in-request")


class TestConcurrentRender:
    @pytest.fixture()
    def served_store(self, full_store, jacobi_figure1, jacobi_results):
        for cell in experiment_cells("protocols"):
            full_store.put_result(cell, jacobi_results[cell.label])
        return full_store

    def test_parallel_renders_match_serial_without_simulating(
        self, served_store, monkeypatch
    ):
        """Renders share no state, so concurrent requests (more threads
        than cores, with a short switch interval) get byte-identical
        bodies and never simulate."""
        monkeypatch.setattr(harness, "run_case", _no_simulation)
        monkeypatch.setattr(pool, "run_case", _no_simulation)
        svc = FarmService(served_store)
        paths = ("/v1/experiments/figure1.txt",
                 "/v1/experiments/protocols.txt")
        serial = {path: svc.handle(path) for path in paths}
        assert all(r.status == 200 for r in serial.values())
        nthreads = 4
        start = threading.Barrier(nthreads)
        bodies = {path: [] for path in paths}
        errors = []

        def render(order):
            start.wait()
            try:
                for _ in range(3):
                    for path in order:
                        bodies[path].append(svc.handle(path))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=render, args=(paths[::(-1) ** i],))
            for i in range(nthreads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for path in paths:
            assert len(bodies[path]) == 3 * nthreads
            for response in bodies[path]:
                assert response.status == 200
                assert response.body == serial[path].body
                assert response.etag == serial[path].etag
