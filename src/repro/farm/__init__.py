"""``repro.farm`` -- distributed sweep farm.

Three layers over the deterministic, identity-hashed sweep cells of
:mod:`repro.bench`:

* **store** (:mod:`repro.farm.store`): the content-addressed result
  store every consumer reads through, behind a backend interface -- a
  local directory (the bench CLI's ``--cache-dir`` layout), or a
  single-file SQLite database safe for many concurrent writers -- plus
  a claim/lease work queue;
* **workers** (:mod:`repro.farm.worker`): coordinator-free work-stealing
  processes that claim pending cells from the shared store, compute
  them bit-identically to any other executor, and publish the results;
* **service** (:mod:`repro.farm.service`): a read-only stdlib HTTP
  service rendering figures/tables from stored cells on demand, with
  content-addressed ETags and pending (never compute-in-request)
  semantics.

See DESIGN.md section 13 for why determinism makes the store the only
coordination the fleet needs.
"""

from repro.farm.store import (
    Claim,
    LocalDirBackend,
    ResultStore,
    SqliteBackend,
    StoreBackend,
    open_store,
)
from repro.farm.submit import sweep_cells, sweep_names
from repro.farm.worker import WorkerReport, work

__all__ = [
    "Claim",
    "LocalDirBackend",
    "ResultStore",
    "SqliteBackend",
    "StoreBackend",
    "WorkerReport",
    "open_store",
    "sweep_cells",
    "sweep_names",
    "work",
]
