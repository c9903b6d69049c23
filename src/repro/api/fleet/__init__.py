"""Multi-model serving fleet: pool + router.

The serving subsystem behind every scoring daemon:

* :class:`ModelPool` — many resident artifacts keyed by
  :class:`ModelKey` *(family, feature set, dataset tag)*, warm
  pre-loading, LRU eviction under a memory budget, lazy cold loads;
* :class:`ModelFleet` — the protocol router: ``"model"`` request
  field, ``list_models`` / ``load_model`` / ``evict_model`` /
  ``promote`` admin verbs, typed ``unknown_model`` error frames, and
  the ``max_batch`` bound on the event loop's request coalescing.

A daemon built from a bare classifier serves it as a one-model fleet
(see :class:`repro.api.transport.RequestEngine`).  Wiring a fleet
behind a socket::

    pool = ModelPool(memory_budget_bytes=64 << 20)
    fleet = ModelFleet(pool, max_batch=64, default=classifier)
    ScoringDaemon(fleet=fleet, socket_path="/tmp/repro.sock").start()
"""

from repro.api.fleet.pool import ModelKey, ModelPool, cache_loader
from repro.api.fleet.router import DEFAULT_MAX_BATCH, ModelFleet

__all__ = [
    "DEFAULT_MAX_BATCH",
    "ModelKey",
    "ModelPool",
    "ModelFleet",
    "cache_loader",
]
