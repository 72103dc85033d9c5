"""``repro.cluster`` — sharded multi-process serving + the durable cache.

The scale-out tier over the single-process serving stack: PR 5's
deterministic content keys made compile artifacts shareable across
processes, and this package cashes that in twice —

* :class:`DiskCache` (:mod:`repro.cluster.diskcache`) — the on-disk
  :class:`~repro.runtime.ModuleCache` backend: content key → pickled
  artifact under a cache-root directory, atomic writes, version-stamped
  entries, corruption-tolerant reads (a bad entry is a miss + eviction,
  never a crash), mtime-LRU eviction under a byte budget.  Attached via
  ``CompileConfig(cache_dir=...)``, lookups tier memory → disk → compile,
  so a cold *process* with a warm cache directory skips the compile.
* :class:`WorkerPool` / :class:`Dispatcher`
  (:mod:`repro.cluster.dispatcher`) — N ``multiprocessing`` workers, each
  owning its own instance pool and batch runner warmed from the shared disk
  cache; round-robin requests, sticky sessions (``session_id`` hash →
  worker), requests shipped in per-worker chunks over one duplex
  connection per worker (one message per chunk), a bound on each worker's
  unanswered chunks with block-or-fail backpressure, per-request trap
  isolation, worker-death detection (EOF on the connection) with typed
  ``worker_died`` outcomes and respawn.
* :class:`ClusterService` (:mod:`repro.cluster.service`) — the
  :class:`~repro.api.Service`-mirroring surface ``repro.api.serve(...,
  workers=N)`` returns.

Quickstart::

    from repro import api

    with api.serve(sources, workers=4, cache_dir="/var/cache/repro") as svc:
        svc.call("m.tick", [3])
        svc.session([("m.init", []), ("m.tick", [1])], session_id="user-1")
"""

# Submodules load lazily (PEP 562): the facade reaches for DiskCache on
# every cache_dir-configured compile, and a disk-warm start should not pay
# for importing the multiprocessing dispatcher it may never use.
_EXPORTS = {
    "DISK_FORMAT": "diskcache",
    "DiskCache": "diskcache",
    "DiskEntry": "diskcache",
    "shared_disk_module_cache": "diskcache",
    "ClusterError": "dispatcher",
    "ClusterQueueFull": "dispatcher",
    "Dispatcher": "dispatcher",
    "WorkerPool": "dispatcher",
    "TRAP_KIND_WORKER_DIED": "dispatcher",
    "ClusterService": "service",
    "ClusterStats": "service",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "DISK_FORMAT",
    "DiskCache",
    "DiskEntry",
    "shared_disk_module_cache",
    "ClusterError",
    "ClusterQueueFull",
    "ClusterService",
    "ClusterStats",
    "Dispatcher",
    "WorkerPool",
    "TRAP_KIND_WORKER_DIED",
]
