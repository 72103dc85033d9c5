"""The worker-process side of the cluster: one service per process.

:func:`worker_main` is the ``multiprocessing`` target.  Each worker builds
its *own* single-process :class:`repro.api.Service` — its own
:class:`~repro.runtime.InstancePool` and :class:`~repro.runtime.BatchRunner`
— from the linked program the dispatcher ships, warmed through a
:class:`~repro.cluster.DiskCache`-backed :class:`~repro.runtime.ModuleCache`
when the config carries a ``cache_dir`` (the parent compiled first, so the
worker's compile is a disk hit, not a recompile).

The wire protocol is deliberately plain: JSON-able dicts over one duplex
``multiprocessing`` connection per worker (the pipeable-JSONL idiom —
every field is a primitive, so the protocol survives ``spawn``, ``fork``
and any pickle protocol).  The worker reads a message, serves it and
writes its reply on the same connection, one message at a time, so replies
come back in the order their requests went out.  Requests travel in
chunks, so the parent pays one write and one read per chunk, not per
request.  Parent → worker ops:

* ``{"op": "batch", "items": [...]}`` — a chunk of requests, served in
  order.  Each item is a request
  ``{"id", "export", "args", "max_steps", "trace_id"}`` or a session
  ``{"id", "calls", "max_steps", "trace_id", "session_id"}``; a single
  submit is a one-item chunk
* ``{"op": "stats", "id"}`` — reply with pool/cache stats + a metrics
  snapshot (the dispatcher merges these via
  :func:`repro.obs.merge_snapshots`)
* ``{"op": "crash"}`` — deterministic fault injection for the
  worker-death tests: hard-exit without cleanup (``os._exit``)
* ``{"op": "shutdown"}`` — exit cleanly; so does EOF on the connection
  (the parent closed its end or died), and ``EPIPE`` on a reply

Worker → parent records (the connection tells the parent which worker
wrote them); a ``stats`` reply echoes its request's ``id``, and each
``results`` item carries its request's:

* ``{"op": "ready", "pid"}`` — service built, pool warm; the first record
* ``{"op": "results", "items": [...]}`` — one reply per ``batch``, one
  item per request in chunk order: ``{"id", "outcome": {...}}`` carries a
  :class:`~repro.runtime.RequestOutcome`, flattened (``ok``, ``values``,
  ``trap``, ``trap_kind``, ``steps``, ``trace_id``) so trap isolation and
  span identity cross the process boundary intact; ``{"id", "message"}``
  reports a malformed request (unknown export, bad args), which fails that
  item alone — never a trap, since traps are outcomes with ``ok=False``
* ``{"op": "stats", "id", "stats": {...}}``
* ``{"op": "error", "id", "message"}`` — startup failed (``id`` is
  ``None``, and the worker exits), or an unknown op arrived
"""

from __future__ import annotations

import gc
import os
import traceback
from typing import Optional

__all__ = ["worker_main", "outcome_to_wire", "wire_to_outcome"]


def outcome_to_wire(outcome) -> dict:
    """Flatten a :class:`~repro.runtime.RequestOutcome` to primitives."""

    return {
        "ok": outcome.ok,
        "values": outcome.values,
        "trap": outcome.trap,
        "trap_kind": outcome.trap_kind,
        "steps": outcome.steps,
        "trace_id": outcome.trace_id,
    }


def wire_to_outcome(record: dict, request):
    """Rebuild a :class:`~repro.runtime.RequestOutcome` against the
    dispatcher-side request object (the worker never ships the request
    back — the parent already holds it)."""

    from ..runtime.batch import RequestOutcome

    return RequestOutcome(
        request=request,
        ok=record["ok"],
        values=record["values"],
        trap=record["trap"],
        steps=record["steps"],
        trap_kind=record["trap_kind"],
        trace_id=record["trace_id"],
    )


def _reset_forked_telemetry() -> None:
    """Zero fork-inherited counters so this worker reports only its own.

    Under the ``fork`` start method the child inherits the parent's metric
    values and cache stats; left alone, every worker would re-report the
    parent's compile events and :func:`repro.obs.merge_snapshots` would
    multiply them by N.  The inherited cache *artifacts* are kept — a forked
    worker warm-starting from inherited memory is the cheapest warm start
    there is — only the counters reset.  Under ``spawn`` this is a no-op.
    """

    from .. import runtime
    from ..obs.metrics import default_registry
    from ..obs.trace import NOOP_TRACER, set_tracer
    from . import diskcache

    # A fork-inherited tracer would write into the parent's (duplicated)
    # sink file descriptor; workers trace only when given their own file.
    set_tracer(NOOP_TRACER)
    default_registry().reset()
    caches = list(diskcache._SHARED_CACHES.values())
    if runtime._DEFAULT_CACHE is not None:
        caches.append(runtime._DEFAULT_CACHE)
    for cache in caches:
        for stats in cache.stats.values():
            stats.reset()


def _build_service(payload: dict):
    """Compile (disk-warm) and pool the shipped program in this process."""

    from .. import api

    config = payload["config"]
    service = api.serve(payload["richwasm"], config)
    service.warm(min(2, config.pool_size))
    return service


def _run_item(service, item: dict) -> dict:
    """Serve one chunk item; its reply item (an outcome or an error)."""

    from ..runtime.batch import Request, Session

    try:
        if "calls" in item:
            request = Session(
                calls=tuple((export, tuple(args)) for export, args in item["calls"]),
                max_steps=item.get("max_steps"),
                trace_id=item.get("trace_id"),
                session_id=item.get("session_id"),
            )
        else:
            request = Request(
                export=item["export"],
                args=tuple(item["args"]),
                max_steps=item.get("max_steps"),
                trace_id=item.get("trace_id"),
            )
        outcome = service.run_one(request)
    except Exception:
        # Traps never reach here (run_one isolates them into the outcome);
        # this is a protocol-level error — unknown export, malformed args —
        # reported for this item while the rest of its chunk is served.
        return {"id": item.get("id"), "message": traceback.format_exc()}
    return {"id": item.get("id"), "outcome": outcome_to_wire(outcome)}


def _stats_record(service) -> dict:
    from dataclasses import asdict

    from ..obs.metrics import default_registry

    stats = service.stats()
    cache = {}
    if stats.cache:
        cache = {
            stage: {"hits": s.hits, "misses": s.misses, "evictions": s.evictions}
            for stage, s in stats.cache.items()
        }
    return {
        "pid": os.getpid(),
        "pool": asdict(stats.pool),
        "cache": cache,
        "metrics": default_registry().snapshot(),
    }


def worker_main(conn, payload: dict) -> None:
    """Process target: build the service, then serve the connection.

    ``conn`` is the worker's end of its slot's duplex connection.
    ``payload`` carries the linked RichWasm module and the (workers=1)
    :class:`~repro.api.CompileConfig`; optionally ``obs_jsonl``, a path this
    worker exports its spans/metrics to (one file per worker — the report
    CLI merges them).
    """

    # A forked worker inherits the parent's whole heap.  Frozen, it is out of
    # the collector's reach: the worker's first full collection would
    # otherwise walk every inherited object (and dirty their copy-on-write
    # pages) for nothing, since the worker never frees them.  Objects a
    # caller froze before forking stay frozen too: nothing here unfreezes.
    gc.freeze()
    sink = None
    try:
        _reset_forked_telemetry()
        if payload.get("obs_jsonl"):
            from ..obs import JsonlSink, Tracer, set_tracer

            sink = JsonlSink(payload["obs_jsonl"])
            set_tracer(Tracer(sink=sink))
        service = _build_service(payload)
    except BaseException:
        conn.send({
            "op": "error", "id": None,
            "message": f"worker startup failed:\n{traceback.format_exc()}",
        })
        return
    conn.send({"op": "ready", "pid": os.getpid()})
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, ConnectionError):
                return  # the parent closed its end, or died
            op = message.get("op")
            if op == "shutdown":
                return
            if op == "crash":
                # Fault injection: die the way a SIGKILLed / OOMed worker
                # does — no cleanup, no reply, connection left mid-stream.
                os._exit(1)
            if op == "batch":
                reply = {
                    "op": "results",
                    "items": [_run_item(service, item) for item in message.get("items", ())],
                }
            elif op == "stats":
                reply = {"op": "stats", "id": message.get("id"), "stats": _stats_record(service)}
            else:
                reply = {"op": "error", "id": message.get("id"), "message": f"unknown op {op!r}"}
            try:
                conn.send(reply)
            except ConnectionError:
                return  # the parent closed its end mid-reply
    finally:
        if sink is not None:
            from ..obs import NOOP_TRACER, default_registry, set_tracer

            try:
                sink.emit_metrics(default_registry())
            except Exception:
                pass
            set_tracer(NOOP_TRACER)
            sink.close()
