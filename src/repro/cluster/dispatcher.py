"""The dispatcher: route requests across N worker processes.

:class:`Dispatcher` owns a :class:`WorkerPool` of ``multiprocessing``
workers (each running :func:`repro.cluster.worker.worker_main`) and routes
the same request objects :class:`~repro.runtime.BatchRunner` takes:

* stateless :class:`~repro.runtime.Request`\\ s go **round-robin** over the
  live workers;
* stateful :class:`~repro.runtime.Session`\\ s with a ``session_id`` route
  **sticky** — ``sha256(session_id) mod workers`` — so every script of the
  same session lands on the same worker process (and therefore observes the
  same pool; the hash is content-based, surviving respawns and restarts).

Requests cross the process boundary in **chunks**: one ``"batch"`` message
carries a list of requests for one worker, and the worker answers with one
``"results"`` record holding that chunk's outcomes.  :meth:`Dispatcher.submit`
sends a one-item chunk; :meth:`Dispatcher.run` groups a batch by slot
(keeping order within each slot), cuts each slot's list into chunks of
``ceil(len(batch) / (4 * workers))`` and sends them interleaved across the
slots, so the parent pays one queue put and one result get per chunk rather
than per request.

**Backpressure**: each worker's queue is bounded (``queue_depth``, counted
in *chunks*), and a send against a full queue either blocks
(``backpressure="block"``, the default) or raises the typed
:class:`ClusterQueueFull` (``backpressure="fail"``).

Worker death is detected while collecting (a dead process with in-flight
requests): only *that worker's* unacknowledged chunks fail — each request
in them with a typed :class:`~repro.runtime.RequestOutcome`
(``trap_kind="worker_died"``) — the slot respawns with a fresh queue, and
subsequent traffic proceeds.  Trap isolation inside a live worker is exactly
``BatchRunner``'s: traps come back as ``ok=False`` outcomes with their
classified ``trap_kind``, never as dispatcher errors.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp
import queue as queue_mod
import time
from typing import Optional, Sequence, Union

from ..obs.trace import get_tracer
from ..runtime.batch import (
    BatchReport,
    Request,
    RequestOutcome,
    Session,
    _normalize_requests,
)
from .worker import wire_to_outcome, worker_main

__all__ = ["ClusterError", "ClusterQueueFull", "Dispatcher", "WorkerPool", "TRAP_KIND_WORKER_DIED"]

#: ``RequestOutcome.trap_kind`` for requests lost to a dead worker — part of
#: the obs stability contract, alongside the ``classify_trap`` kinds.
TRAP_KIND_WORKER_DIED = "worker_died"

#: ``trap_kind`` for protocol-level worker errors (malformed request, unknown
#: export reaching the worker): the request failed, the worker lives on.
TRAP_KIND_WORKER_ERROR = "worker_error"


class ClusterError(RuntimeError):
    """A cluster-level failure (startup, protocol, shutdown)."""


class ClusterQueueFull(ClusterError):
    """Backpressure: the routed worker's bounded queue already holds
    ``queue_depth`` chunks (``backpressure="fail"`` mode; ``"block"`` mode
    waits instead)."""


class _WorkerHandle:
    """One worker slot: process + its bounded chunk queue + in-flight ids."""

    __slots__ = ("slot", "process", "queue", "pending", "ready", "generation")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process = None
        self.queue = None
        # request id -> request object, for every request in a sent chunk
        # the worker has not answered yet
        self.pending: dict[int, object] = {}
        self.ready = False
        self.generation = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


def _retire(request_queue) -> None:
    """Close a queue whose worker is gone.  Nobody reads it any more, so its
    feeder thread may be stuck on a full pipe of stranded chunks: let the
    thread go rather than join it at exit."""

    request_queue.cancel_join_thread()
    request_queue.close()


class WorkerPool:
    """Spawns and supervises the N worker processes.

    ``payload`` is the picklable bundle each worker builds its service from
    (linked RichWasm module + a ``workers=1`` config, optionally a per-worker
    ``obs_jsonl`` path template — ``{worker}`` expands to the slot index).
    ``queue_depth`` bounds each worker's queue in chunks, not requests.
    """

    def __init__(
        self,
        payload: dict,
        *,
        workers: int,
        queue_depth: int = 32,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ClusterError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ClusterError(f"queue_depth must be >= 1, got {queue_depth}")
        self.payload = payload
        self.queue_depth = queue_depth
        self.context = mp.get_context(start_method)
        self.results = self.context.Queue()
        self.handles = [_WorkerHandle(slot) for slot in range(workers)]
        self.respawns = 0
        for handle in self.handles:
            self._spawn(handle)

    # -- lifecycle ---------------------------------------------------------

    def _worker_payload(self, slot: int) -> dict:
        payload = dict(self.payload)
        template = payload.pop("obs_jsonl_template", None)
        if template:
            payload["obs_jsonl"] = str(template).format(worker=slot)
        return payload

    def _spawn(self, handle: _WorkerHandle) -> None:
        # A fresh queue per (re)spawn: messages stranded in a dead worker's
        # queue belong to its generation and are failed by the reaper, never
        # replayed against the replacement.
        if handle.queue is not None:
            _retire(handle.queue)
        handle.queue = self.context.Queue(maxsize=self.queue_depth)
        handle.ready = False
        handle.generation += 1
        handle.process = self.context.Process(
            target=worker_main,
            args=(handle.slot, handle.queue, self.results, self._worker_payload(handle.slot)),
            daemon=True,
            name=f"repro-cluster-w{handle.slot}",
        )
        handle.process.start()

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every worker reports ready (startup errors raise)."""

        deadline = time.monotonic() + timeout
        while not all(h.ready for h in self.handles):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError("cluster startup timed out")
            try:
                record = self.results.get(timeout=min(remaining, 0.5))
            except queue_mod.Empty:
                for handle in self.handles:
                    if not handle.ready and not handle.alive:
                        raise ClusterError(
                            f"worker {handle.slot} died during startup "
                            f"(exitcode {handle.process.exitcode})"
                        )
                continue
            if record.get("op") == "ready":
                self.handles[record["worker"]].ready = True
            elif record.get("op") == "error":
                raise ClusterError(record.get("message") or "worker startup failed")

    def respawn(self, handle: _WorkerHandle) -> list:
        """Replace a dead worker; returns the requests it had in flight."""

        stranded = list(handle.pending.items())
        handle.pending.clear()
        self._spawn(handle)
        self.respawns += 1
        return stranded

    def shutdown(self, timeout: float = 5.0) -> None:
        for handle in self.handles:
            if handle.alive:
                try:
                    handle.queue.put({"op": "shutdown"}, timeout=timeout)
                except queue_mod.Full:
                    pass
        for handle in self.handles:
            if handle.process is not None:
                handle.process.join(timeout=timeout)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=timeout)
        self.results.close()
        for handle in self.handles:
            if handle.queue is not None:
                _retire(handle.queue)


class Dispatcher:
    """Routes requests over a :class:`WorkerPool` and collects outcomes."""

    def __init__(
        self,
        pool: WorkerPool,
        *,
        backpressure: str = "block",
        submit_timeout: float = 30.0,
        result_timeout: float = 60.0,
    ) -> None:
        if backpressure not in ("block", "fail"):
            raise ClusterError(
                f"backpressure must be 'block' or 'fail', got {backpressure!r}"
            )
        self.pool = pool
        self.backpressure = backpressure
        self.submit_timeout = submit_timeout
        self.result_timeout = result_timeout
        self._next_id = 0
        self._rr = 0  # round-robin cursor
        self._outcomes: dict[int, RequestOutcome] = {}  # collected, unclaimed
        self._stats_replies: dict[int, dict] = {}

    # -- routing -----------------------------------------------------------

    def route(self, request: Union[Request, Session]) -> int:
        """The worker slot ``request`` routes to (sticky or round-robin)."""

        session_id = getattr(request, "session_id", None)
        if session_id is not None:
            digest = hashlib.sha256(str(session_id).encode("utf-8")).digest()
            return int.from_bytes(digest[:8], "big") % len(self.pool.handles)
        slot = self._rr % len(self.pool.handles)
        self._rr += 1
        return slot

    @staticmethod
    def _wire_item(request: Union[Request, Session], request_id: int, ambient) -> dict:
        trace_id = ambient if request.trace_id is None else request.trace_id
        if isinstance(request, Session):
            return {
                "id": request_id,
                "calls": [[export, list(args)] for export, args in request.calls],
                "max_steps": request.max_steps, "trace_id": trace_id,
                "session_id": request.session_id,
            }
        return {
            "id": request_id, "export": request.export,
            "args": list(request.args), "max_steps": request.max_steps,
            "trace_id": trace_id,
        }

    def _send(self, handle: _WorkerHandle, requests: list, *, timeout: float) -> int:
        """Put one chunk of ``requests`` on ``handle``'s queue; returns the
        first one's id (the chunk's ids are consecutive).

        A dead target worker is respawned first (its stranded in-flight
        requests are failed into the outcome buffer).  Requests without their
        own ``trace_id`` carry the ambient span's, so the worker-side request
        spans join the caller's trace across the process boundary.
        """

        if not handle.alive:
            self._reap(handle)
        ambient = getattr(get_tracer().current_span(), "trace_id", None)
        first = self._next_id
        items = [
            self._wire_item(request, request_id, ambient)
            for request_id, request in enumerate(requests, first)
        ]
        try:
            # "fail" mode never blocks; the timeout only applies to "block".
            handle.queue.put({"op": "batch", "items": items},
                             block=self.backpressure == "block", timeout=timeout)
        except queue_mod.Full:
            raise ClusterQueueFull(
                f"worker {handle.slot} queue is full "
                f"({self.pool.queue_depth} chunk(s) deep)"
            ) from None
        self._next_id = first + len(requests)
        handle.pending.update(enumerate(requests, first))
        return first

    # -- submit / collect --------------------------------------------------

    def submit(self, request: Union[Request, Session, tuple], *,
               timeout: Optional[float] = None) -> int:
        """Enqueue one request as a one-item chunk; returns its id (claim
        with :meth:`collect`).

        Backpressure applies per the dispatcher's mode: ``"fail"`` never
        blocks (a full queue raises :class:`ClusterQueueFull`); ``"block"``
        waits up to ``timeout`` (default ``submit_timeout``) before raising.
        """

        if not isinstance(request, (Request, Session)):
            (request,) = _normalize_requests([request])
        handle = self.pool.handles[self.route(request)]
        wait = self.submit_timeout if timeout is None else timeout
        return self._send(handle, [request], timeout=wait)

    def collect(self, request_id: int) -> RequestOutcome:
        """Block until ``request_id``'s outcome arrives (buffering others)."""

        deadline = time.monotonic() + self.result_timeout
        while True:
            outcome = self._outcomes.pop(request_id, None)
            if outcome is not None:
                return outcome
            self._pump(deadline, waiting_for=request_id)

    def _pump(self, deadline: float, *, waiting_for: Optional[int] = None) -> None:
        """Drain one result-queue record (or reap dead workers on idle)."""

        try:
            record = self.pool.results.get(timeout=0.05)
        except queue_mod.Empty:
            self._reap_dead()
            if waiting_for is not None and waiting_for not in self._outcomes:
                if time.monotonic() > deadline:
                    raise ClusterError(
                        f"timed out waiting for request {waiting_for} "
                        f"({self.result_timeout}s)"
                    )
            return
        op = record.get("op")
        if op == "results":
            self._file_results(record)
        elif op == "error" and record.get("id") is None:
            # A respawned worker failed to start (or rejected an id-less
            # op): there is no request to file it under, so it surfaces.
            raise ClusterError(record.get("message") or "worker error")
        elif op == "stats":
            self._stats_replies[record["id"]] = record["stats"]
        elif op == "ready":
            self.pool.handles[record["worker"]].ready = True

    def _file_results(self, record: dict) -> None:
        pending = self.pool.handles[record["worker"]].pending
        for item in record["items"]:
            request = pending.pop(item["id"], None)
            if request is None:
                continue  # stale (e.g. raced a reap that already failed it)
            if "outcome" in item:
                outcome = wire_to_outcome(item["outcome"], request)
            else:
                outcome = RequestOutcome(
                    request=request, ok=False, values=None,
                    trap=item.get("message") or "worker error", steps=0,
                    trap_kind=TRAP_KIND_WORKER_ERROR, trace_id=request.trace_id,
                )
            self._outcomes[item["id"]] = outcome

    # -- death handling ----------------------------------------------------

    def _reap_dead(self) -> None:
        for handle in self.pool.handles:
            if not handle.alive:
                self._reap(handle)

    def _reap(self, handle) -> None:
        """Fail the dead worker's in-flight requests (typed) and respawn."""

        exitcode = handle.process.exitcode if handle.process is not None else None
        for request_id, request in self.pool.respawn(handle):
            self._outcomes[request_id] = RequestOutcome(
                request=request, ok=False, values=None,
                trap=(
                    f"worker {handle.slot} died (exitcode {exitcode}) "
                    "with this request in flight"
                ),
                steps=0, trap_kind=TRAP_KIND_WORKER_DIED,
                trace_id=request.trace_id,
            )

    # -- batch surface -----------------------------------------------------

    def run_one(self, request: Union[Request, Session, tuple]) -> RequestOutcome:
        return self.collect(self.submit(request))

    def run(self, requests: Sequence[Union[Request, Session, tuple]]) -> BatchReport:
        """Send a whole batch in per-worker chunks (interleaving collection
        under backpressure) and gather every outcome, in input order, into a
        :class:`BatchReport`."""

        report = BatchReport()
        start = time.perf_counter()
        requests = _normalize_requests(requests)
        slots: list[list[int]] = [[] for _ in self.pool.handles]
        for position, request in enumerate(requests):
            slots[self.route(request)].append(position)
        # About four chunks per worker: its next chunk is already queued
        # while the parent files the last one's outcomes, and the parent
        # still pays only a few messages per worker.
        size = max(1, -(-len(requests) // (4 * len(slots))))
        chunks = [
            [positions[i:i + size] for i in range(0, len(positions), size)]
            for positions in slots
        ]
        ids: list[int] = [0] * len(requests)
        for round_ in itertools.zip_longest(*chunks):
            for slot, positions in enumerate(round_):
                if positions is None:
                    continue
                chunk = [requests[p] for p in positions]
                deadline = time.monotonic() + self.submit_timeout
                while True:
                    try:
                        # Short waits interleaved with result draining: under
                        # backpressure the sender keeps consuming outcomes,
                        # so a bounded queue throttles rather than deadlocks.
                        first = self._send(self.pool.handles[slot], chunk, timeout=0.05)
                        break
                    except ClusterQueueFull:
                        if self.backpressure == "fail":
                            raise
                        if time.monotonic() > deadline:
                            raise
                        self._pump(deadline)
                for request_id, position in enumerate(positions, first):
                    ids[position] = request_id
        report.outcomes.extend(self.collect(request_id) for request_id in ids)
        report.wall_s = time.perf_counter() - start
        return report

    # -- stats -------------------------------------------------------------

    def worker_stats(self) -> dict[int, dict]:
        """Per-slot stats records from every live worker (dead slots absent).

        Each record is the worker's ``{"pid", "pool", "cache", "metrics"}``
        bundle; merge the metrics with :func:`repro.obs.merge_snapshots`.
        """

        pending: dict[int, int] = {}
        for handle in self.pool.handles:
            if not handle.alive:
                continue
            request_id = self._next_id
            self._next_id += 1
            try:
                handle.queue.put({"op": "stats", "id": request_id}, timeout=self.submit_timeout)
            except queue_mod.Full:
                continue
            pending[request_id] = handle.slot
        stats: dict[int, dict] = {}
        deadline = time.monotonic() + self.result_timeout
        while pending and time.monotonic() < deadline:
            ready = [rid for rid in pending if rid in self._stats_replies]
            for request_id in ready:
                stats[pending.pop(request_id)] = self._stats_replies.pop(request_id)
            if not pending:
                break
            alive_slots = {h.slot for h in self.pool.handles if h.alive}
            pending = {rid: slot for rid, slot in pending.items() if slot in alive_slots}
            if not pending:
                break
            self._pump(deadline)
        return stats
