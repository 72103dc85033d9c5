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

Each worker slot has **one connection**: a duplex ``multiprocessing.Pipe``
the parent writes requests to and reads that worker's replies from.  The
parent pickles each message once and writes it from the calling thread (no
feeder thread, no lock shared between workers); it collects by waiting on
every live connection at once.  Requests cross in **chunks**: one
``"batch"`` message carries a list of requests for one worker, and the
worker answers with one ``"results"`` record holding that chunk's outcomes.
:meth:`Dispatcher.submit` sends a one-item chunk; :meth:`Dispatcher.run`
groups a batch by slot (keeping order within each slot), cuts each slot's
list into chunks of ``ceil(len(batch) / (4 * workers))`` and sends them
interleaved across the slots, so the parent pays one write and one read per
chunk rather than per request.

**Backpressure** is counted by the dispatcher, per worker: a message is
*unanswered* from its write until its reply is read.  A message goes out at
once when the worker has nothing unanswered, or when the worker holds fewer
than ``queue_depth`` unanswered chunks whose bytes, with the new message's,
stay within the slot's byte bound (a quarter of the connection's socket
send buffer, each message counted with the kernel's per-write overhead).
Otherwise ``backpressure="block"`` (the default) reads replies until it
fits, raising :class:`ClusterQueueFull` after ``submit_timeout``, and
``backpressure="fail"`` raises :class:`ClusterQueueFull` at once (a reply
counts once the parent has read it, which it does only while collecting
or blocking).  The
parent therefore never writes more to a busy worker than its connection
buffers, so it never blocks on a write while that worker is blocked writing
a reply: the two cannot deadlock, whatever the chunk and reply sizes.

Worker death shows on the connection: EOF when the parent reads it, or
``EPIPE`` when the parent writes to it.  Only *that worker's* unanswered
chunks fail — each request in them with a typed
:class:`~repro.runtime.RequestOutcome` (``trap_kind="worker_died"``); the
replies it wrote before dying are still filed — the slot respawns with a
fresh connection, and subsequent traffic proceeds.  A reaper also respawns
any dead worker the parent finds while idle.  Trap isolation inside a live
worker is exactly ``BatchRunner``'s: traps come back as ``ok=False``
outcomes with their classified ``trap_kind``, never as dispatcher errors.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as mp
import pickle
import socket
import time
from collections import deque
from multiprocessing.connection import wait
from multiprocessing.util import register_after_fork
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

#: Bytes each message counts toward its slot's byte bound on top of its
#: length: the kernel's bookkeeping per write.  On Linux a 200-byte write
#: takes about 1.3 KB of a Unix socket's send buffer, so the default
#: 208 KiB buffer holds only 167 of them; the bound's factor of four
#: covers the rest.
_WRITE_OVERHEAD = 1024

_SHUTDOWN = pickle.dumps({"op": "shutdown"})


class ClusterError(RuntimeError):
    """A cluster-level failure (startup, protocol, shutdown)."""


class ClusterQueueFull(ClusterError):
    """Backpressure: the routed worker already holds ``queue_depth``
    unanswered chunks, or as many unanswered bytes as its connection may
    buffer (``backpressure="fail"`` mode, or ``"block"`` mode after its
    timeout)."""


def _byte_bound(connection) -> int:
    """How many unanswered bytes a slot may hold: a quarter of the
    connection's socket send buffer."""

    with socket.socket(fileno=connection.fileno()) as sock:
        try:
            return sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) // 4
        finally:
            sock.detach()  # the fd stays the connection's


class _WorkerHandle:
    """One worker slot: process + its connection + what it has not
    answered yet."""

    __slots__ = ("slot", "process", "conn", "byte_bound", "pending", "unanswered",
                 "unanswered_bytes", "ready", "generation")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.process = None
        self.conn = None
        self.byte_bound = 0
        # request id -> request object, for every request in a sent chunk
        # the worker has not answered yet
        self.pending: dict[int, object] = {}
        # the counted size of each unanswered message, oldest first (the
        # worker answers in order)
        self.unanswered: deque[int] = deque()
        self.unanswered_bytes = 0
        self.ready = False
        self.generation = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def fits(self, size: int, depth: int) -> bool:
        """Whether a message of counted ``size`` may be written now without
        the write blocking on this worker."""

        return not self.unanswered or (
            len(self.unanswered) < depth and self.unanswered_bytes + size <= self.byte_bound
        )


class WorkerPool:
    """Spawns and supervises the N worker processes.

    ``payload`` is the picklable bundle each worker builds its service from
    (linked RichWasm module + a ``workers=1`` config, optionally a per-worker
    ``obs_jsonl`` path template — ``{worker}`` expands to the slot index).
    ``queue_depth`` bounds each worker's unanswered messages in chunks, not
    requests.
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
        self.handles = [_WorkerHandle(slot) for slot in range(workers)]
        #: each live connection -> its slot's handle
        self.connections: dict = {}
        self.respawns = 0
        # A forked worker inherits the parent's end of every slot's
        # connection; it closes them, so a worker sees EOF when the parent
        # closes its end, whichever siblings were forked after it.
        register_after_fork(self, WorkerPool._close_connections)
        for handle in self.handles:
            self._spawn(handle)

    # -- lifecycle ---------------------------------------------------------

    def _worker_payload(self, slot: int) -> dict:
        payload = dict(self.payload)
        template = payload.pop("obs_jsonl_template", None)
        if template:
            payload["obs_jsonl"] = str(template).format(worker=slot)
        return payload

    def _close_connections(self) -> None:
        for conn in self.connections:
            conn.close()

    def _spawn(self, handle: _WorkerHandle) -> None:
        # A fresh connection per (re)spawn: messages stranded in a dead
        # worker's connection belong to its generation and are failed by the
        # reaper, never replayed against the replacement.
        if handle.conn is not None:
            self.connections.pop(handle.conn, None)
            handle.conn.close()
        handle.conn, child_end = self.context.Pipe()
        handle.byte_bound = _byte_bound(handle.conn)
        handle.unanswered.clear()
        handle.unanswered_bytes = 0
        handle.ready = False
        handle.generation += 1
        handle.process = self.context.Process(
            target=worker_main,
            args=(child_end, self._worker_payload(handle.slot)),
            daemon=True,
            name=f"repro-cluster-w{handle.slot}",
        )
        self.connections[handle.conn] = handle
        try:
            handle.process.start()
        finally:
            # Only the worker holds its end, so its exit reads as EOF here.
            child_end.close()

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every worker reports ready (startup errors raise)."""

        deadline = time.monotonic() + timeout
        while not all(h.ready for h in self.handles):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError("cluster startup timed out")
            # A worker's first record is its ready (or error) record.
            starting = {h.conn: h for h in self.handles if not h.ready}
            for conn in wait(starting, timeout=remaining):
                handle = starting[conn]
                try:
                    record = conn.recv()
                except (EOFError, ConnectionError):
                    handle.process.join(timeout=1.0)
                    raise ClusterError(
                        f"worker {handle.slot} died during startup "
                        f"(exitcode {handle.process.exitcode})"
                    ) from None
                if record.get("op") == "ready":
                    handle.ready = True
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
            # Only where the write cannot block; closing the connection
            # below ends any other worker (EOF or EPIPE).
            if handle.fits(len(_SHUTDOWN) + _WRITE_OVERHEAD, self.queue_depth):
                try:
                    handle.conn.send_bytes(_SHUTDOWN)
                except OSError:
                    pass
        self._close_connections()
        self.connections.clear()
        for handle in self.handles:
            if handle.process is not None:
                handle.process.join(timeout=timeout)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=timeout)


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

    def _write(self, handle: _WorkerHandle, data: bytes, *, fail: bool, deadline: float) -> None:
        """Write one pickled message that the worker will answer.

        Until it fits (see :meth:`_WorkerHandle.fits`), ``fail`` raises
        :class:`ClusterQueueFull`, and otherwise replies are read until
        ``deadline``.  A worker found dead by the write (``EPIPE``) is
        reaped, and the message goes to its replacement.
        """

        size = len(data) + _WRITE_OVERHEAD
        depth = self.pool.queue_depth
        while not handle.fits(size, depth):
            if fail or time.monotonic() > deadline:
                raise ClusterQueueFull(
                    f"worker {handle.slot} has {len(handle.unanswered)} unanswered "
                    f"chunk(s) of {handle.unanswered_bytes} byte(s) "
                    f"(queue_depth {depth}, byte bound {handle.byte_bound})"
                )
            self._pump(deadline)
        try:
            handle.conn.send_bytes(data)
        except ConnectionError:  # EPIPE: the worker is gone
            self._reap(handle)
            handle.conn.send_bytes(data)
        handle.unanswered.append(size)
        handle.unanswered_bytes += size

    def _send(self, handle: _WorkerHandle, requests: list, *, timeout: float) -> int:
        """Write one chunk of ``requests`` to ``handle``'s worker; returns
        the first one's id (the chunk's ids are consecutive).

        Requests without their own ``trace_id`` carry the ambient span's, so
        the worker-side request spans join the caller's trace across the
        process boundary.
        """

        ambient = getattr(get_tracer().current_span(), "trace_id", None)
        first = self._next_id
        items = [
            self._wire_item(request, request_id, ambient)
            for request_id, request in enumerate(requests, first)
        ]
        data = pickle.dumps({"op": "batch", "items": items})
        self._write(handle, data, fail=self.backpressure == "fail",
                    deadline=time.monotonic() + timeout)
        self._next_id = first + len(requests)
        handle.pending.update(enumerate(requests, first))
        return first

    # -- submit / collect --------------------------------------------------

    def submit(self, request: Union[Request, Session, tuple], *,
               timeout: Optional[float] = None) -> int:
        """Send one request as a one-item chunk; returns its id (claim with
        :meth:`collect`).

        Backpressure applies per the dispatcher's mode: ``"fail"`` never
        blocks (a full slot raises :class:`ClusterQueueFull`); ``"block"``
        reads replies for up to ``timeout`` (default ``submit_timeout``)
        before raising.
        """

        if not isinstance(request, (Request, Session)):
            (request,) = _normalize_requests([request])
        handle = self.pool.handles[self.route(request)]
        wait_s = self.submit_timeout if timeout is None else timeout
        return self._send(handle, [request], timeout=wait_s)

    def collect(self, request_id: int) -> RequestOutcome:
        """Block until ``request_id``'s outcome arrives (buffering others)."""

        deadline = time.monotonic() + self.result_timeout
        while True:
            outcome = self._outcomes.pop(request_id, None)
            if outcome is not None:
                return outcome
            self._pump(deadline, waiting_for=request_id)

    def _pump(self, deadline: float, *, waiting_for: Optional[int] = None) -> None:
        """Read one record from each connection that has one (or reap dead
        workers on idle)."""

        connections = self.pool.connections
        ready = wait(connections, timeout=0.05)
        if not ready:
            self._reap_dead()
            if waiting_for is not None and waiting_for not in self._outcomes:
                if time.monotonic() > deadline:
                    raise ClusterError(
                        f"timed out waiting for request {waiting_for} "
                        f"({self.result_timeout}s)"
                    )
            return
        for conn in ready:
            handle = connections[conn]
            try:
                record = conn.recv()
            except (EOFError, ConnectionError):
                self._reap(handle)
                continue
            self._file(handle, record)

    def _file(self, handle: _WorkerHandle, record: dict) -> None:
        op = record.get("op")
        if op == "ready":
            handle.ready = True
            return
        if op == "error" and record.get("id") is None:
            # A respawned worker failed to start: there is no request to
            # file it under, so it surfaces.
            raise ClusterError(record.get("message") or "worker error")
        handle.unanswered_bytes -= handle.unanswered.popleft()
        if op == "results":
            self._file_results(handle, record)
        elif op == "stats":
            self._stats_replies[record["id"]] = record["stats"]

    def _file_results(self, handle: _WorkerHandle, record: dict) -> None:
        pending = handle.pending
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

    def _reap(self, handle: _WorkerHandle) -> None:
        """File what the dead worker answered, fail the rest of its
        in-flight requests (typed) and respawn it."""

        try:
            while handle.conn.poll():
                self._file(handle, handle.conn.recv())
        except (EOFError, ConnectionError):
            pass
        process = handle.process
        process.join(timeout=1.0)
        if process.is_alive():
            # Its connection is broken, so it can serve nobody.
            process.kill()
            process.join()
        for request_id, request in self.pool.respawn(handle):
            self._outcomes[request_id] = RequestOutcome(
                request=request, ok=False, values=None,
                trap=(
                    f"worker {handle.slot} died (exitcode {process.exitcode}) "
                    "with this request in flight"
                ),
                steps=0, trap_kind=TRAP_KIND_WORKER_DIED,
                trace_id=request.trace_id,
            )

    # -- batch surface -----------------------------------------------------

    def run_one(self, request: Union[Request, Session, tuple]) -> RequestOutcome:
        return self.collect(self.submit(request))

    def run(self, requests: Sequence[Union[Request, Session, tuple]]) -> BatchReport:
        """Send a whole batch in per-worker chunks (reading replies while a
        worker is full) and gather every outcome, in input order, into a
        :class:`BatchReport`."""

        report = BatchReport()
        start = time.perf_counter()
        requests = _normalize_requests(requests)
        slots: list[list[int]] = [[] for _ in self.pool.handles]
        for position, request in enumerate(requests):
            slots[self.route(request)].append(position)
        # About four chunks per worker: its next chunk is already written
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
                first = self._send(self.pool.handles[slot], [requests[p] for p in positions],
                                   timeout=self.submit_timeout)
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

        # request id -> (slot, generation asked): a reply from a worker that
        # died in between never comes.
        pending: dict[int, tuple[int, int]] = {}
        for handle in self.pool.handles:
            if not handle.alive:
                continue
            request_id = self._next_id
            self._next_id += 1
            data = pickle.dumps({"op": "stats", "id": request_id})
            try:
                self._write(handle, data, fail=False,
                            deadline=time.monotonic() + self.submit_timeout)
            except ClusterQueueFull:
                continue
            pending[request_id] = (handle.slot, handle.generation)
        stats: dict[int, dict] = {}
        deadline = time.monotonic() + self.result_timeout
        while pending and time.monotonic() < deadline:
            for request_id in [rid for rid in pending if rid in self._stats_replies]:
                stats[pending.pop(request_id)[0]] = self._stats_replies.pop(request_id)
            pending = {
                rid: (slot, generation) for rid, (slot, generation) in pending.items()
                if self.pool.handles[slot].generation == generation
            }
            if pending:
                self._pump(deadline)
        return stats
