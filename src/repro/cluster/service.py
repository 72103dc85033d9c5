""":class:`ClusterService` — the multi-process mirror of ``api.Service``.

Built by ``repro.api.serve(..., workers=N)`` for ``N > 1``: the parent
compiles once (populating the shared :class:`~repro.cluster.DiskCache` when
the config carries a ``cache_dir``), then ships the linked RichWasm module
to ``N`` worker processes, each of which builds its own single-process
:class:`~repro.api.Service` (pool + batch runner) — warm-starting from disk
rather than recompiling when a cache directory is shared.

The surface mirrors :class:`~repro.api.Service` call for call — ``call``
(raising :class:`~repro.wasm.interpreter.WasmTrap` on traps), ``run_one``,
``run``, ``session``, ``stats``, ``resolve``, ``exports``, ``diagnostics``
— with the execution fanned out by the :class:`~repro.cluster.Dispatcher`
(round-robin requests, sticky sessions, worker respawn).  Export
resolution happens parent-side against the same export table, so lenient
names behave identically in both tiers.

Each worker is reached over one duplex connection.  ``queue_depth`` caps
the chunks a worker holds unanswered, and a per-connection byte bound (a
quarter of the socket's send buffer) caps their bytes, so a write never
blocks on a busy worker.  With ``backpressure="block"`` a send that does
not fit waits for replies; with ``"fail"`` it raises
:class:`~repro.cluster.ClusterQueueFull`.  A worker that dies is seen as
EOF (or ``EPIPE``) on its connection: its unanswered requests come back as
``worker_died`` outcomes and the slot respawns.

The service is a context manager; :meth:`close` shuts the workers down
(``with api.serve(prog, workers=4) as svc: ...``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..api.service import ExportResolver
from ..obs.metrics import merge_snapshots
from ..obs.trace import get_tracer
from ..runtime.batch import BatchReport, Request, RequestOutcome, Session, _normalize_requests
from ..wasm.interpreter import WasmTrap
from .dispatcher import Dispatcher, WorkerPool

__all__ = ["ClusterService", "ClusterStats"]


@dataclass(frozen=True)
class ClusterStats:
    """One snapshot across the whole cluster.

    ``workers`` maps slot → the worker's own record (pid, pool counters,
    cache stage stats); ``metrics`` is every worker's registry snapshot
    folded through :func:`repro.obs.merge_snapshots` (no double-counting);
    ``cache`` is the *parent-side* compile cache's stage stats (the workers'
    disk tiers report within their own records).
    """

    workers: dict = field(default_factory=dict)
    respawns: int = 0
    metrics: list = field(default_factory=list)
    cache: Optional[dict] = None


class ClusterService:
    """A compiled program served by N worker processes behind a dispatcher."""

    def __init__(
        self,
        compiled,
        config,
        *,
        cache=None,
        queue_depth: int = 32,
        backpressure: str = "block",
        start_method: Optional[str] = None,
        obs_jsonl_template: Optional[str] = None,
    ) -> None:
        self.compiled = compiled
        self.config = config
        self._cache = cache
        self._resolver = ExportResolver(compiled.wasm.exported_functions())
        payload = {
            # Workers rebuild from the linked RichWasm (picklable across
            # spawn/fork); each runs a plain single-process serve.
            "richwasm": compiled.richwasm,
            "config": config.replace(workers=1),
        }
        if obs_jsonl_template:
            payload["obs_jsonl_template"] = obs_jsonl_template
        with get_tracer().span("cluster.start", workers=config.workers):
            self.pool = WorkerPool(
                payload,
                workers=config.workers,
                queue_depth=queue_depth,
                start_method=start_method,
            )
            self.dispatcher = Dispatcher(self.pool, backpressure=backpressure)
            self.pool.wait_ready()
        self._closed = False

    # -- introspection -----------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self.pool.handles)

    @property
    def exports(self) -> tuple[str, ...]:
        return self._resolver.exports

    @property
    def diagnostics(self):
        """The parent-side compile :class:`~repro.api.Diagnostics`."""

        return getattr(self.compiled, "diagnostics", None)

    def resolve(self, name: str) -> str:
        return self._resolver.resolve(name)

    def stats(self) -> ClusterStats:
        """Cluster-wide counters: per-worker records + merged metrics."""

        workers = self.dispatcher.worker_stats()
        return ClusterStats(
            workers=workers,
            respawns=self.pool.respawns,
            metrics=merge_snapshots(
                *(record["metrics"] for record in workers.values())
            ),
            cache=dict(self._cache.stats) if self._cache is not None else None,
        )

    # -- execution ---------------------------------------------------------

    def call(self, export: str, args: Sequence = (), *, max_steps: Optional[int] = None):
        """One invocation on some worker; returns the result values.

        Traps raise :class:`WasmTrap` exactly like the in-process service —
        including the typed worker-death trap when the serving process dies
        mid-request.
        """

        with get_tracer().span("cluster.call", export=export):
            outcome = self.dispatcher.run_one(
                Request(self.resolve(export), tuple(args), max_steps)
            )
            if not outcome.ok:
                raise WasmTrap(outcome.trap)
            return outcome.values

    def run_one(self, request) -> RequestOutcome:
        """One :class:`Request`/:class:`Session` (or tuple), trap-isolated."""

        if not isinstance(request, (Request, Session)):
            (request,) = _normalize_requests([request])
        return self.dispatcher.run_one(self._resolver.request(request))

    def run(self, requests) -> BatchReport:
        """A batch fanned out across the workers in per-worker chunks
        (at most ``queue_depth`` unanswered chunks per worker)."""

        resolved = [self._resolver.request(request) for request in _normalize_requests(requests)]
        with get_tracer().span("cluster.run", requests=len(resolved), workers=self.workers):
            return self.dispatcher.run(resolved)

    def session(self, calls, *, max_steps: Optional[int] = None,
                session_id: Optional[str] = None) -> RequestOutcome:
        """A stateful call script on one worker's pooled instance.

        ``session_id`` pins the script sticky: every session with the same
        id is served by the same worker process.
        """

        calls = tuple(calls)
        with get_tracer().span("cluster.session", calls=len(calls)):
            return self.run_one(
                Session(calls=calls, max_steps=max_steps, session_id=session_id)
            )

    def warm(self, count: int) -> None:
        """No-op mirror of ``Service.warm``: workers pre-warm their own
        pools at startup (the ready handshake covers it)."""

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.pool.shutdown()

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass
