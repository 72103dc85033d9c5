"""The serving facade: a compiled program behind one call surface.

:class:`Service` (built by :func:`repro.api.serve`) wraps an
:class:`~repro.runtime.InstancePool` and :class:`~repro.runtime.BatchRunner`
around one :class:`~repro.runtime.CompiledProgram`: :meth:`Service.call` for
single invocations (raising :class:`~repro.wasm.interpreter.WasmTrap` on
traps), :meth:`Service.run`/:meth:`Service.session` for batched and stateful
request streams with per-request budgets and trap isolation.

Export names resolve leniently but never silently: linked programs namespace
exports as ``module.export``, and :func:`resolve_export` accepts either the
full name or an unambiguous suffix — an unknown or ambiguous name raises
:class:`~repro.core.typing.errors.LinkError` naming every candidate.
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.typing.errors import LinkError
from ..obs.trace import get_tracer
from ..runtime.batch import BatchReport, BatchRunner, Request, RequestOutcome, Session, _normalize_requests
from ..runtime.cache import CacheStats, ModuleCache
from ..runtime.pool import InstancePool, PoolStats
from ..wasm.interpreter import WasmTrap
from .config import CompileConfig


def resolve_export(exports: Sequence[str], name: str) -> str:
    """Resolve ``name`` against a linked program's export table.

    Exact matches win; otherwise a unique ``*.name`` suffix match resolves
    (linked programs namespace every export as ``module.export``).  No match
    or an ambiguous suffix raises :class:`LinkError` naming the candidates.
    """

    if name in exports:
        return name
    candidates = [export for export in sorted(exports) if export.endswith("." + name)]
    if len(candidates) == 1:
        return candidates[0]
    if candidates:
        raise LinkError(
            f"ambiguous export {name!r}: candidates {', '.join(candidates)}"
        )
    raise LinkError(
        f"no export named {name!r}; available: {', '.join(sorted(exports))}"
    )


class ExportResolver:
    """:func:`resolve_export` over one export table, memoized by name.

    :class:`Service` and :class:`repro.cluster.ClusterService` each hold
    one.  Successful resolutions are cached; failures are not, so an
    unknown or ambiguous name raises :class:`LinkError` on every call.

    A :class:`Session` found canonical is remembered by identity, so serving
    the same object again skips the walk over its calls.  The memo maps
    ``id()`` to a weak reference: a hit needs the entry to be the very same
    object, and a dead session's entry goes with it.  Nothing is stored on
    the session itself, so its pickle to a cluster worker is unchanged.
    """

    __slots__ = ("exports", "_canonical", "_resolved", "_canonical_sessions")

    def __init__(self, exports: Sequence[str]) -> None:
        self.exports = tuple(sorted(exports))
        self._canonical = frozenset(self.exports)  # exact names resolve to themselves
        self._resolved: dict[str, str] = {}
        self._canonical_sessions: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def resolve(self, name: str) -> str:
        try:
            return self._resolved[name]
        except KeyError:
            resolved = self._resolved[name] = resolve_export(self.exports, name)
            return resolved

    def request(self, request):
        """``request`` with every export name canonical (and a session's
        call arguments as tuples); the object itself when it already is."""

        canonical, resolve = self._canonical, self.resolve
        if isinstance(request, Session):
            if self._canonical_sessions.get(id(request)) is request:
                return request
            calls = request.calls
            for export, args in calls:
                if export not in canonical or type(args) is not tuple:
                    return dataclasses.replace(
                        request, calls=tuple((resolve(export), tuple(args)) for export, args in calls)
                    )
            if type(calls) is tuple:  # a list of calls could still change
                self._canonical_sessions[id(request)] = request
            return request
        if request.export in canonical:
            return request
        return dataclasses.replace(request, export=resolve(request.export))


@dataclass(frozen=True)
class ServiceStats:
    """One structured snapshot of a service's runtime counters."""

    pool: PoolStats
    cache: Optional[dict] = None  # stage name -> CacheStats


class Service:
    """A ready-to-serve compiled program (pool + batch runner)."""

    def __init__(
        self,
        compiled,
        config: CompileConfig,
        pool: InstancePool,
        *,
        cache: Optional[ModuleCache] = None,
    ) -> None:
        self.compiled = compiled
        self.config = config
        self.pool = pool
        self.runner = BatchRunner(pool)
        self._cache = cache
        self._resolver = ExportResolver(compiled.wasm.exported_functions())

    # -- introspection -----------------------------------------------------

    @property
    def exports(self) -> tuple[str, ...]:
        return self._resolver.exports

    @property
    def diagnostics(self):
        """The compile-time :class:`~repro.api.Diagnostics` of the program."""

        return getattr(self.compiled, "diagnostics", None)

    def stats(self) -> ServiceStats:
        return ServiceStats(
            pool=self.pool.stats,
            cache=dict(self._cache.stats) if self._cache is not None else None,
        )

    def resolve(self, name: str) -> str:
        return self._resolver.resolve(name)

    # -- execution ---------------------------------------------------------

    def call(self, export: str, args: Sequence = (), *, max_steps: Optional[int] = None):
        """One invocation on a pooled instance; returns the result values.

        Traps (including blown step budgets) raise :class:`WasmTrap`; the
        trapped instance is discarded by the pool, so later calls are
        isolated either way.
        """

        with get_tracer().span("service.call", export=export):
            outcome = self.runner.run_one(Request(self.resolve(export), tuple(args), max_steps))
            if not outcome.ok:
                raise WasmTrap(outcome.trap)
            return outcome.values

    def run_one(self, request) -> RequestOutcome:
        """One :class:`Request`/:class:`Session` (or tuple), trap-isolated."""

        if not isinstance(request, (Request, Session)):
            (request,) = _normalize_requests([request])
        return self.runner.run_one(self._resolver.request(request))

    def run(self, requests) -> BatchReport:
        """A batch of requests, each on its own pooled-reset instance."""

        resolved = [self._resolver.request(request) for request in _normalize_requests(requests)]
        with get_tracer().span("service.run", requests=len(resolved)):
            return self.runner.run(resolved)

    def session(self, calls, *, max_steps: Optional[int] = None,
                session_id: Optional[str] = None) -> RequestOutcome:
        """A stateful call script served by one pooled instance.

        ``session_id`` is accepted for parity with
        :meth:`repro.cluster.ClusterService.session` (where it pins the
        session to a worker); in-process there is nothing to pin.
        """

        calls = tuple(calls)
        with get_tracer().span("service.session", calls=len(calls)):
            return self.run_one(
                Session(calls=calls, max_steps=max_steps, session_id=session_id)
            )

    def warm(self, count: int) -> None:
        """Pre-create pooled instances up to ``count`` idle entries."""

        self.pool.warm(count)

    # -- lifecycle ---------------------------------------------------------
    #
    # The in-process service holds no external resources, but it mirrors
    # ClusterService's context-manager surface so call sites stay portable
    # across ``workers=1`` and ``workers=N``.

    def close(self) -> None:
        """Release pooled instances (a no-op beyond dropping references)."""

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
