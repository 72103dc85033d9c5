"""Batch execution: many independent requests over pooled instances.

:class:`BatchRunner` is the run-many half of the runtime layer: it drives a
stream of :class:`Request`\\ s (export + args, optionally a per-request
``max_steps`` budget) against an :class:`~repro.runtime.InstancePool`.
Each request gets a freshly-reset instance, so requests are isolated from
each other: a trap (including a blown step budget) is recorded on that
request's :class:`RequestOutcome` and the instance's state is discarded by
the pool reset — later requests never observe it.  An engine exception that
is not a trap (e.g. Python's ``RecursionError`` on unbounded Wasm recursion)
is isolated the same way, as an ``internal_error`` outcome.

Per-request budgets are expressed against the engine's *cumulative* counter
(``max_steps = steps_now + budget``), so a budget always means "this many
steps for this request" regardless of what the pooled engine executed
before; the pool reset restores the baseline afterwards.

Every request is observable: :meth:`BatchRunner.run_one` runs under a
``request`` span (child of whatever span is active — a ``service.call``, a
benchmark phase — or a fresh trace), propagating an explicit
``Request.trace_id`` when the caller set one; traps are tagged on the span
and classified into stable :func:`classify_trap` kinds, and per-outcome
counters land in the :func:`repro.obs.default_registry`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..core.typing.errors import WasmError
from ..obs.metrics import default_registry, label_key
from ..obs.trace import get_tracer
from ..wasm.interpreter import WasmTrap, WasmValue
from .pool import InstancePool

_REQUESTS = default_registry().counter(
    "runtime.requests", "BatchRunner requests by outcome (ok/trap)"
)
_TRAPS = default_registry().counter(
    "runtime.traps", "trap-isolated request failures by classified kind"
)
_REQUEST_STEPS = default_registry().histogram(
    "runtime.request_steps", "engine steps consumed per request"
)

#: ``(substring, kind)`` patterns classifying trap messages, first match
#: wins.  Kinds are part of the obs stability contract: they appear as
#: metric labels and span attrs, so renames are schema-level changes.
_TRAP_KIND_PATTERNS = (
    ("step budget exhausted", "step_budget"),
    ("out-of-bounds memory access", "oob_memory"),
    ("unreachable executed", "unreachable"),
    ("out of table bounds", "table_bounds"),
    ("indirect call type mismatch", "call_type_mismatch"),
    ("division by zero", "div_by_zero"),
    ("remainder by zero", "rem_by_zero"),
    ("float-to-int conversion", "invalid_conversion"),
    ("conversion of NaN/inf", "invalid_conversion"),
    ("integer overflow", "int_overflow"),
    ("module has no memory", "no_memory"),
    ("branch escaped function body", "branch_escaped"),
)


# Label keys prebuilt once (``Counter.inc_key``): one per outcome and one
# per trap kind, including the two kinds no pattern yields.
_OUTCOME_KEYS = {True: label_key({"outcome": "ok"}), False: label_key({"outcome": "trap"})}
_TRAP_KEYS = {
    kind: label_key({"kind": kind})
    for kind in {pattern_kind for _, pattern_kind in _TRAP_KIND_PATTERNS} | {"other", "internal_error"}
}


def classify_trap(message: str) -> str:
    """Map a trap message onto its stable kind (``"other"`` when novel).

    Trap isolation stores only the message on the outcome; metric labels and
    span tags need a low-cardinality category, which is what these kinds
    are.
    """

    for needle, kind in _TRAP_KIND_PATTERNS:
        if needle in message:
            return kind
    return "other"


@dataclass(frozen=True)
class Request:
    """One invocation: an export name, its arguments, an optional budget.

    ``trace_id`` optionally pins the request's span to a caller-assigned
    trace (e.g. an id minted at an upstream process boundary); left ``None``,
    the span inherits the ambient trace or starts a fresh one.
    """

    export: str
    args: tuple = ()
    max_steps: Optional[int] = None
    trace_id: Optional[str] = None


@dataclass(frozen=True)
class Session:
    """A stateful request: a whole call script served by *one* pooled
    instance under one budget (e.g. Fig. 9's init → tick* → total).

    ``session_id`` identifies the session for sticky routing: the
    :class:`repro.cluster.Dispatcher` hashes it so every session with the
    same id lands on the same worker process.  In-process execution ignores
    it (one pool, no routing).
    """

    calls: tuple = ()  # of (export, args)
    max_steps: Optional[int] = None
    trace_id: Optional[str] = None
    session_id: Optional[str] = None

    @property
    def export(self) -> str:  # uniform display with Request
        return f"<session:{len(self.calls)} calls>"

    @property
    def args(self) -> tuple:
        return ()


@dataclass(frozen=True, init=False)
class RequestOutcome:
    """What one request observed: results or a trap, and its step cost.

    ``trap_kind`` is the :func:`classify_trap` category of ``trap`` (``None``
    on success) — the structured field metric labels and dashboards key on,
    where the free-text message is for humans.  ``trace_id`` is the trace the
    request's span ran under (the request's own when set, else the span's;
    ``None`` only when tracing is disabled and the request carried no id).
    """

    request: Request
    ok: bool
    values: Optional[list[WasmValue]]
    trap: Optional[str]
    steps: int
    trap_kind: Optional[str] = None
    trace_id: Optional[str] = None

    def __init__(self, request: Request, ok: bool, values: Optional[list[WasmValue]],
                 trap: Optional[str], steps: int, trap_kind: Optional[str] = None,
                 trace_id: Optional[str] = None) -> None:
        # One dict update, not the frozen dataclass's object.__setattr__ per
        # field: an outcome is built for every request, twice per cluster
        # request (worker and parent).  Assignment still raises.
        self.__dict__.update(request=request, ok=ok, values=values, trap=trap, steps=steps,
                             trap_kind=trap_kind, trace_id=trace_id)


@dataclass
class BatchReport:
    """Aggregate statistics over one :meth:`BatchRunner.run`."""

    outcomes: list[RequestOutcome] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def requests(self) -> int:
        return len(self.outcomes)

    @property
    def ok_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def trap_count(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def total_steps(self) -> int:
        return sum(outcome.steps for outcome in self.outcomes)

    def trap_kinds(self) -> dict[str, int]:
        """Trapped-request counts by :func:`classify_trap` kind."""

        kinds: dict[str, int] = {}
        for outcome in self.outcomes:
            if not outcome.ok and outcome.trap_kind is not None:
                kinds[outcome.trap_kind] = kinds.get(outcome.trap_kind, 0) + 1
        return kinds

    @property
    def requests_per_sec(self) -> Optional[float]:
        return self.requests / self.wall_s if self.wall_s else None

    def traps(self) -> list[RequestOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def format_report(self) -> str:
        lines = [
            f"batch: {self.requests} request(s), {self.ok_count} ok, {self.trap_count} trapped, "
            f"{self.total_steps} steps in {self.wall_s:.4f}s"
            + (f" ({self.requests_per_sec:,.0f} req/s)" if self.requests_per_sec else "")
        ]
        for outcome in self.traps():
            kind = f" [{outcome.trap_kind}]" if outcome.trap_kind else ""
            lines.append(f"  TRAP {outcome.request.export}{outcome.request.args!r}{kind}: {outcome.trap}")
        return "\n".join(lines)


def _normalize_requests(requests: Sequence[Union[Request, "Session", tuple]]) -> list:
    normalized = []
    for request in requests:
        if isinstance(request, (Request, Session)):
            normalized.append(request)
        else:
            export, args = request[0], tuple(request[1]) if len(request) > 1 else ()
            budget = request[2] if len(request) > 2 else None
            normalized.append(Request(export, args, budget))
    return normalized


class BatchRunner:
    """Drives request batches over an instance pool with trap isolation."""

    def __init__(self, pool: InstancePool) -> None:
        self.pool = pool

    def run_one(self, request: Union[Request, Session, tuple]) -> RequestOutcome:
        if not isinstance(request, (Request, Session)):
            (request,) = _normalize_requests([request])
        tracer = get_tracer()
        # A session's ``export`` is a formatted display string: build it
        # only for a tracer that records it.
        export = request.export if tracer.enabled else None
        with tracer.span("request", trace_id=request.trace_id, export=export) as span:
            entry = self.pool.acquire()
            try:
                engine = entry.engine
                before = engine.steps
                if request.max_steps is not None:
                    budget = before + request.max_steps
                    engine.max_steps = budget if engine.max_steps is None else min(engine.max_steps, budget)
                    span.set_attr(budget=request.max_steps)
                trace_id = span.trace_id or request.trace_id
                failure = None
                try:
                    if isinstance(request, Session):
                        invoke = entry.invoke
                        values = [invoke(export, args) for export, args in request.calls]
                    else:
                        values = entry.invoke(request.export, request.args)
                except WasmTrap as trap:
                    failure = str(trap), classify_trap(str(trap))
                except WasmError:
                    raise  # a caller error (e.g. an unknown export), not a failed execution
                except Exception as exc:
                    # An engine failure that is not a trap, such as Python's
                    # RecursionError on deep Wasm recursion: isolate it like
                    # a trap so later requests on this pool still run.
                    failure = f"internal error: {type(exc).__name__}: {exc}", "internal_error"
                steps = engine.steps - before
                if failure is None:
                    outcome = RequestOutcome(request, True, values, None, steps, trace_id=trace_id)
                else:
                    message, kind = failure
                    span.set_trap(message, kind=kind)
                    _TRAPS.inc_key(_TRAP_KEYS[kind])
                    outcome = RequestOutcome(
                        request, False, None, message, steps, trap_kind=kind, trace_id=trace_id
                    )
                _REQUESTS.inc_key(_OUTCOME_KEYS[outcome.ok])
                _REQUEST_STEPS.observe(outcome.steps)
                span.set_attr(steps=outcome.steps, ok=outcome.ok)
                return outcome
            finally:
                self.pool.release(entry)

    def run(self, requests: Sequence[Union[Request, tuple]]) -> BatchReport:
        """Execute every request on its own pooled-reset instance."""

        report = BatchReport()
        start = time.perf_counter()
        for request in _normalize_requests(requests):
            report.outcomes.append(self.run_one(request))
        report.wall_s = time.perf_counter() - start
        return report
