"""Instance pooling: recycle Wasm instances instead of re-instantiating.

Instantiation re-runs data segments, constant expressions, the ``start``
function and any ``_init`` exports on every request.  A pooled instance is
built once, its post-initialization state captured as an
:class:`InstanceImage`, and every release *resets* the live runtime state —
memory bytes (shrinking a grown memory back), globals, table, function slots
and the engine's step counters — to that image in place.

Reset is required to be observationally equivalent to a fresh instantiate:
results, trap messages, final memory, globals and cumulative ``steps`` of a
pooled-reset instance must be bit-identical to a fresh instance's on both
engines.  :func:`repro.opt.run_pool_reset_cross_check` enforces exactly
that, and the ``tests/runtime`` suite runs it in CI.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..obs.metrics import default_registry
from ..wasm.ast import WasmModule
from ..wasm.engine import ExecutionEngine, unknown_export
from ..wasm.interpreter import HostFunction, WasmInstance, WasmInterpreter, WasmValue

# Process-wide pool telemetry (every pool in the process accumulates here;
# the per-pool view stays on ``InstancePool.stats``).
_POOL_INSTANTIATIONS = default_registry().counter(
    "runtime.pool.instantiations", "fresh instances built by instance pools"
)
_POOL_RESETS = default_registry().counter(
    "runtime.pool.resets", "successful in-place instance resets"
)
_POOL_RESET_FAILURES = default_registry().counter(
    "runtime.pool.reset_failures", "resets that failed (instance discarded)"
)
_POOL_DISCARDS = default_registry().counter(
    "runtime.pool.discards", "instances dropped (failed reset or over capacity)"
)


@dataclass(frozen=True)
class InstanceImage:
    """The reset target: an instance's state right after initialization."""

    memory: Optional[bytes]
    globals: tuple
    table: tuple
    funcs: tuple
    steps: int
    max_steps: Optional[int]

    @classmethod
    def capture(cls, interpreter: WasmInterpreter, instance: WasmInstance) -> "InstanceImage":
        return cls(
            memory=bytes(instance.memory.data) if instance.memory is not None else None,
            globals=tuple(instance.globals),
            table=tuple(instance.table),
            funcs=tuple(instance.funcs),
            steps=interpreter.steps,
            max_steps=interpreter.max_steps,
        )


class PooledInstance:
    """One pooled ``(interpreter, instance)`` pair plus its reset image.

    The entry binds its interpreter's engine once, so :meth:`invoke` looks
    the export up itself and goes straight to the engine's
    :meth:`~repro.wasm.engine.ExecutionEngine.invoke_index`.
    """

    __slots__ = ("interpreter", "engine", "instance", "image", "funcs_version", "generation")

    def __init__(self, interpreter: WasmInterpreter, instance: WasmInstance, image: InstanceImage):
        self.interpreter = interpreter
        self.engine = interpreter.engine
        self.instance = instance
        self.image = image
        self.funcs_version = instance.funcs.version
        self.generation = 0

    @property
    def steps(self) -> int:
        return self.engine.steps

    def invoke(self, export: str, args: Sequence[WasmValue] = ()) -> list[WasmValue]:
        instance = self.instance
        try:
            index = instance.exports[export]
        except KeyError:
            raise unknown_export(export) from None
        return self.engine.invoke_index(instance, index, args)

    def reset(self) -> None:
        """Restore the post-initialization image in place.

        Memory resets through :meth:`~repro.wasm.LinearMemory.reset`, which
        preserves identity: a memory of the image's size takes one copy of
        the whole image through its cached view, and a grown one shrinks back
        by the resizing path.  Globals and table reset through
        slice assignment, function slots the same way but only when the
        request changed them (their ``version`` moved), and the engine's
        ``steps``/``max_steps`` go back to their captured values — so the
        next invocation observes exactly what it would on a fresh instance.
        """

        instance, image = self.instance, self.image
        if instance.memory is not None:
            instance.memory.reset(image.memory)
        instance.globals[:] = image.globals
        instance.table[:] = image.table
        funcs = instance.funcs
        if funcs.version != self.funcs_version:
            funcs[:] = image.funcs
            self.funcs_version = funcs.version
        engine = self.engine
        engine.steps = image.steps
        engine.max_steps = image.max_steps
        self.generation += 1


@dataclass
class PoolStats:
    created: int = 0
    acquired: int = 0
    released: int = 0
    resets: int = 0
    reset_failures: int = 0
    discarded: int = 0

    @property
    def reuses(self) -> int:
        return self.acquired - self.created


class InstancePool:
    """A pool of reusable instances of one Wasm module.

    ``setup`` (``setup(interpreter, instance)``) runs once per fresh
    instance, after instantiation and before the image capture — the place
    for ``_init`` exports or host-driven warm-up whose effects should be part
    of the pooled baseline.  ``host_imports`` may be a dict (shared — only
    safe for stateless hosts) or a zero-argument factory called once per
    fresh instance.

    Passing an :class:`~repro.wasm.engine.ExecutionEngine` *instance* as
    ``engine`` is rejected: pooled entries each need their own engine, or
    their step budgets would pollute each other.
    """

    def __init__(
        self,
        module: WasmModule,
        *,
        engine: Optional[str] = None,
        max_steps: Optional[int] = None,
        host_imports=None,
        setup: Optional[Callable[[WasmInterpreter, WasmInstance], None]] = None,
        max_size: int = 4,
    ) -> None:
        if isinstance(engine, ExecutionEngine):
            raise TypeError(
                "InstancePool needs an engine *name* (or None); a shared engine "
                "instance would pool step counters across pooled instances"
            )
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {max_size}")
        self.module = module
        self.engine = engine
        self.max_steps = max_steps
        self._host_imports = host_imports
        self._setup = setup
        self.max_size = max_size
        self._free: list[PooledInstance] = []
        self._in_use = 0
        self.stats = PoolStats()

    # -- lifecycle ---------------------------------------------------------

    def _resolve_hosts(self) -> Optional[dict[tuple[str, str], HostFunction]]:
        hosts = self._host_imports
        if hosts is None or isinstance(hosts, dict):
            return hosts
        return hosts()

    def _fresh(self) -> PooledInstance:
        interpreter = WasmInterpreter(max_steps=self.max_steps, engine=self.engine)
        instance = interpreter.instantiate(self.module, self._resolve_hosts())
        if self._setup is not None:
            self._setup(interpreter, instance)
        image = InstanceImage.capture(interpreter, instance)
        self.stats.created += 1
        _POOL_INSTANTIATIONS.inc()
        return PooledInstance(interpreter, instance, image)

    def acquire(self) -> PooledInstance:
        """Take an instance — a recycled one when available, else fresh."""

        entry = self._free.pop() if self._free else self._fresh()
        self._in_use += 1
        self.stats.acquired += 1
        return entry

    def release(self, entry: PooledInstance) -> None:
        """Reset ``entry`` and return it to the pool (or discard at capacity).

        A failed reset (e.g. a host function kept a zero-copy memory view
        alive past its call, so the resizing restore raises ``BufferError``)
        never propagates: the un-resettable instance is discarded — the next
        acquire builds a fresh one — and counted in ``stats.reset_failures``.
        Callers releasing in a ``finally`` (the batch runner) therefore keep
        their request outcome, and isolation holds either way: the broken
        instance is gone.
        """

        self._in_use -= 1
        self.stats.released += 1
        try:
            entry.reset()
        except Exception:
            self.stats.reset_failures += 1
            self.stats.discarded += 1
            _POOL_RESET_FAILURES.inc()
            _POOL_DISCARDS.inc()
            return
        self.stats.resets += 1
        _POOL_RESETS.inc()
        if len(self._free) < self.max_size:
            self._free.append(entry)
        else:
            self.stats.discarded += 1
            _POOL_DISCARDS.inc()

    @contextmanager
    def instance(self):
        """``with pool.instance() as entry: entry.invoke(...)``"""

        entry = self.acquire()
        try:
            yield entry
        finally:
            self.release(entry)

    # -- introspection -----------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._free) + self._in_use

    @property
    def idle(self) -> int:
        return len(self._free)

    def warm(self, count: int) -> None:
        """Pre-create instances up to ``count`` idle entries."""

        while len(self._free) < min(count, self.max_size):
            self._free.append(self._fresh())
