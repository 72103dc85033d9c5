"""Differential verification of optimized modules and execution engines.

The evidence standing in for a translation-validation proof: run an optimized
module and its unoptimized twin side by side in
:class:`~repro.wasm.interpreter.WasmInterpreter` — same exports, same
arguments, in the same order on one shared pair of instances — and require
identical observable behaviour: results (bit-exact, NaN-aware), traps, and
optionally the final linear memory and globals.

The same machinery doubles as the engine cross-check: with the execution
engine now pluggable (:mod:`repro.wasm.engine`), ``engine=`` pins both runs
to one engine, and :func:`run_engine_cross_check` replays one module on
every registered engine (tree-walker, flat VM, and the compiled tier by
default) and requires all of them to agree on every observation — including
the cumulative step count, so ``max_steps`` budgets trap at the same
instruction on any engine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from ..wasm.ast import WasmModule
from ..wasm.interpreter import HostFunction, WasmInterpreter, WasmTrap, WasmValue

HostImports = dict[tuple[str, str], HostFunction]
HostImportFactory = Callable[[], HostImports]


@dataclass(frozen=True)
class Invocation:
    """One export call to replay on both modules."""

    export: str
    args: tuple[WasmValue, ...] = ()


@dataclass(frozen=True)
class CallOutcome:
    export: str
    args: tuple[WasmValue, ...]
    baseline: Union[list[WasmValue], str]  # results, or the trap message
    candidate: Union[list[WasmValue], str]
    matches: bool


@dataclass
class DifferentialReport:
    outcomes: list[CallOutcome] = field(default_factory=list)
    state_matches: bool = True
    steps_match: bool = True
    baseline_steps: int = 0
    candidate_steps: int = 0

    @property
    def ok(self) -> bool:
        return self.state_matches and self.steps_match and all(outcome.matches for outcome in self.outcomes)

    def mismatches(self) -> list[CallOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.matches]

    def format_report(self) -> str:
        lines = [f"differential check: {len(self.outcomes)} call(s), ok={self.ok}"]
        for outcome in self.mismatches():
            lines.append(
                f"  MISMATCH {outcome.export}{outcome.args!r}: "
                f"baseline={outcome.baseline!r} candidate={outcome.candidate!r}"
            )
        if not self.state_matches:
            lines.append("  MISMATCH in final memory/global state")
        if not self.steps_match:
            lines.append(
                f"  MISMATCH in step counts: baseline={self.baseline_steps} candidate={self.candidate_steps}"
            )
        return "\n".join(lines)


def _values_equal(a: Sequence[WasmValue], b: Sequence[WasmValue]) -> bool:
    """Bit-exact comparison: floats by their f64 bit pattern, so NaN payloads
    and signed zeros must agree; an int/float type divergence is a mismatch."""

    if len(a) != len(b):
        return False
    for left, right in zip(a, b):
        if isinstance(left, float) != isinstance(right, float):
            return False
        if isinstance(left, float):
            if struct.pack("<d", left) != struct.pack("<d", right):
                return False
        elif left != right:
            return False
    return True


def _resolve_hosts(host_imports: Union[HostImports, HostImportFactory, None]) -> HostImports:
    if host_imports is None:
        return {}
    if callable(host_imports):
        return host_imports()
    return host_imports


def _compare_runs(
    runs: Sequence[tuple[WasmInterpreter, object]],
    calls: Sequence[Invocation],
    *,
    compare_state: bool,
    compare_steps: bool = False,
) -> DifferentialReport:
    """Replay ``calls`` in lockstep on ``runs`` (``(interpreter, instance)``
    pairs) and compare every run after the first against the first."""

    report = DifferentialReport()
    for call in calls:
        outcomes: list[Union[list[WasmValue], str]] = []
        for interp, instance in runs:
            try:
                outcomes.append(interp.invoke(instance, call.export, list(call.args)))
            except WasmTrap as trap:
                outcomes.append(f"trap: {trap}")
        baseline = outcomes[0]
        for candidate in outcomes[1:]:
            if isinstance(baseline, str) or isinstance(candidate, str):
                matches = baseline == candidate  # both must trap, same reason
            else:
                matches = _values_equal(baseline, candidate)
            report.outcomes.append(CallOutcome(call.export, call.args, baseline, candidate, matches))

    if compare_state:
        instances = [instance for _, instance in runs]
        memories = [bytes(inst.memory.data) if inst.memory else b"" for inst in instances]
        report.state_matches = all(memory == memories[0] for memory in memories) and all(
            _values_equal(inst.globals, instances[0].globals) for inst in instances
        )
    report.baseline_steps = runs[0][0].steps
    report.candidate_steps = runs[-1][0].steps
    if compare_steps:
        report.steps_match = len({interp.steps for interp, _ in runs}) == 1
    return report


def _normalize_calls(calls: Sequence[Union[Invocation, tuple]]) -> list[Invocation]:
    return [call if isinstance(call, Invocation) else Invocation(call[0], tuple(call[1])) for call in calls]


def _fresh_engine_spec(engine, max_steps: Optional[int]):
    """Make an engine spec safe to use for two independent runs.

    Passing one :class:`~repro.wasm.engine.ExecutionEngine` *instance* would
    share its cumulative ``steps`` counter (and ``max_steps`` budget) between
    the baseline and candidate runs — a self-comparison could then diverge.
    Resolve instances to their registry name (inheriting the instance's
    ``max_steps`` unless overridden) so each side gets a fresh engine of the
    same kind.
    """

    from ..wasm.engine import ExecutionEngine

    if isinstance(engine, ExecutionEngine):
        return engine.name, max_steps if max_steps is not None else engine.max_steps
    return engine, max_steps


def run_differential(
    baseline: WasmModule,
    candidate: WasmModule,
    calls: Sequence[Union[Invocation, tuple]],
    *,
    host_imports: Union[HostImports, HostImportFactory, None] = None,
    compare_state: bool = True,
    max_steps: Optional[int] = None,
    engine=None,
) -> DifferentialReport:
    """Replay ``calls`` on both modules and compare every observation.

    ``host_imports`` may be a dict (shared by both runs — fine for stateless
    hosts) or a zero-argument factory called once per module so stateful
    hosts do not leak observations across the two runs.  ``engine`` pins both
    runs to one execution engine (name or instance spec accepted by
    :func:`repro.wasm.create_engine`); ``None`` uses the default (flat VM).
    """

    engine, max_steps = _fresh_engine_spec(engine, max_steps)
    runs = []
    for module in (baseline, candidate):
        interp = WasmInterpreter(max_steps=max_steps, engine=engine)
        runs.append((interp, interp.instantiate(module, _resolve_hosts(host_imports))))
    return _compare_runs(runs, _normalize_calls(calls), compare_state=compare_state)


def run_engine_cross_check(
    module: WasmModule,
    calls: Sequence[Union[Invocation, tuple]],
    *,
    engines: tuple = ("tree", "flat", "compiled"),
    host_imports: Union[HostImports, HostImportFactory, None] = None,
    compare_state: bool = True,
    compare_steps: bool = True,
    max_steps: Optional[int] = None,
) -> DifferentialReport:
    """Replay one module on every listed engine and require agreement.

    The cross-check mode of the differential harness: the first engine (the
    tree-walker by default) is the baseline and every other engine is a
    candidate compared against it, call by call in lockstep.  Results,
    traps, final memory, globals, and — unlike the module-vs-module check —
    the cumulative step counters must all match across every engine, so
    ``repro.analysis`` step deltas stay engine-independent.  The report
    carries one :class:`CallOutcome` per (call, candidate engine) pair.
    """

    runs = []
    for engine in engines:
        name, steps = _fresh_engine_spec(engine, max_steps)
        interp = WasmInterpreter(max_steps=steps, engine=name)
        runs.append((interp, interp.instantiate(module, _resolve_hosts(host_imports))))
    return _compare_runs(
        runs, _normalize_calls(calls), compare_state=compare_state, compare_steps=compare_steps
    )


def run_pool_reset_cross_check(
    module: WasmModule,
    calls: Sequence[Union[Invocation, tuple]],
    *,
    engines: tuple = ("tree", "flat", "compiled"),
    host_imports: Union[HostImports, HostImportFactory, None] = None,
    compare_state: bool = True,
    max_steps: Optional[int] = None,
    warmup: Optional[Sequence[Union[Invocation, tuple]]] = None,
    setup=None,
) -> dict[str, DifferentialReport]:
    """Require a pooled-reset instance to be bit-identical to a fresh one.

    The correctness contract of :class:`repro.runtime.InstancePool`: for each
    engine, instantiate a *fresh* baseline and compare it against a pooled
    instance that already served a previous run (``warmup``, defaulting to
    the same call script) and was recycled by the pool's reset.  Results,
    traps, final memory, globals and the cumulative ``steps`` counter must
    all agree — a reset that leaked any state (a grown memory, a dirty
    global, a stale step counter) fails here.

    ``setup`` (``setup(interpreter, instance)``) runs on the fresh baseline
    and on every pooled instance before its image capture — pass
    :func:`repro.runtime.run_initializers_setup` for linked FFI programs.
    ``host_imports`` should be a factory when the hosts are stateful, so the
    baseline, the warm-up and the pooled run cannot observe each other.
    Returns one report per engine name.
    """

    from ..runtime.pool import InstancePool

    normalized_calls = _normalize_calls(calls)
    warmup_calls = _normalize_calls(warmup) if warmup is not None else normalized_calls

    reports: dict[str, DifferentialReport] = {}
    for engine in engines:
        engine_name, engine_steps = _fresh_engine_spec(engine, max_steps)

        baseline_interp = WasmInterpreter(max_steps=engine_steps, engine=engine_name)
        baseline_instance = baseline_interp.instantiate(module, _resolve_hosts(host_imports))
        if setup is not None:
            setup(baseline_interp, baseline_instance)

        pool = InstancePool(
            module,
            engine=engine_name,
            max_steps=engine_steps,
            host_imports=host_imports,
            setup=setup,
        )
        entry = pool.acquire()
        for call in warmup_calls:  # dirty the instance: memory, globals, steps
            try:
                entry.invoke(call.export, list(call.args))
            except WasmTrap:
                pass
        pool.release(entry)
        recycled = pool.acquire()

        report = _compare_runs(
            [(baseline_interp, baseline_instance), (recycled.interpreter, recycled.instance)],
            normalized_calls,
            compare_state=compare_state,
            compare_steps=True,
        )
        pool.release(recycled)
        reports[recycled.interpreter.engine_name] = report
    return reports


def verify_optimization(
    module: WasmModule,
    optimized: WasmModule,
    calls: Sequence[Union[Invocation, tuple]],
    **kwargs,
) -> DifferentialReport:
    """Alias of :func:`run_differential` with the argument roles spelled out."""

    return run_differential(module, optimized, calls, **kwargs)
