"""The optimization pass manager.

The lowering compiler (:mod:`repro.lower.compiler`) is deliberately naive:
locals-splitting stores every RichWasm local across a bank of ``i64`` Wasm
locals with conversions at every access, erasure leaves dead shuffles behind,
and boxing spills values through scratch locals.  The passes in this package
clean the emitted :class:`~repro.wasm.ast.WasmModule` up after the fact.

A :class:`FunctionPass` rewrites one function body at a time and reports how
many rewrites it performed.  The :class:`PassManager` runs a named, ordered,
re-runnable pipeline of passes over every defined function of a module until
a fixpoint (or an iteration budget) is reached, collecting per-pass
statistics along the way.

Each round runs the pipeline as :class:`FunctionPassSegment` objects — the
maximal runs of consecutive function passes between module passes — and
runs each segment function by function.  Function passes are pure
functions of the body, so this yields exactly the module a pass-by-pass
sweep would, and one segment run is one optimize unit of the per-function
unit cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from ..core.syntax.intern import structural_digest
from ..wasm.ast import WasmFunction, WasmModule


@dataclass
class PassStats:
    """Cumulative statistics for one named pass across a manager run."""

    name: str
    runs: int = 0
    rewrites: int = 0
    seconds: float = 0.0

    def merge_run(self, rewrites: int, seconds: float) -> None:
        self.runs += 1
        self.rewrites += rewrites
        self.seconds += seconds


class FunctionPass:
    """Base class for function-at-a-time rewrites.

    Subclasses implement :meth:`run` and return the rewritten function plus
    the number of rewrites applied (0 means "already at fixpoint here").
    """

    name: str = "pass"

    def run(self, function: WasmFunction, module: WasmModule) -> tuple[WasmFunction, int]:
        raise NotImplementedError


class ModulePass:
    """Base class for whole-module rewrites (e.g. dead-function analysis)."""

    name: str = "module-pass"

    def run_module(self, module: WasmModule) -> tuple[WasmModule, int]:
        raise NotImplementedError


class FunctionPassSegment:
    """A maximal run of consecutive :class:`FunctionPass` objects.

    :meth:`run` applies the whole run to one function and is the single
    optimize-unit path the :class:`PassManager` calls.
    """

    def __init__(self, passes: Sequence[FunctionPass]) -> None:
        self.passes = tuple(passes)
        #: The segment's part of every optimize unit key, digested once.
        self.key_part = structural_digest(tuple(p.name for p in self.passes))

    def unit_key(self, unit_cache, function: WasmFunction) -> str:
        return unit_cache.optimize_key(function, self.key_part)

    def run(self, function: WasmFunction, module: WasmModule, unit_cache=None,
            seconds: Optional[list] = None) -> tuple[WasmFunction, tuple[int, ...]]:
        """``function`` after every pass of the segment, plus each pass's
        rewrite count, memoized in ``unit_cache`` (when given) as one unit.

        ``seconds`` (one slot per pass) accumulates the time of passes that
        actually ran; a unit hit runs none.
        """

        key = None
        if unit_cache is not None:
            key = self.unit_key(unit_cache, function)
            cached = unit_cache.get("optimize", key)
            if cached is not None:
                return cached
        counts = []
        for position, pass_ in enumerate(self.passes):
            started = time.perf_counter()
            rewritten, count = pass_.run(function, module)
            if seconds is not None:
                seconds[position] += time.perf_counter() - started
            if count:
                function = rewritten
            counts.append(count)
        result = (function, tuple(counts))
        if unit_cache is not None:
            unit_cache.put("optimize", key, result)
        return result


def split_segments(
    passes: Sequence[Union[FunctionPass, ModulePass]],
) -> list[Union[FunctionPassSegment, ModulePass]]:
    """``passes`` with each maximal run of function passes grouped into one
    :class:`FunctionPassSegment` (module passes stay as they are)."""

    segments: list[Union[FunctionPassSegment, ModulePass]] = []
    run: list[FunctionPass] = []
    for pass_ in passes:
        if isinstance(pass_, ModulePass):
            if run:
                segments.append(FunctionPassSegment(run))
                run = []
            segments.append(pass_)
        else:
            run.append(pass_)
    if run:
        segments.append(FunctionPassSegment(run))
    return segments


@dataclass
class OptimizationResult:
    """The outcome of running a pass pipeline over a module."""

    module: WasmModule
    stats: list[PassStats]
    iterations: int
    instructions_before: int
    instructions_after: int

    @property
    def instructions_removed(self) -> int:
        return self.instructions_before - self.instructions_after

    @property
    def reduction(self) -> float:
        """Fraction of instructions removed (0.0 when the module was empty)."""

        if self.instructions_before == 0:
            return 0.0
        return self.instructions_removed / self.instructions_before

    def format_report(self) -> str:
        lines = [
            f"optimization: {self.instructions_before} -> {self.instructions_after} instructions"
            f" ({self.reduction:.1%} removed, {self.iterations} iteration(s))",
            f"{'pass':<20} {'runs':>6} {'rewrites':>9} {'seconds':>9}",
        ]
        for stats in self.stats:
            lines.append(f"{stats.name:<20} {stats.runs:>6} {stats.rewrites:>9} {stats.seconds:>9.4f}")
        return "\n".join(lines)


class PassManager:
    """Runs an ordered pipeline of function passes to a fixpoint."""

    def __init__(
        self,
        passes: Optional[Sequence[Union[FunctionPass, ModulePass]]] = None,
        *,
        max_iterations: int = 8,
        validate: bool = True,
        unit_cache=None,
    ) -> None:
        self.passes: list[Union[FunctionPass, ModulePass]] = (
            list(passes) if passes is not None else default_passes()
        )
        self.max_iterations = max_iterations
        self.validate = validate
        # A repro.compilepipe.FunctionUnitCache: memoizes each (segment,
        # function version) round.  Sound because FunctionPasses are pure
        # functions of the body — they receive the module but none of the
        # shipped passes reads it.
        self.unit_cache = unit_cache
        names = [p.name for p in self.passes]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate pass names in pipeline: {names}")
        self.segments = split_segments(self.passes)

    def run(self, module: WasmModule) -> OptimizationResult:
        stats = {p.name: PassStats(p.name) for p in self.passes}
        before = module.instruction_count()
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            module, rewrites = self._run_pipeline_once(module, stats)
            if rewrites == 0:
                break
        if self.validate:
            from ..wasm.validation import validate_module

            validate_module(module, unit_cache=self.unit_cache)
        return OptimizationResult(
            module=module,
            stats=list(stats.values()),
            iterations=iterations,
            instructions_before=before,
            instructions_after=module.instruction_count(),
        )

    def _run_pipeline_once(self, module: WasmModule, stats: dict[str, PassStats]) -> tuple[WasmModule, int]:
        total_rewrites = 0
        for segment in self.segments:
            if isinstance(segment, ModulePass):
                started = time.perf_counter()
                module, rewrites = segment.run_module(module)
                stats[segment.name].merge_run(rewrites, time.perf_counter() - started)
                total_rewrites += rewrites
                continue
            counts = [0] * len(segment.passes)
            seconds = [0.0] * len(segment.passes)
            functions = list(module.functions)
            changed = False
            for index, function in enumerate(functions):
                if not isinstance(function, WasmFunction):
                    continue
                rewritten, function_counts = segment.run(
                    function, module, self.unit_cache, seconds
                )
                if any(function_counts):
                    functions[index] = rewritten
                    changed = True
                for position, count in enumerate(function_counts):
                    counts[position] += count
            if changed:
                module = replace(module, functions=tuple(functions))
            for pass_, rewrites, spent in zip(segment.passes, counts, seconds):
                stats[pass_.name].merge_run(rewrites, spent)
                total_rewrites += rewrites
        return module, total_rewrites


def default_passes() -> list[Union[FunctionPass, ModulePass]]:
    """The default pipeline, in dependency order.

    Unreachable-code removal first (cheap, exposes dead locals), block
    flattening (merges sequences, exposing matches to everything after it),
    then local coalescing (rewrites the i64 local banks, removing the
    per-access conversions locals-splitting inserts), copy propagation (kills
    the prologue's parameter-to-bank copies once coalescing made them
    same-typed), constant folding, the peephole pass (which fuses the
    ``local.set``/``local.get`` round-trips the other passes expose),
    dead-local pruning to drop the storage the earlier passes orphaned, and
    finally dead-function stubbing at module scope.
    """

    from .coalesce import LocalCoalescingPass
    from .constfold import ConstantFoldingPass
    from .copyprop import CopyPropagationPass
    from .dce import DeadCodeEliminationPass, UnusedLocalPass
    from .deadfuncs import DeadFunctionPass
    from .flatten import BlockFlatteningPass
    from .peephole import PeepholePass

    return [
        DeadCodeEliminationPass(),
        BlockFlatteningPass(),
        LocalCoalescingPass(),
        CopyPropagationPass(),
        ConstantFoldingPass(),
        PeepholePass(),
        UnusedLocalPass(),
        DeadFunctionPass(),
    ]


def optimize_module(
    module: WasmModule,
    passes: Optional[Sequence[FunctionPass]] = None,
    *,
    max_iterations: int = 8,
    validate: bool = True,
    unit_cache=None,
) -> OptimizationResult:
    """Optimize a lowered module with the default (or a custom) pipeline."""

    return PassManager(
        passes, max_iterations=max_iterations, validate=validate, unit_cache=unit_cache
    ).run(module)
