"""The optimization pass manager.

The lowering compiler (:mod:`repro.lower.compiler`) is deliberately naive:
locals-splitting stores every RichWasm local across a bank of ``i64`` Wasm
locals with conversions at every access, erasure leaves dead shuffles behind,
and boxing spills values through scratch locals.  The passes in this package
clean the emitted :class:`~repro.wasm.ast.WasmModule` up after the fact.

A :class:`FunctionPass` rewrites one function body at a time and reports how
many rewrites it performed; a :class:`ModulePass` rewrites the whole module.
The :class:`PassManager` takes each defined function through the pipeline's
function passes, round after round, until a round changes nothing in that
function (at most :data:`MAX_ROUNDS` rounds), then runs the module passes
once, collecting per-pass statistics along the way.

Function passes are pure functions of the body, so one function's fixpoint
does not depend on any other function, and it is one optimize unit of the
per-function unit cache.  The one shipped module pass, ``deadfuncs``,
computes reachability transitively from the final call graph, so a second
run of it, or another function round after it, would find nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

from ..core.syntax.intern import structural_digest
from ..wasm.ast import WasmFunction, WasmModule


#: The most rounds one function's fixpoint may take.  Every shipped pipeline
#: converges in far fewer; the cap only guarantees termination.
MAX_ROUNDS = 8


@dataclass
class PassStats:
    """Cumulative statistics for one named pass across a manager run.

    ``runs`` counts the function rounds a function pass took part in,
    summed over the functions (a module pass runs once)."""

    name: str
    runs: int = 0
    rewrites: int = 0
    seconds: float = 0.0


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


@dataclass
class OptimizationResult:
    """The outcome of running a pass pipeline over a module."""

    module: WasmModule
    stats: list[PassStats]
    #: The most rounds any one function took to reach its fixpoint.
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
            f" ({self.reduction:.1%} removed, at most {self.iterations} round(s) per function)",
            f"{'pass':<20} {'runs':>6} {'rewrites':>9} {'seconds':>9}",
        ]
        for stats in self.stats:
            lines.append(f"{stats.name:<20} {stats.runs:>6} {stats.rewrites:>9} {stats.seconds:>9.4f}")
        return "\n".join(lines)


class PassManager:
    """Runs each function's passes to its own fixpoint, then the module
    passes once, in their order, wherever the pipeline lists them."""

    def __init__(
        self,
        passes: Optional[Sequence[Union[FunctionPass, ModulePass]]] = None,
        *,
        unit_cache=None,
    ) -> None:
        self.passes: list[Union[FunctionPass, ModulePass]] = (
            list(passes) if passes is not None else default_passes()
        )
        names = [p.name for p in self.passes]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate pass names in pipeline: {names}")
        self.function_passes = tuple(p for p in self.passes if not isinstance(p, ModulePass))
        self.module_passes = tuple(p for p in self.passes if isinstance(p, ModulePass))
        #: The function passes' part of every optimize unit key, digested once.
        self.key_part = structural_digest(tuple(p.name for p in self.function_passes))
        # A repro.compilepipe.FunctionUnitCache: memoizes each function's
        # fixpoint.  Sound because FunctionPasses are pure functions of the
        # body — they receive the module but none of the shipped passes
        # reads it.
        self.unit_cache = unit_cache

    def run(self, module: WasmModule) -> OptimizationResult:
        before = module.instruction_count()
        counts = [0] * len(self.function_passes)
        seconds = [0.0] * len(self.function_passes)
        runs = iterations = 0
        functions = list(module.functions)
        for index, function in enumerate(functions):
            if not isinstance(function, WasmFunction):
                continue
            functions[index], function_counts, rounds = self.run_function(function, module, seconds)
            runs += rounds
            iterations = max(iterations, rounds)
            counts = [total + count for total, count in zip(counts, function_counts)]
        if any(counts):
            module = replace(module, functions=tuple(functions))
        stats = {
            pass_.name: PassStats(pass_.name, runs, rewrites, spent)
            for pass_, rewrites, spent in zip(self.function_passes, counts, seconds)
        }
        for pass_ in self.module_passes:
            started = time.perf_counter()
            module, rewrites = pass_.run_module(module)
            stats[pass_.name] = PassStats(pass_.name, 1, rewrites, time.perf_counter() - started)
        return OptimizationResult(
            module=module,
            stats=[stats[p.name] for p in self.passes],
            iterations=iterations,
            instructions_before=before,
            instructions_after=module.instruction_count(),
        )

    def run_function(self, function: WasmFunction, module: WasmModule,
                     seconds: Optional[list] = None) -> tuple[WasmFunction, tuple[int, ...], int]:
        """``function`` at its fixpoint under the function passes, each
        pass's rewrites summed over the rounds, and the number of rounds
        (the last one changed nothing unless the cap was reached) —
        memoized in the unit cache, when there is one, as one unit.

        ``seconds`` (one slot per function pass) accumulates the time of
        passes that actually ran; a unit hit runs none.
        """

        key = None
        if self.unit_cache is not None:
            key = self.unit_cache.optimize_key(function, self.key_part)
            cached = self.unit_cache.get("optimize", key)
            if cached is not None:
                return cached
        counts = [0] * len(self.function_passes)
        rounds = 0
        changed = True
        while changed and rounds < MAX_ROUNDS:
            rounds += 1
            changed = False
            for position, pass_ in enumerate(self.function_passes):
                started = time.perf_counter()
                rewritten, count = pass_.run(function, module)
                if seconds is not None:
                    seconds[position] += time.perf_counter() - started
                if count:
                    function = rewritten
                    counts[position] += count
                    changed = True
        result = (function, tuple(counts), rounds)
        if self.unit_cache is not None:
            self.unit_cache.put("optimize", key, result)
        return result


def default_passes() -> list[Union[FunctionPass, ModulePass]]:
    """A fresh ``O2`` pipeline (:func:`repro.opt.pipelines.pipeline_passes`)."""

    from .pipelines import pipeline_passes

    return pipeline_passes("O2")


def optimize_module(
    module: WasmModule,
    passes: Optional[Sequence[Union[FunctionPass, ModulePass]]] = None,
    *,
    unit_cache=None,
) -> OptimizationResult:
    """Optimize a lowered module with the ``O2`` (or a custom) pipeline.

    The result is not validated here: the compile pipeline validates the
    module it returns, and every engine validates at instantiation."""

    return PassManager(passes, unit_cache=unit_cache).run(module)
