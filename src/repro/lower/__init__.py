"""The RichWasm → WebAssembly compiler (paper §6).

* :mod:`repro.lower.layout` — type lowering and heap layouts.
* :mod:`repro.lower.runtime` — the emitted free-list allocator.
* :mod:`repro.lower.compiler` — the type-directed instruction/module compiler.
* :func:`lower_module` — the one-call entry point used by examples and tests.
"""

from .compiler import (
    AnnotationStreams,
    LoweredModule,
    LoweringStats,
    ModuleLowering,
    rechecked_functions,
)
from .layout import (
    ArrayLayout,
    FieldSlot,
    PackageLayout,
    StructLayout,
    VariantLayout,
    array_layout,
    heaptype_bytes,
    layout_bytes,
    lower_numtype,
    lower_pretype,
    lower_type,
    lower_types,
    size_to_bytes,
    struct_layout,
    type_bytes,
    variant_layout,
)
from .runtime import BLOCK_HEADER_BYTES, HEAP_BASE, RuntimeLayout, build_free, build_malloc


def lower_module(module, *, config=None, unit_cache=None, annotations=None) -> LoweredModule:
    """Type-check-directed lowering of a RichWasm module to Wasm.

    ``config`` (a :class:`repro.api.CompileConfig`) selects the memory size,
    the optimization level (``opt_level``, whose passes
    :func:`repro.opt.pipelines.pipeline_passes` builds) and the recorded
    engine preference.  When optimization ran, the :class:`LoweredModule`
    carries the :class:`~repro.opt.OptimizationResult` and its ``wasm``
    field is the optimized module: every function at its own fixpoint under
    the level's function passes, then the module passes run once.

    ``unit_cache`` (a :class:`repro.compilepipe.FunctionUnitCache`) threads
    the per-function unit tables through lowering and optimization so
    unchanged functions are reused across module versions; one optimize
    unit holds one function's whole fixpoint.

    ``annotations`` (an :class:`AnnotationStreams`) carries the typing
    facts the linked check recorded for ``module``; the lowering
    type-checks only the functions it has no stream for.
    """

    from ..api.config import CompileConfig

    config = CompileConfig.of(config)
    lowered = ModuleLowering(
        module, memory_pages=config.memory_pages, unit_cache=unit_cache, annotations=annotations
    ).lower()
    lowered.engine = config.engine
    if config.optimize:
        from ..opt import optimize_module

        result = optimize_module(lowered.wasm, config.passes(), unit_cache=unit_cache)
        lowered.wasm = result.module
        lowered.optimization = result
    return lowered


__all__ = [name for name in dir() if not name.startswith("_")]
