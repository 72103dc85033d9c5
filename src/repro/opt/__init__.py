"""Wasm optimization passes over lowered RichWasm modules (post §6).

The lowering compiler is deliberately naive — uniform ``i64`` local banks,
conversion-bracketed local accesses, dead shuffles left by erasure.  This
package cleans its output up:

* :mod:`repro.opt.manager` — :class:`PassManager`: named, ordered,
  re-runnable passes with per-pass statistics.
* :mod:`repro.opt.dce` — unreachable-code removal and dead-local pruning.
* :mod:`repro.opt.coalesce` — collapses the i64 local banks produced by
  locals-splitting.
* :mod:`repro.opt.constfold` — constant folding via the shared numeric
  semantics (:mod:`repro.core.semantics.numerics`).
* :mod:`repro.opt.peephole` — spill/reload and conversion-pair fusion.
* :mod:`repro.opt.pipelines` — the named ``O0``/``O1``/``O2`` levels
  consumed by :class:`repro.api.CompileConfig`.
* :mod:`repro.opt.verify` — the differential harness executing optimized and
  unoptimized twins side by side and requiring identical behaviour.

Entry points: :func:`optimize_module` for a lowered
:class:`~repro.wasm.ast.WasmModule`, or pass ``optimize=True`` to
:func:`repro.lower.lower_module`, :func:`repro.ml.compile_ml_module`,
:func:`repro.l3.compile_l3_module`, or the FFI ``Program`` execution path.
"""

from .coalesce import LocalCoalescingPass
from .constfold import ConstantFoldingPass
from .copyprop import CopyPropagationPass
from .dce import DeadCodeEliminationPass, UnusedLocalPass
from .deadfuncs import DeadFunctionPass, reachable_functions
from .flatten import BlockFlatteningPass
from .manager import (
    FunctionPass,
    FunctionPassSegment,
    ModulePass,
    OptimizationResult,
    PassManager,
    PassStats,
    default_passes,
    optimize_module,
    split_segments,
)
from .peephole import PeepholePass
from .pipelines import (
    PIPELINES,
    o1_passes,
    pipeline_names,
    pipeline_passes,
    register_pipeline,
)
from .verify import (
    CallOutcome,
    DifferentialReport,
    Invocation,
    run_differential,
    run_engine_cross_check,
    run_pool_reset_cross_check,
    verify_optimization,
)

__all__ = [name for name in dir() if not name.startswith("_")]
