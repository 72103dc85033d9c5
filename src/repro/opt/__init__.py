"""Wasm optimization passes over lowered RichWasm modules (post §6).

The lowering compiler is deliberately naive — uniform ``i64`` local banks,
conversion-bracketed local accesses, dead shuffles left by erasure.  This
package cleans its output up:

* :mod:`repro.opt.manager` — :class:`PassManager`: takes each function to
  its own fixpoint under the function passes, then runs the module passes
  once, with per-pass statistics.
* :mod:`repro.opt.dce` — unreachable-code removal and dead-local pruning.
* :mod:`repro.opt.coalesce` — collapses the i64 local banks produced by
  locals-splitting.
* :mod:`repro.opt.constfold` — constant folding via the shared numeric
  semantics (:mod:`repro.core.semantics.numerics`).
* :mod:`repro.opt.peephole` — spill/reload and conversion-pair fusion.
* :mod:`repro.opt.pipelines` — builds the passes of the fixed
  ``O0``/``O1``/``O2`` levels (:data:`repro.api.OPT_LEVELS`) that
  :class:`repro.api.CompileConfig` names.
* :mod:`repro.opt.verify` — the differential harness executing optimized and
  unoptimized twins side by side and requiring identical behaviour.

Entry points: :func:`optimize_module` for a lowered
:class:`~repro.wasm.ast.WasmModule`, or pass a config whose ``opt_level``
is ``O1``/``O2`` (:class:`repro.api.CompileConfig`) to :func:`repro.api.compile`,
:func:`repro.api.lower`, :func:`repro.lower.lower_module` or the FFI
``Program`` execution path.  :func:`repro.ml.compile_ml_module` and
:func:`repro.l3.compile_l3_module` return RichWasm and take only a
``unit_cache``, no config.
"""

import importlib

# Public names and the submodule that defines each.  They load on first
# access (PEP 562), so a process that only unpickles an
# ``OptimizationResult`` — a disk-warm program hit — imports ``manager``
# and none of the pass modules.
_EXPORTS = {
    "LocalCoalescingPass": "coalesce",
    "ConstantFoldingPass": "constfold",
    "CopyPropagationPass": "copyprop",
    "DeadCodeEliminationPass": "dce",
    "UnusedLocalPass": "dce",
    "DeadFunctionPass": "deadfuncs",
    "reachable_functions": "deadfuncs",
    "BlockFlatteningPass": "flatten",
    "FunctionPass": "manager",
    "MAX_ROUNDS": "manager",
    "ModulePass": "manager",
    "OptimizationResult": "manager",
    "PassManager": "manager",
    "PassStats": "manager",
    "default_passes": "manager",
    "optimize_module": "manager",
    "PeepholePass": "peephole",
    "pipeline_passes": "pipelines",
    "CallOutcome": "verify",
    "DifferentialReport": "verify",
    "Invocation": "verify",
    "run_differential": "verify",
    "run_engine_cross_check": "verify",
    "run_pool_reset_cross_check": "verify",
    "verify_optimization": "verify",
}

_SUBMODULES = (
    "coalesce", "constfold", "copyprop", "dce", "deadfuncs", "flatten",
    "manager", "peephole", "pipelines", "rewrite", "verify",
)

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
