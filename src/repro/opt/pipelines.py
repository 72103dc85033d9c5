"""The ``O0``/``O1``/``O2`` optimization levels, built into pass objects.

:class:`repro.api.CompileConfig` speaks in *levels*, not pass lists.  The
levels are one fixed table, :data:`repro.api.config.OPT_LEVELS`, of pass
names; it lives with the config so that validating and keying a config
imports no pass module (a disk-warm program hit runs no pass).  This module
builds a level's passes from those names:

* ``O0`` — no optimization (the lowered module runs as emitted);
* ``O1`` — the cheap structural cleanups: unreachable-code removal, block
  flattening, spill/reload peepholes and dead-local pruning.  No dataflow
  passes, so it is fast enough to run on every compile;
* ``O2`` — the full pipeline, in dependency order: unreachable-code removal
  (cheap, exposes dead locals), block flattening (merges sequences,
  exposing matches to everything after it), i64-bank local coalescing
  (removes the per-access conversions locals-splitting inserts), copy
  propagation (kills the prologue's parameter-to-bank copies once
  coalescing made them same-typed), constant folding, the peephole pass
  (fuses the ``local.set``/``local.get`` round-trips the others expose),
  dead-local pruning (drops the storage the earlier passes orphaned), and
  ABI-preserving dead-function stubbing at module scope.

Every level is semantics-preserving by contract: the tier-1 suite runs each
level through :func:`repro.opt.run_differential` against the unoptimized
twin on every engine and requires bit-identical results, traps, memories
and globals.

Pass *names* carry semantic weight beyond reporting: the per-function unit
cache (:mod:`repro.compilepipe`) keys each function's fixpoint on the
level's function-pass names, so a pass must be a pure function of the
function body, and two passes sharing a name must perform the same rewrite.
"""

from __future__ import annotations

from typing import List, Union

from ..api.config import OPT_LEVELS
from .coalesce import LocalCoalescingPass
from .constfold import ConstantFoldingPass
from .copyprop import CopyPropagationPass
from .dce import DeadCodeEliminationPass, UnusedLocalPass
from .deadfuncs import DeadFunctionPass
from .flatten import BlockFlatteningPass
from .manager import FunctionPass, ModulePass
from .peephole import PeepholePass

Pipeline = List[Union[FunctionPass, ModulePass]]

#: Every shipped pass class, by its name.
_PASSES = {
    cls.name: cls
    for cls in (
        DeadCodeEliminationPass, BlockFlatteningPass, LocalCoalescingPass, CopyPropagationPass,
        ConstantFoldingPass, PeepholePass, UnusedLocalPass, DeadFunctionPass,
    )
}


def pipeline_passes(level: str) -> Pipeline:
    """A fresh pass pipeline for ``level``.

    Raises :class:`ValueError` naming the levels for an unknown name — the
    same contract :meth:`repro.api.CompileConfig.validate` follows.
    """

    try:
        names = OPT_LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown optimization level {level!r}; levels: {', '.join(OPT_LEVELS)}"
        ) from None
    return [_PASSES[name]() for name in names]
