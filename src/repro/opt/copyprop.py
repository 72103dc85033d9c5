"""Copy propagation for the single-assignment copies the prologue emits.

The lowering's function prologue copies every Wasm parameter into its local
bank (``local.get p`` / ``local.set b``), and after coalescing has stripped
the conversions these are plain same-typed copies.  When the copy is the
*only* write to ``b``, the source is never written at all, and every read of
``b`` happens after the copy, each ``local.get b`` can read ``p`` directly
and the copy disappears (the orphaned local is later pruned by the
dead-local pass).

Restricting copies to the top-level body sequence gives dominance for free:
function-level control flow cannot jump backwards past an earlier top-level
instruction, so every read in the suffix observes the copy.
"""

from __future__ import annotations

from dataclasses import replace

from ..wasm.ast import (
    LocalGet,
    LocalSet,
    WasmFunction,
    WasmModule,
    WInstr,
)
from .manager import FunctionPass
from .rewrite import local_census, map_sequences


class CopyPropagationPass(FunctionPass):
    """Forward never-written sources through single-assignment copies."""

    name = "copyprop"

    def run(self, function: WasmFunction, module: WasmModule) -> tuple[WasmFunction, int]:
        census = local_census(function)
        types = function.functype.params + function.locals
        # Copy targets found at top level: target -> source.
        forwarded: dict[int, int] = {}
        kept: list[WInstr] = []
        for position, instr in enumerate(function.body):
            if (
                isinstance(instr, LocalSet)
                and kept
                and isinstance(kept[-1], LocalGet)
                and instr.index != kept[-1].index
                and census.writes(instr.index) == 1
                and census.writes(kept[-1].index) == 0
                # No read of the target in the top-level prefix.
                and census.first_read.get(instr.index, position) >= position
                and instr.index not in forwarded
                and kept[-1].index not in forwarded
                and types[instr.index] is types[kept[-1].index]
            ):
                source = kept.pop().index
                forwarded[instr.index] = source
                continue
            kept.append(instr)

        if not forwarded:
            return function, 0

        def redirect(seq: tuple[WInstr, ...]) -> tuple[WInstr, ...]:
            return tuple(
                LocalGet(forwarded[instr.index])
                if type(instr) is LocalGet and instr.index in forwarded
                else instr
                for instr in seq
            )

        # One rewrite per copy dropped, one per read redirected.
        rewrites = len(forwarded) + sum(census.gets.get(target, 0) for target in forwarded)
        return replace(function, body=map_sequences(tuple(kept), redirect)), rewrites
