"""Dead-code elimination: unreachable tails, empty control, dead locals.

Two passes live here:

* :class:`DeadCodeEliminationPass` — drops the code after an unconditional
  control transfer (``unreachable``, ``br``, ``br_table``, ``return``) inside
  a sequence, removes empty ``block``/``loop`` shells, and degrades an ``if``
  with two empty arms to a ``drop`` of its condition.
* :class:`UnusedLocalPass` — rewrites stores to never-read locals into
  ``drop`` (or deletes the ``tee``), then prunes locals with no remaining
  references from the declaration list, renumbering the survivors.  The
  lowering's spill pools and i64 local banks leave plenty of these behind,
  especially after :class:`~repro.opt.coalesce.LocalCoalescingPass` has
  retyped the banks.
"""

from __future__ import annotations

from dataclasses import replace

from ..wasm.ast import (
    LocalSet,
    LocalTee,
    WasmFunction,
    WasmModule,
    WBlock,
    WBr,
    WBrTable,
    WDrop,
    WIf,
    WInstr,
    WLoop,
    WReturn,
    WUnreachable,
    count_instrs,
)
from .manager import FunctionPass
from .rewrite import local_census, map_sequences, remap_locals

_TERMINATORS = (WUnreachable, WBr, WBrTable, WReturn)

_EMPTY = lambda blocktype: not blocktype.params and not blocktype.results


class DeadCodeEliminationPass(FunctionPass):
    """Remove code that can never execute and control shells with no content."""

    name = "dce"

    def run(self, function: WasmFunction, module: WasmModule) -> tuple[WasmFunction, int]:
        rewrites = 0

        def sweep(seq: tuple[WInstr, ...]) -> tuple[WInstr, ...]:
            nonlocal rewrites
            out: list[WInstr] = []
            for position, instr in enumerate(seq):
                if isinstance(instr, (WBlock, WLoop)) and not instr.body and _EMPTY(instr.blocktype):
                    rewrites += 1
                    continue
                if isinstance(instr, WIf) and not instr.then_body and not instr.else_body and _EMPTY(instr.blocktype):
                    rewrites += 1
                    out.append(WDrop())
                    continue
                out.append(instr)
                if isinstance(instr, _TERMINATORS):
                    rewrites += count_instrs(seq[position + 1 :])
                    break
            return tuple(out)

        body = map_sequences(function.body, sweep)
        # A trailing ``return`` in the top-level body is the fall-off-end
        # behaviour spelled out; drop it.
        if body and isinstance(body[-1], WReturn):
            rewrites += 1
            body = body[:-1]
        if rewrites == 0:
            return function, 0
        return replace(function, body=body), rewrites


class UnusedLocalPass(FunctionPass):
    """Eliminate dead stores and prune unreferenced locals."""

    name = "deadlocals"

    def run(self, function: WasmFunction, module: WasmModule) -> tuple[WasmFunction, int]:
        param_count = len(function.functype.params)
        census = local_census(function)
        # Every store to an unread local dies, so the locals left referenced
        # afterwards are exactly the read ones.
        read = census.gets
        written = census.sets.keys() | census.tees.keys()
        rewrites = sum(census.writes(index) for index in written if index not in read)

        def kill_dead_stores(seq: tuple[WInstr, ...]) -> tuple[WInstr, ...]:
            out: list[WInstr] = []
            for instr in seq:
                if isinstance(instr, LocalSet) and instr.index not in read:
                    out.append(WDrop())
                elif not (isinstance(instr, LocalTee) and instr.index not in read):
                    out.append(instr)
            return tuple(out)

        body = map_sequences(function.body, kill_dead_stores) if rewrites else function.body

        mapping: dict[int, int] = {index: index for index in range(param_count)}
        kept_locals = []
        for offset, valtype in enumerate(function.locals):
            index = param_count + offset
            if index in read:
                mapping[index] = param_count + len(kept_locals)
                kept_locals.append(valtype)
            else:
                rewrites += 1
        if len(kept_locals) != len(function.locals):
            body = remap_locals(body, mapping)

        if rewrites == 0:
            return function, 0
        return replace(function, locals=tuple(kept_locals), body=body), rewrites
