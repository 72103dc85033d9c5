"""Local coalescing: collapse the lowering's uniform ``i64`` local banks.

Locals-splitting (:mod:`repro.lower.compiler`) stores every RichWasm local
component in an ``i64`` Wasm local and brackets *every* access with
conversions: an ``i32`` component is written as ``i64.extend_i32_u`` +
``local.set`` and read as ``local.get`` + ``i32.wrap_i64`` (floats go through
``reinterpret``).  For the common case — a local that only ever holds one
value type — the bank slot can simply be retyped to that value type and all
the conversions deleted.

The pass analyses each declared ``i64`` local: if *every* write site is
bracketed by the to-``i64`` conversion sequence of one candidate type and
*every* read site by the matching from-``i64`` sequence (and the local is
never ``tee``'d), the local is retyped and the conversion instructions
removed.  Locals that genuinely hold different types over their lifetime
(RichWasm strong updates) fail the site checks and are left untouched.

Soundness relies on the conversion pairs being exact inverses on the values
that reach them: ``extend_u``/``wrap`` on a normalized ``i32`` and the
``reinterpret`` round-trips are bit-exact, and the interpreter normalizes
function arguments and constants, so every runtime stack value is in
normalized form.  An uninitialized bank slot reads as ``0``/``0.0`` under
both the old and the new typing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..wasm.ast import (
    Cvtop,
    LocalGet,
    LocalSet,
    ValType,
    WasmFunction,
    WasmModule,
    WInstr,
)
from .manager import FunctionPass
from .rewrite import READ_CONVS, WRITE_CONVS, local_census, map_sequences


class LocalCoalescingPass(FunctionPass):
    """Retype single-typed i64 bank locals and drop their access conversions."""

    name = "coalesce"

    def run(self, function: WasmFunction, module: WasmModule) -> tuple[WasmFunction, int]:
        param_count = len(function.functype.params)
        agreed = local_census(function).coalescible
        coalesced: dict[int, ValType] = {
            param_count + offset: agreed[param_count + offset]
            for offset, valtype in enumerate(function.locals)
            if valtype is ValType.I64 and param_count + offset in agreed
        }
        if not coalesced:
            return function, 0

        rewrites = 0

        def rewrite(seq: tuple[WInstr, ...]) -> tuple[WInstr, ...]:
            nonlocal rewrites
            out: list[WInstr] = []
            i = 0
            while i < len(seq):
                instr = seq[i]
                target = self._write_target(seq, i, coalesced)
                if target is not None:
                    convs = len(WRITE_CONVS[coalesced[target]])
                    out.append(seq[i + convs])  # the local.set itself
                    rewrites += convs
                    i += convs + 1
                    continue
                out.append(instr)
                if isinstance(instr, LocalGet) and instr.index in coalesced:
                    convs = len(READ_CONVS[coalesced[instr.index]])
                    rewrites += convs
                    i += convs
                i += 1
            return tuple(out)

        body = map_sequences(function.body, rewrite)
        locals_ = tuple(
            coalesced.get(param_count + offset, valtype) for offset, valtype in enumerate(function.locals)
        )
        return replace(function, locals=locals_, body=body), rewrites

    @staticmethod
    def _write_target(seq: tuple[WInstr, ...], i: int, coalesced: dict[int, ValType]) -> Optional[int]:
        """If a coalesced write pattern starts at ``seq[i]``, its local index."""

        if not isinstance(seq[i], Cvtop):
            return None
        for length in (2, 1):
            follower = seq[i + length] if i + length < len(seq) else None
            if not isinstance(follower, LocalSet) or follower.index not in coalesced:
                continue
            target_type = coalesced[follower.index]
            if seq[i : i + length] == WRITE_CONVS[target_type]:
                return follower.index
        return None
