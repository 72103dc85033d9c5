"""Peephole simplification of short instruction idioms.

The patterns target what the lowering compiler actually emits — spill/reload
traffic and bank conversions:

* ``local.set i`` + ``local.get i``     → ``local.tee i``
* ``local.tee i`` + ``drop``            → ``local.set i``
* ``local.tee i`` + ``local.set i``     → ``local.set i``
* ``local.get i`` + ``local.set i``     → (nothing)
* pure producer + ``drop``              → (nothing)
* ``nop``                               → (nothing)
* inverse conversion pairs              → (nothing), e.g.
  ``i64.extend_i32_u`` + ``i32.wrap_i64`` or the ``reinterpret`` round-trips
  that are bit-exact in both directions.
* spill/reload shuffles over two pure producers, when the scratch locals are
  read nowhere else: the identity restore ``p1 p2 set a set b get b get a``
  → ``p1 p2`` and the swap ``p1 p2 set a set b get a get b`` → ``p2 p1``
  (both produced by the lowering's ``_spill``/``_reload`` discipline).

The conversion-pair removals are sound because the interpreter normalizes
function arguments and constants, so every ``i32`` value on the stack is
already in wrapped (unsigned) form — the extend/wrap round-trip is the
identity on it.  Integer→float ``reinterpret`` round-trips are *not* removed:
re-quieting of NaN payloads in the float domain could be observable.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..wasm.ast import (
    Const,
    Cvtop,
    GlobalGet,
    LocalGet,
    LocalSet,
    LocalTee,
    ValType,
    WasmFunction,
    WasmModule,
    WDrop,
    WInstr,
    WNop,
)
from .manager import FunctionPass
from .rewrite import local_census, map_sequences

_PURE_PRODUCERS = (Const, LocalGet, GlobalGet)

#: ``first`` then ``second`` is the identity on every normalized stack value.
_IDENTITY_CONV_PAIRS = {
    (Cvtop(ValType.I64, "extend_u", ValType.I32), Cvtop(ValType.I32, "wrap", ValType.I64)),
    (Cvtop(ValType.I64, "extend_s", ValType.I32), Cvtop(ValType.I32, "wrap", ValType.I64)),
    # float -> int bits -> float: exact bit round-trips.
    (Cvtop(ValType.I32, "reinterpret", ValType.F32), Cvtop(ValType.F32, "reinterpret", ValType.I32)),
    (Cvtop(ValType.I64, "reinterpret", ValType.F64), Cvtop(ValType.F64, "reinterpret", ValType.I64)),
}


class PeepholePass(FunctionPass):
    """Window-of-two simplifications over every instruction sequence."""

    name = "peephole"

    def run(self, function: WasmFunction, module: WasmModule) -> tuple[WasmFunction, int]:
        rewrites = 0
        # Read counts over the whole body, for the shuffle windows.  Rewrites
        # during this run only ever *remove* reads, so the counts stay a safe
        # over-approximation.
        reads = local_census(function).gets

        def simplify(seq: tuple[WInstr, ...]) -> tuple[WInstr, ...]:
            nonlocal rewrites
            out: list[WInstr] = []
            for instr in seq:
                replacement = self._match(out, instr, reads)
                if replacement is not None:
                    rewrites += 1
                    out.extend(replacement)
                else:
                    out.append(instr)
            return tuple(out)

        body = map_sequences(function.body, simplify)
        if rewrites == 0:
            return function, 0
        return replace(function, body=body), rewrites

    @staticmethod
    def _match(prefix: list[WInstr], instr: WInstr, reads: dict[int, int]) -> Optional[list[WInstr]]:
        """Match ``prefix[-1], instr`` windows; pops consumed prefix entries."""

        if isinstance(instr, WNop):
            return []
        shuffled = PeepholePass._match_shuffle(prefix, instr, reads)
        if shuffled is not None:
            return shuffled
        previous = prefix[-1] if prefix else None
        if isinstance(instr, LocalGet):
            if isinstance(previous, LocalSet) and previous.index == instr.index:
                prefix.pop()
                return [LocalTee(instr.index)]
        elif isinstance(instr, LocalSet):
            if isinstance(previous, LocalGet) and previous.index == instr.index:
                prefix.pop()
                return []
            if isinstance(previous, LocalTee) and previous.index == instr.index:
                prefix.pop()
                return [LocalSet(instr.index)]
        elif isinstance(instr, WDrop):
            if isinstance(previous, LocalTee):
                prefix.pop()
                return [LocalSet(previous.index)]
            if isinstance(previous, _PURE_PRODUCERS):
                prefix.pop()
                return []
        elif isinstance(instr, Cvtop):
            if isinstance(previous, Cvtop) and (previous, instr) in _IDENTITY_CONV_PAIRS:
                prefix.pop()
                return []
        return None

    @staticmethod
    def _match_shuffle(prefix: list[WInstr], instr: WInstr, reads: dict[int, int]) -> Optional[list[WInstr]]:
        """Spill/reload identity-restores and swaps over two pure producers.

        The identity restore arrives as ``p1 p2 set_a tee_b get_a``: its
        ``set_b``/``get_b`` core was already fused to ``tee_b`` by the
        window-of-two rule, leaving ``b``'s store dead.  The swap keeps both
        ``set``s because its reloads are not adjacent to them.
        """

        if not isinstance(instr, LocalGet):
            return None
        if len(prefix) >= 4:
            p1, p2, set_a, tee_b = prefix[-4:]
            if (
                isinstance(p1, _PURE_PRODUCERS)
                and isinstance(p2, _PURE_PRODUCERS)
                and isinstance(set_a, LocalSet)
                and isinstance(tee_b, LocalTee)
                and set_a.index != tee_b.index
                and instr.index == set_a.index
                and reads.get(set_a.index, 0) == 1
                and reads.get(tee_b.index, 0) == 0
            ):
                # p1 p2, a := v2, b := tee v1, push a (v2): the stack ends as
                # [v1, v2] and neither scratch local is read again — identity.
                del prefix[-4:]
                return [p1, p2]
        if len(prefix) >= 5:
            p1, p2, set_a, set_b, get_a = prefix[-5:]
            if (
                isinstance(p1, _PURE_PRODUCERS)
                and isinstance(p2, _PURE_PRODUCERS)
                and isinstance(set_a, LocalSet)
                and isinstance(set_b, LocalSet)
                and isinstance(get_a, LocalGet)
                and set_a.index != set_b.index
                and get_a.index == set_a.index
                and instr.index == set_b.index
                and reads.get(set_a.index, 0) == 1
                and reads.get(set_b.index, 0) == 1
            ):
                # p1 p2, a := v2, b := v1, push a (v2), push b (v1): a swap of
                # the two produced values — re-emit the producers reversed.
                del prefix[-5:]
                return [p2, p1]
        return None
