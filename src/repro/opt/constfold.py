"""Constant folding over lowered Wasm bodies.

Folds adjacent constant computations — ``const``/``const``/``binop``,
``const``/``unop``, tests, comparisons and conversions — using the *same*
numeric semantics the interpreters share (:mod:`repro.core.semantics.numerics`),
so a folded module is observationally identical to the original.  Operations
that would trap at runtime (division by zero, invalid float-to-int
conversions) are deliberately left in place.

Constant conditions also fold control: ``const`` + ``br_if`` becomes ``br``
or nothing, ``const`` + ``if`` selects a branch statically, and ``const`` +
``select`` between two pure producers keeps only the taken operand.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from ..core.semantics import numerics
from ..wasm.ast import (
    Binop,
    Const,
    Cvtop,
    GlobalGet,
    LocalGet,
    Relop,
    Testop,
    Unop,
    ValType,
    WasmFunction,
    WasmModule,
    WBlock,
    WBr,
    WBrIf,
    WIf,
    WInstr,
    WSelect,
)
from .manager import FunctionPass
from .rewrite import map_sequences

_INT_BINOPS = {
    "add": numerics.int_add,
    "sub": numerics.int_sub,
    "mul": numerics.int_mul,
    "div_s": numerics.int_div_s,
    "div_u": numerics.int_div_u,
    "rem_s": numerics.int_rem_s,
    "rem_u": numerics.int_rem_u,
    "and": numerics.int_and,
    "or": numerics.int_or,
    "xor": numerics.int_xor,
    "shl": numerics.int_shl,
    "shr_s": numerics.int_shr_s,
    "shr_u": numerics.int_shr_u,
    "rotl": numerics.int_rotl,
    "rotr": numerics.int_rotr,
}

_INT_UNOPS = {
    "clz": numerics.int_clz,
    "ctz": numerics.int_ctz,
    "popcnt": numerics.int_popcnt,
}

#: Instructions that push exactly one value and have no side effects — safe to
#: delete when their result turns out to be unused.
_PURE_PRODUCERS = (Const, LocalGet, GlobalGet)


def _const_value(instr: Const) -> Union[int, float]:
    """The value a ``Const`` actually pushes at runtime (normalized)."""

    if instr.valtype.is_integer:
        return numerics.wrap(int(instr.value), instr.valtype.bit_width)
    return numerics.float_canon(float(instr.value), instr.valtype.bit_width)


def _fold_binop(instr: Binop, lhs: Const, rhs: Const) -> Optional[Const]:
    a, b = _const_value(lhs), _const_value(rhs)
    try:
        if instr.valtype.is_integer:
            result = _INT_BINOPS[instr.op](int(a), int(b), instr.valtype.bit_width)
        else:
            result = numerics.float_binop(instr.op, float(a), float(b), instr.valtype.bit_width)
    except numerics.NumericTrap:
        return None  # keep the trapping computation in place
    return Const(instr.valtype, result)


def _fold_unop(instr: Unop, operand: Const) -> Const:
    value = _const_value(operand)
    if instr.valtype.is_integer:
        result = _INT_UNOPS[instr.op](int(value), instr.valtype.bit_width)
    else:
        result = numerics.float_unop(instr.op, float(value), instr.valtype.bit_width)
    return Const(instr.valtype, result)


def _fold_relop(instr: Relop, lhs: Const, rhs: Const) -> Const:
    a, b = _const_value(lhs), _const_value(rhs)
    if instr.valtype.is_integer:
        base = instr.op.split("_")[0]
        signed = instr.op.endswith("_s")
        result = numerics.int_relop(base, int(a), int(b), instr.valtype.bit_width, signed)
    else:
        result = numerics.float_relop(instr.op, float(a), float(b))
    return Const(ValType.I32, result)


def _fold_cvtop(instr: Cvtop, operand: Const) -> Optional[Const]:
    value = _const_value(operand)
    try:
        if instr.op == "wrap":
            return Const(instr.target, numerics.wrap(int(value), 32))
        if instr.op in ("extend_s", "extend_u"):
            signed = instr.op == "extend_s"
            widened = numerics.to_signed(int(value), 32) if signed else numerics.to_unsigned(int(value), 32)
            return Const(instr.target, numerics.wrap(widened, 64))
        if instr.op in ("trunc_s", "trunc_u"):
            return Const(
                instr.target,
                numerics.trunc_float_to_int(float(value), instr.target.bit_width, instr.op == "trunc_s"),
            )
        if instr.op in ("convert_s", "convert_u"):
            return Const(
                instr.target,
                numerics.convert_int_to_float(
                    int(value), instr.source.bit_width, instr.op == "convert_s", instr.target.bit_width
                ),
            )
        if instr.op == "promote":
            return Const(instr.target, float(value))
        if instr.op == "demote":
            return Const(instr.target, numerics.float_canon(float(value), 32))
        if instr.op == "reinterpret":
            if instr.source.is_integer:
                return Const(instr.target, numerics.reinterpret_int_to_float(int(value), instr.source.bit_width))
            return Const(instr.target, numerics.reinterpret_float_to_int(float(value), instr.source.bit_width))
    except numerics.NumericTrap:
        return None
    return None


class ConstantFoldingPass(FunctionPass):
    """Fold constant arithmetic, comparisons, conversions and branches."""

    name = "constfold"

    def run(self, function: WasmFunction, module: WasmModule) -> tuple[WasmFunction, int]:
        rewrites = 0

        def fold(seq: tuple[WInstr, ...]) -> tuple[WInstr, ...]:
            nonlocal rewrites
            changed = True
            while changed:
                changed = False
                out: list[WInstr] = []
                for instr in seq:
                    replacement = self._match(out, instr)
                    if replacement is not None:
                        rewrites += 1
                        changed = True
                        out.extend(replacement)
                    else:
                        out.append(instr)
                seq = tuple(out)
            return seq

        body = map_sequences(function.body, fold)
        if rewrites == 0:
            return function, 0
        return replace(function, body=body), rewrites

    # -- pattern matching against the already-rebuilt prefix --------------------

    @staticmethod
    def _match(prefix: list[WInstr], instr: WInstr) -> Optional[list[WInstr]]:
        """If ``prefix + [instr]`` ends in a foldable pattern, pop the consumed
        producers off ``prefix`` and return the replacement instructions."""

        if isinstance(instr, Binop) and len(prefix) >= 2:
            rhs, lhs = prefix[-1], prefix[-2]
            if isinstance(lhs, Const) and isinstance(rhs, Const):
                folded = _fold_binop(instr, lhs, rhs)
                if folded is not None:
                    del prefix[-2:]
                    return [folded]
        elif isinstance(instr, Relop) and len(prefix) >= 2:
            rhs, lhs = prefix[-1], prefix[-2]
            if isinstance(lhs, Const) and isinstance(rhs, Const):
                del prefix[-2:]
                return [_fold_relop(instr, lhs, rhs)]
        elif isinstance(instr, Unop) and prefix and isinstance(prefix[-1], Const):
            operand = prefix.pop()
            return [_fold_unop(instr, operand)]
        elif isinstance(instr, Testop) and prefix and isinstance(prefix[-1], Const):
            operand = prefix.pop()
            value = numerics.int_eqz(int(_const_value(operand)), instr.valtype.bit_width)
            return [Const(ValType.I32, value)]
        elif isinstance(instr, Cvtop) and prefix and isinstance(prefix[-1], Const):
            folded = _fold_cvtop(instr, prefix[-1])
            if folded is not None:
                prefix.pop()
                return [folded]
        elif isinstance(instr, WBrIf) and prefix and isinstance(prefix[-1], Const):
            taken = int(_const_value(prefix.pop())) != 0
            return [WBr(instr.depth)] if taken else []
        elif isinstance(instr, WIf) and prefix and isinstance(prefix[-1], Const):
            taken = int(_const_value(prefix.pop())) != 0
            chosen = instr.then_body if taken else instr.else_body
            return [WBlock(instr.blocktype, chosen)]
        elif (
            isinstance(instr, WSelect)
            and len(prefix) >= 3
            and isinstance(prefix[-1], Const)
            and isinstance(prefix[-2], _PURE_PRODUCERS)
            and isinstance(prefix[-3], _PURE_PRODUCERS)
        ):
            condition = int(_const_value(prefix[-1]))
            first, second = prefix[-3], prefix[-2]
            del prefix[-3:]
            return [first if condition != 0 else second]
        return None
