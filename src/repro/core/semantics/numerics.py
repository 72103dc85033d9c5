"""Numeric operator semantics shared by the RichWasm and Wasm interpreters.

Integers are represented as Python ints, normalized to their unsigned
bit-pattern (the usual WebAssembly convention); floats are Python floats.
The helpers here implement wrapping arithmetic, signed/unsigned views,
shifts, rotates, comparisons and conversions for 32- and 64-bit widths.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Callable, Union

from ..typing.errors import RichWasmError


class NumericTrap(RichWasmError):
    """Raised for numeric traps (division by zero, invalid conversion)."""


MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF


def mask(width: int) -> int:
    return MASK32 if width == 32 else MASK64


def wrap(value: int, width: int) -> int:
    """Normalize an integer to its unsigned ``width``-bit representation."""

    return value & mask(width)


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned bit-pattern as a two's-complement signed value."""

    value = wrap(value, width)
    sign_bit = 1 << (width - 1)
    return value - (1 << width) if value & sign_bit else value


def to_unsigned(value: int, width: int) -> int:
    """Interpret any integer as an unsigned ``width``-bit value."""

    return wrap(value, width)


# ---------------------------------------------------------------------------
# Integer operators
# ---------------------------------------------------------------------------


def int_add(a: int, b: int, width: int) -> int:
    return wrap(a + b, width)


def int_sub(a: int, b: int, width: int) -> int:
    return wrap(a - b, width)


def int_mul(a: int, b: int, width: int) -> int:
    return wrap(a * b, width)


def int_div_u(a: int, b: int, width: int) -> int:
    if wrap(b, width) == 0:
        raise NumericTrap("integer division by zero")
    return wrap(wrap(a, width) // wrap(b, width), width)


def int_div_s(a: int, b: int, width: int) -> int:
    sa, sb = to_signed(a, width), to_signed(b, width)
    if sb == 0:
        raise NumericTrap("integer division by zero")
    quotient = int(sa / sb)  # truncate toward zero
    if quotient == 1 << (width - 1):
        raise NumericTrap("integer overflow in signed division")
    return wrap(quotient, width)


def int_rem_u(a: int, b: int, width: int) -> int:
    if wrap(b, width) == 0:
        raise NumericTrap("integer remainder by zero")
    return wrap(wrap(a, width) % wrap(b, width), width)


def int_rem_s(a: int, b: int, width: int) -> int:
    sa, sb = to_signed(a, width), to_signed(b, width)
    if sb == 0:
        raise NumericTrap("integer remainder by zero")
    remainder = sa - sb * int(sa / sb)
    return wrap(remainder, width)


def int_and(a: int, b: int, width: int) -> int:
    return wrap(a & b, width)


def int_or(a: int, b: int, width: int) -> int:
    return wrap(a | b, width)


def int_xor(a: int, b: int, width: int) -> int:
    return wrap(a ^ b, width)


def int_shl(a: int, b: int, width: int) -> int:
    return wrap(a << (b % width), width)


def int_shr_u(a: int, b: int, width: int) -> int:
    return wrap(a, width) >> (b % width)


def int_shr_s(a: int, b: int, width: int) -> int:
    return wrap(to_signed(a, width) >> (b % width), width)


def int_rotl(a: int, b: int, width: int) -> int:
    b = b % width
    a = wrap(a, width)
    return wrap((a << b) | (a >> (width - b)), width)


def int_rotr(a: int, b: int, width: int) -> int:
    b = b % width
    a = wrap(a, width)
    return wrap((a >> b) | (a << (width - b)), width)


def int_clz(a: int, width: int) -> int:
    a = wrap(a, width)
    if a == 0:
        return width
    return width - a.bit_length()


def int_ctz(a: int, width: int) -> int:
    a = wrap(a, width)
    if a == 0:
        return width
    return (a & -a).bit_length() - 1


def int_popcnt(a: int, width: int) -> int:
    return bin(wrap(a, width)).count("1")


def int_eqz(a: int, width: int) -> int:
    return 1 if wrap(a, width) == 0 else 0


def bool_to_i32(value: bool) -> int:
    return 1 if value else 0


_INT_RELOPS: dict[str, Callable[[int, int], bool]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "gt": operator.gt,
    "le": operator.le,
    "ge": operator.ge,
}


def int_relop(op: str, a: int, b: int, width: int, signed: bool) -> int:
    if signed:
        a, b = to_signed(a, width), to_signed(b, width)
    else:
        a, b = to_unsigned(a, width), to_unsigned(b, width)
    return bool_to_i32(_INT_RELOPS[op](a, b))


# ---------------------------------------------------------------------------
# Float operators
# ---------------------------------------------------------------------------


_F32 = struct.Struct("<f")


def float_canon(value: float, width: int) -> float:
    """Round a Python float to f32 precision when needed.

    Rounding is to nearest, ties to even; a value that rounds past the f32
    range becomes ±inf (``struct`` raises ``OverflowError`` exactly then),
    and NaN stays NaN.  The result is always a ``float``.
    """

    if width == 32:
        try:
            return _F32.unpack(_F32.pack(value))[0]
        except OverflowError:
            return math.copysign(math.inf, value)
    return float(value)


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        return math.inf if (a > 0) == (b >= 0 and not math.copysign(1, b) < 0) else -math.inf
    return a / b


def _float_min(a: float, b: float) -> float:
    """Wasm ``fmin``: NaN if either operand is NaN, and -0 below +0."""

    if a != a or b != b:
        return math.nan
    if a == b:  # equal, or zeros of either sign: prefer the negative one
        return a if math.copysign(1.0, a) < 0 else b
    return a if a < b else b


def _float_max(a: float, b: float) -> float:
    """Wasm ``fmax``: NaN if either operand is NaN, and +0 above -0."""

    if a != a or b != b:
        return math.nan
    if a == b:
        return b if math.copysign(1.0, a) < 0 else a
    return a if a > b else b


def _float_rounding(to_integer: Callable[[float], int]) -> Callable[[float], float]:
    """``ceil``/``floor``/``trunc``/``nearest`` per the Wasm spec: ±inf and
    NaN come back unchanged, and a zero result keeps the operand's sign
    (``ceil(-0.5)`` is -0.0)."""

    def rounded(x: float) -> float:
        if not math.isfinite(x):
            return x
        return math.copysign(float(to_integer(x)), x)

    return rounded


_FLOAT_BINOPS: dict[str, Callable[[float, float], float]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _float_div,
    "min": _float_min,
    "max": _float_max,
    "copysign": math.copysign,
}

_FLOAT_UNOPS: dict[str, Callable[[float], float]] = {
    "abs": abs,
    "neg": operator.neg,
    "sqrt": lambda x: math.sqrt(x) if x >= 0 else math.nan,
    "ceil": _float_rounding(math.ceil),
    "floor": _float_rounding(math.floor),
    "trunc": _float_rounding(math.trunc),
    "nearest": _float_rounding(round),  # round() ties to even, as Wasm's nearest does
}

_FLOAT_RELOPS: dict[str, Callable[[float, float], bool]] = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "gt": operator.gt,
    "le": operator.le,
    "ge": operator.ge,
}


def float_binop(op: str, a: float, b: float, width: int) -> float:
    return float_canon(_FLOAT_BINOPS[op](a, b), width)


def float_unop(op: str, a: float, width: int) -> float:
    return float_canon(_FLOAT_UNOPS[op](a), width)


def float_relop(op: str, a: float, b: float) -> int:
    if math.isnan(a) or math.isnan(b):
        return bool_to_i32(op == "ne")
    return bool_to_i32(_FLOAT_RELOPS[op](a, b))


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def trunc_float_to_int(value: float, width: int, signed: bool) -> int:
    if math.isnan(value) or math.isinf(value):
        raise NumericTrap("invalid conversion of NaN/inf to integer")
    truncated = math.trunc(value)
    if signed:
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    else:
        low, high = 0, (1 << width) - 1
    if truncated < low or truncated > high:
        raise NumericTrap("integer overflow in float-to-int conversion")
    return wrap(int(truncated), width)


def convert_int_to_float(value: int, width: int, signed: bool, target_width: int) -> float:
    source = to_signed(value, width) if signed else to_unsigned(value, width)
    return float_canon(float(source), target_width)


def reinterpret_float_to_int(value: float, width: int) -> int:
    fmt = "<f" if width == 32 else "<d"
    ifmt = "<I" if width == 32 else "<Q"
    return struct.unpack(ifmt, struct.pack(fmt, value))[0]


def reinterpret_int_to_float(value: int, width: int) -> float:
    fmt = "<f" if width == 32 else "<d"
    ifmt = "<I" if width == 32 else "<Q"
    return struct.unpack(fmt, struct.pack(ifmt, wrap(value, width)))[0]
