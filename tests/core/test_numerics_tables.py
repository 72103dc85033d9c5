"""The module-level float operator tables against per-call reference tables.

``float_binop``, ``float_unop`` and ``float_relop`` look their operator up in
a table built once at import.  The reference tables below are the lambdas
those functions used to rebuild on every call, except for ``min``/``max``
and the four roundings, whose references follow the Wasm numerics spec
(NaN propagates, -0 orders below +0, ±inf and NaN round to themselves, a
zero result keeps the operand's sign); each operator must give the same
bits (or raise the same error) on the edge values of both widths.
"""

from __future__ import annotations

import itertools
import math
import struct

import pytest

from repro.core.semantics import numerics

def _spec_min_max(pick):
    def reference(x, y):
        if math.isnan(x) or math.isnan(y):
            return math.nan
        if x == y == 0.0:
            negative = math.copysign(1, x) < 0, math.copysign(1, y) < 0
            return -0.0 if (any(negative) if pick is min else all(negative)) else 0.0
        return pick(x, y)

    return reference


def _spec_rounding(to_integer):
    def reference(x):
        if math.isnan(x) or math.isinf(x):
            return x
        result = float(to_integer(x))
        return -0.0 if result == 0.0 and math.copysign(1, x) < 0 else result

    return reference


_REFERENCE_BINOPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": numerics._float_div,
    "min": _spec_min_max(min),
    "max": _spec_min_max(max),
    "copysign": math.copysign,
}

_REFERENCE_UNOPS = {
    "abs": abs,
    "neg": lambda x: -x,
    "sqrt": lambda x: math.sqrt(x) if x >= 0 else math.nan,
    "ceil": _spec_rounding(math.ceil),
    "floor": _spec_rounding(math.floor),
    "trunc": _spec_rounding(math.trunc),
    "nearest": _spec_rounding(round),
}

_REFERENCE_RELOPS = {
    "eq": lambda x, y: x == y,
    "ne": lambda x, y: x != y,
    "lt": lambda x, y: x < y,
    "gt": lambda x, y: x > y,
    "le": lambda x, y: x <= y,
    "ge": lambda x, y: x >= y,
}

EDGE_VALUES = (
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 2.2250738585072014e-308,  # f64 subnormals, smallest normal
    1e-45, 1.401298464324817e-45, 1.1754942106924411e-38,  # f32 subnormals
    1.0, -1.0, 0.5, -2.5, 3.5,
    1 / 3, 0.1, 16777217.0, 3.4028234663852886e38, 1e39,  # values that round at f32, f32 max
    2.0**53 + 1, -(2.0**63),
)


def _bits(value) -> tuple:
    """Compare floats by bit pattern, so ±0.0 differ and NaN equals NaN."""

    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _operands(width: int) -> list[float]:
    """The edge values rounded to ``width`` (past the f32 range: ±inf)."""

    return [numerics.float_canon(value, width) for value in EDGE_VALUES]


def test_tables_name_the_same_operators():
    assert numerics._FLOAT_BINOPS.keys() == _REFERENCE_BINOPS.keys()
    assert numerics._FLOAT_UNOPS.keys() == _REFERENCE_UNOPS.keys()
    assert numerics._FLOAT_RELOPS.keys() == _REFERENCE_RELOPS.keys()


@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("op", sorted(_REFERENCE_BINOPS))
def test_float_binop_matches_reference(op, width):
    operands = _operands(width)
    for a, b in itertools.product(operands, repeat=2):
        expected = _outcome(lambda: numerics.float_canon(_REFERENCE_BINOPS[op](a, b), width))
        assert _outcome(numerics.float_binop, op, a, b, width) == expected, (op, width, a, b)


@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("op", sorted(_REFERENCE_UNOPS))
def test_float_unop_matches_reference(op, width):
    for a in _operands(width):
        expected = _outcome(lambda: numerics.float_canon(_REFERENCE_UNOPS[op](a), width))
        assert _outcome(numerics.float_unop, op, a, width) == expected, (op, width, a)


@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("op", sorted(_REFERENCE_RELOPS))
def test_float_relop_matches_reference(op, width):
    operands = _operands(width)
    for a, b in itertools.product(operands, repeat=2):
        if math.isnan(a) or math.isnan(b):
            expected = _bits(1 if op == "ne" else 0)
        else:
            expected = _bits(1 if _REFERENCE_RELOPS[op](a, b) else 0)
        assert _outcome(numerics.float_relop, op, a, b) == expected, (op, width, a, b)
