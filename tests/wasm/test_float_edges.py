"""Float results at the edges of the Wasm numerics spec, on every engine.

Each case is one operator over edge operands: f32 results rounding past
the f32 range (±inf), ``ceil``/``floor``/``trunc``/``nearest`` of ±inf, NaN
and -0.5, and ``min``/``max`` over NaN and signed zeros
(https://webassembly.github.io/spec/core/exec/numerics.html).  The operands
arrive as parameters, so every engine computes the result itself, and no
engine may raise a Python exception.  The same operator over constant
operands goes through constant folding, which must fold to the same bits.
"""

from __future__ import annotations

import math
import struct

import pytest

from repro.opt.constfold import ConstantFoldingPass
from repro.wasm import (
    Binop,
    Const,
    Cvtop,
    LocalGet,
    Unop,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmInterpreter,
    WasmModule,
    validate_module,
)

F32, F64 = ValType.F32, ValType.F64
INF, NAN = math.inf, math.nan
F32_MAX = 3.4028234663852886e38

_ROUNDINGS = ("ceil", "floor", "trunc", "nearest")

# (label, instruction, operand types, operands, result type, expected)
CASES = [
    ("f32.demote_f64 1e300", Cvtop(F32, "demote", F64), (F64,), (1e300,), F32, INF),
    ("f32.demote_f64 -1e300", Cvtop(F32, "demote", F64), (F64,), (-1e300,), F32, -INF),
    ("f32.mul overflow", Binop(F32, "mul"), (F32, F32), (F32_MAX, 10.0), F32, INF),
    ("f32.add overflow", Binop(F32, "add"), (F32, F32), (F32_MAX, F32_MAX), F32, INF),
    ("f32.sub overflow", Binop(F32, "sub"), (F32, F32), (-F32_MAX, F32_MAX), F32, -INF),
]
for _vt in (F32, F64):
    for _op in _ROUNDINGS:
        for _x in (INF, -INF, NAN):
            CASES.append((f"{_vt.value}.{_op} {_x}", Unop(_vt, _op), (_vt,), (_x,), _vt, _x))
        CASES.append((f"{_vt.value}.{_op} -0.5", Unop(_vt, _op), (_vt,), (-0.5,), _vt,
                      -1.0 if _op == "floor" else -0.0))
    for _op, _a, _b, _expected in (
        ("min", 1.0, NAN, NAN), ("min", NAN, 1.0, NAN), ("max", 1.0, NAN, NAN), ("max", NAN, -1.0, NAN),
        ("min", 0.0, -0.0, -0.0), ("min", -0.0, 0.0, -0.0),
        ("max", 0.0, -0.0, 0.0), ("max", -0.0, 0.0, 0.0),
    ):
        CASES.append((f"{_vt.value}.{_op} {_a} {_b}", Binop(_vt, _op), (_vt, _vt), (_a, _b), _vt, _expected))


def _same(actual, expected) -> bool:
    """Bit equality for floats (±0 differ), any NaN matching NaN."""

    if math.isnan(expected):
        return isinstance(actual, float) and math.isnan(actual)
    return isinstance(actual, float) and struct.pack("<d", actual) == struct.pack("<d", expected)


def _module(body, params, result) -> WasmModule:
    main = WasmFunction(WasmFuncType(params, (result,)), (), body, name="main", exports=("main",))
    module = WasmModule(functions=(main,))
    validate_module(module)
    return module


@pytest.mark.parametrize("label, instr, params, operands, result, expected", CASES, ids=[c[0] for c in CASES])
def test_float_edge_results_on_every_engine_and_when_folded(label, instr, params, operands, result, expected):
    module = _module((*(LocalGet(i) for i in range(len(params))), instr), params, result)
    for engine in ("tree", "flat", "compiled"):
        interp = WasmInterpreter(engine=engine)
        (value,) = interp.invoke(interp.instantiate(module), "main", operands)
        assert _same(value, expected), (engine, value)
        assert interp.steps == len(params) + 1, engine

    constant = _module((*(Const(vt, v) for vt, v in zip(params, operands)), instr), params=(), result=result)
    folded, rewrites = ConstantFoldingPass().run(constant.functions[0], constant)
    assert rewrites == 1
    (only,) = folded.body
    assert isinstance(only, Const) and _same(float(only.value), expected), only
