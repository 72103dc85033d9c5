"""Internal-call arguments pass as they are.

Only an external entry normalizes its arguments (and a host call its
results); a call inside a module hands its operands to the callee
unchanged, because every producer already leaves a normalized value.  The
flat VM and the compiled tier rely on that, the tree walker still
normalizes every call, so it serves as the oracle here: seeded bodies feed
each producer kind straight into calls (integer arithmetic, relops,
``eqz``, narrow signed loads, float arithmetic and conversions, host
results), and the callees publish their parameters through globals, where
an unnormalized value would show.
"""

from __future__ import annotations

import math
import random
import struct

from hypothesis import given, settings, strategies as st

from repro.wasm import (
    Binop,
    Const,
    Cvtop,
    GlobalGet,
    GlobalSet,
    Load,
    LocalGet,
    Relop,
    StoreI,
    Testop as WTestop,  # aliased so pytest does not collect it as a test class
    Unop,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmGlobal,
    WasmImportedFunction,
    WasmInterpreter,
    WasmMemory,
    WasmModule,
    WasmTrap,
    WCall,
    validate_module,
)
from repro.wasm import engine as engine_module
from repro.wasm.ast import WDrop, WSelect

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64
FT = WasmFuncType
TYPES = (I32, I64, F32, F64)

# Function indices: four host imports, one sink per type, then main.
_HOST = {vt: index for index, vt in enumerate(TYPES)}
_SINK = {vt: 4 + index for index, vt in enumerate(TYPES)}
_MAIN = 8
# Globals: the last parameter each sink saw, per type, then an eqz tally.
_SEEN = {vt: index for index, vt in enumerate(TYPES)}
_TALLY = 4

_INT_BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr_s", "shr_u", "rotl", "div_u", "rem_s")
_INT_RELOPS = ("eq", "ne", "lt_s", "lt_u", "gt_s", "ge_u")
_FLOAT_BINOPS = ("add", "sub", "mul", "div", "min", "max", "copysign")
_FLOAT_UNOPS = ("neg", "abs", "sqrt", "ceil", "floor", "nearest", "trunc")
_FLOAT_RELOPS = ("eq", "ne", "lt", "ge")
_CONSTS = {
    I32: (0, 1, 5, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF),
    I64: (0, 1, 0xFFFFFFFF, 0x8000000000000000, 0xFFFFFFFFFFFFFFFF),
    F32: (0.0, -0.0, 1.5, -2.5, 0.1, 16777217.0, math.inf, math.nan),
    F64: (0.0, -0.0, 1.5, -2.5, 0.1, 1e300, -math.inf, math.nan),
}
# Raw host results; the engines normalize them to the import's result type.
_HOST_RESULTS = {
    I32: (-5, 2**32 + 7, 0, 2**31),
    I64: (-1, 2**64 + 3, 7, -(2**63)),
    F32: (0.1, 1e-40, -0.0, 3.0),
    F64: (0.1, -0.0, 1e308, 2.5),
}


class _Gen:
    """``value(vt)`` builds code pushing one value of type ``vt``, each a
    different producer kind; ``call`` wraps one in a call to ``vt``'s sink."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def leaf(self, vt: ValType) -> list:
        rng = self.rng
        if rng.random() < 0.5:
            return [LocalGet(TYPES.index(vt))]
        return [Const(vt, rng.choice(_CONSTS[vt]))]

    def value(self, vt: ValType, depth: int) -> list:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.15:
            return self.leaf(vt)
        sub = depth - 1
        if vt.is_integer:
            return self._integer(vt, sub)
        return self._float(vt, sub)

    def _integer(self, vt: ValType, sub: int) -> list:
        rng = self.rng
        wide = vt is I64
        choice = rng.randrange(10)
        if choice == 0:
            return self.value(vt, sub) + self.value(vt, sub) + [Binop(vt, rng.choice(_INT_BINOPS))]
        if choice == 1:  # relops and eqz produce an i32
            source = rng.choice((I32, I64))
            if rng.random() < 0.5:
                code = self.value(source, sub) + [WTestop(source)]
            else:
                code = self.value(source, sub) + self.value(source, sub) + [Relop(source, rng.choice(_INT_RELOPS))]
            return code + ([Cvtop(I64, "extend_u", I32)] if wide else [])
        if choice == 2:  # narrow signed (or unsigned) and full-width loads
            width = rng.choice((8, 16, 32, None) if wide else (8, 16, None))
            return [Const(I32, rng.choice((0, 3, 8, 13)))] + [
                Load(vt, offset=0, width=width, signed=rng.random() < 0.7)
            ]
        if choice == 3:
            source = rng.choice((F32, F64))
            return self.value(source, sub) + [Cvtop(vt, rng.choice(("trunc_s", "trunc_u")), source)]
        if choice == 4:
            return self.value(F64 if wide else F32, sub) + [Cvtop(vt, "reinterpret", F64 if wide else F32)]
        if choice == 5:
            if wide:
                return self.value(I32, sub) + [Cvtop(I64, rng.choice(("extend_s", "extend_u")), I32)]
            return self.value(I64, sub) + [Cvtop(I32, "wrap", I64)]
        if choice == 6:
            return self.value(vt, sub) + [Unop(vt, rng.choice(("clz", "ctz", "popcnt")))]
        if choice == 7:
            return self.host(vt)
        if choice == 8:
            return self.value(vt, sub) + self.value(vt, sub) + self.value(I32, sub) + [WSelect()]
        return self.call(vt, sub)

    def _float(self, vt: ValType, sub: int) -> list:
        rng = self.rng
        choice = rng.randrange(8)
        if choice == 0:
            return self.value(vt, sub) + self.value(vt, sub) + [Binop(vt, rng.choice(_FLOAT_BINOPS))]
        if choice == 1:
            return self.value(vt, sub) + [Unop(vt, rng.choice(_FLOAT_UNOPS))]
        if choice == 2:
            source = rng.choice((I32, I64))
            return self.value(source, sub) + [Cvtop(vt, rng.choice(("convert_s", "convert_u")), source)]
        if choice == 3:
            if vt is F32:
                return self.value(F64, sub) + [Cvtop(F32, "demote", F64)]
            return self.value(F32, sub) + [Cvtop(F64, "promote", F32)]
        if choice == 4:
            source = I32 if vt is F32 else I64
            return self.value(source, sub) + [Cvtop(vt, "reinterpret", source)]
        if choice == 5:
            return [Const(I32, rng.choice((0, 8, 16)))] + [Load(vt, offset=0)]
        if choice == 6:
            return self.host(vt)
        return self.call(vt, sub)

    def host(self, vt: ValType) -> list:
        return [Const(I32, self.rng.randrange(len(_HOST_RESULTS[vt]))), WCall(_HOST[vt])]

    def call(self, vt: ValType, depth: int) -> list:
        """``vt``'s sink applied to a producer: the callee's parameter is
        exactly the producer's value, and so is its result."""

        return self.value(vt, depth) + [WCall(_SINK[vt])]

    def body(self) -> list:
        # Seed memory with the float parameters and an i64, so loads read
        # the entry values back.
        body = [
            Const(I32, 0), LocalGet(1), StoreI(I64),
            Const(I32, 8), LocalGet(3), StoreI(F64),
            Const(I32, 16), LocalGet(2), StoreI(F32),
        ]
        for _ in range(self.rng.randrange(2, 6)):
            vt = self.rng.choice(TYPES)
            body += self.call(vt, 3) + [WDrop()]
        return body + [GlobalGet(_TALLY)]


def _sink(vt: ValType) -> WasmFunction:
    """Publish the parameter in a global, tally its ``eqz`` (an integer
    above its width would read non-zero here and zero on the oracle), then
    return it unchanged."""

    body = [LocalGet(0), GlobalSet(_SEEN[vt])]
    if vt.is_integer:
        body += [LocalGet(0), WTestop(vt), GlobalGet(_TALLY), Binop(I32, "add"), GlobalSet(_TALLY)]
    return WasmFunction(FT((vt,), (vt,)), (), tuple(body + [LocalGet(0)]), name=f"sink_{vt.name.lower()}")


def build_call_module(seed: int) -> WasmModule:
    hosts = tuple(WasmImportedFunction(FT((I32,), (vt,)), "env", f"host_{vt.name.lower()}") for vt in TYPES)
    sinks = tuple(_sink(vt) for vt in TYPES)
    main = WasmFunction(FT(TYPES, (I32,)), (), tuple(_Gen(seed).body()), name="main", exports=("main",))
    zero = {I32: 0, I64: 0, F32: 0.0, F64: 0.0}
    module = WasmModule(
        functions=hosts + sinks + (main,),
        globals=tuple(WasmGlobal(vt, True, (Const(vt, zero[vt]),)) for vt in TYPES + (I32,)),
        memory=WasmMemory(1, 1),
    )
    validate_module(module)
    return module


_HOSTS = {
    ("env", f"host_{vt.name.lower()}"): (lambda results: lambda i: [results[i]])(_HOST_RESULTS[vt])
    for vt in TYPES
}


def _bits(value):
    """Floats by bit pattern (so -0.0 and NaN payloads compare), ints and
    their Python type as they are."""

    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    return (type(value).__name__, value)


def _observe(module, engine: str, args, *, budget=None):
    interp = WasmInterpreter(max_steps=budget, engine=engine)
    instance = interp.instantiate(module, _HOSTS)
    try:
        outcome = ("ok", [_bits(v) for v in interp.invoke(instance, "main", list(args))])
    except WasmTrap as trap:
        outcome = ("trap", str(trap))
    except (OverflowError, ValueError) as exc:
        # f32 overflow and ceil(inf) raise instead of giving IEEE results;
        # after such an internal error the compiled tier's step count is not
        # written back, so only the error and the state are compared.
        return ("error", type(exc).__name__), None, bytes(instance.memory.data), [
            _bits(v) for v in instance.globals
        ]
    return outcome, interp.steps, bytes(instance.memory.data), [_bits(v) for v in instance.globals]


# Entry arguments, normalized or not: the entry normalizes them on every engine.
_ARGS = (
    (5, 7, 1.5, -2.5),
    (-5, -1, 0.1, 0.1),
    (2**32 + 3, 2**64 + 9, -0.0, math.nan),
    (0, 0, math.inf, 1e-320),
)
_ENGINES = ("tree", "flat", "compiled")


class TestCallArgumentDifferential:
    @given(st.integers(0, 2**48), st.sampled_from(_ARGS))
    @settings(max_examples=80, deadline=None)
    def test_engines_agree_with_the_normalizing_tree_walker(self, seed, args):
        module = build_call_module(seed)
        oracle = _observe(module, "tree", args)
        for engine in _ENGINES[1:]:
            assert _observe(module, engine, args) == oracle, f"seed {seed}: {engine} differs from tree"
        # A budget inside the run: the compiled tier deoptimizes mid-call.
        budget = max((oracle[1] or 2) // 2, 1)
        cut = {engine: _observe(module, engine, args, budget=budget) for engine in _ENGINES}
        for engine in _ENGINES[1:]:
            assert cut[engine] == cut["tree"], f"seed {seed}, budget {budget}: {engine} differs"

    def test_the_generator_covers_every_producer_kind(self):
        kinds = set()
        for seed in range(40):
            for function in build_call_module(seed).functions:
                kinds.update(type(instr).__name__ for instr in getattr(function, "body", ()))
        assert {"Binop", "Relop", "Testop", "Load", "Cvtop", "Unop", "WSelect", "WCall"} <= kinds


def test_flat_internal_calls_do_not_renormalize(monkeypatch):
    """Only the entry frame normalizes: a chain of internal calls adds no
    ``_normalize`` call, and an external ``-5`` still arrives as its i32
    bit pattern."""

    identity = WasmFunction(FT((I32,), (I32,)), (), (LocalGet(0),), name="identity")
    main = WasmFunction(FT((I32,), (I32,)), (), (
        LocalGet(0), WCall(0), WCall(0), WCall(0), Const(I32, 1), Binop(I32, "sub"), WCall(0),
    ), name="main", exports=("main",))
    module = WasmModule(functions=(identity, main))
    validate_module(module)
    calls = []
    original = engine_module._normalize

    def counting(valtype, value):
        calls.append(value)
        return original(valtype, value)

    monkeypatch.setattr(engine_module, "_normalize", counting)
    interp = WasmInterpreter(engine="flat")
    instance = interp.instantiate(module)
    assert interp.invoke(instance, "main", [-5]) == [0xFFFFFFFA]
    assert calls == [-5]  # the entry argument only, not the four internal calls
    assert interp.invoke_index(instance, 0, [-5]) == [0xFFFFFFFB]


def test_normalize_matches_the_width_rules():
    from repro.core.semantics import numerics
    from repro.wasm.interpreter import _normalize

    ints = (0, 5, -5, 2**31, 2**32 + 7, -(2**63), 2**64 + 3, True, 2.0, -3.5)
    floats = (0.0, -0.0, 0.1, -2.5, 1e-40, 1e300, math.inf, math.nan, 3, True)
    for vt in TYPES:
        for value in ints if vt.is_integer else floats:
            if vt.is_integer:
                expected = numerics.wrap(int(value), vt.bit_width)
            else:
                expected = numerics.float_canon(float(value), vt.bit_width)
            assert _bits(_normalize(vt, value)) == _bits(expected), (vt, value)
