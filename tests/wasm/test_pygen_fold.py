"""The compiled tier's operand folding (:mod:`repro.wasm.pygen`).

Register-mode translation keeps pure operands as Python expressions and
writes them to their ``s*`` slots only where a value could change or be
observed.  Two things make that sound, and this file checks both:

* every integer producer yields a non-negative, normalized value, which is
  why addresses need no ``< 0`` guard and full-width stores no mask;
* folding never reorders a read past a write.  A seeded generator builds
  function bodies that keep pure operands on the stack across writes to
  the locals and globals they read, across calls to a callee that writes
  globals, across in- and out-of-bounds memory traffic and across branches
  that carry values, and the compiled engine must match the tree walker
  and the flat VM on every step budget (so a deopt fires at every chunk
  start) and at every profiler phase.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.api import CompileConfig
from repro.core.semantics import numerics
from repro.core.typing.errors import WasmError
from repro.ffi import counter_program, fig3_programs
from repro.obs import StepProfiler
from repro.wasm import (
    Binop,
    Const,
    Cvtop,
    GlobalGet,
    GlobalSet,
    Load,
    LocalGet,
    LocalSet,
    LocalTee,
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
    WasmTable,
    WasmTrap,
    WBlock,
    WBrIf,
    WBrTable,
    WCall,
    WCallIndirect,
    WIf,
    WLoop,
    translate_module,
    validate_module,
)
from repro.wasm.ast import MemoryGrow, MemorySize, WDrop, WSelect
from workload_builders import synthetic_module

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64
FT = WasmFuncType

EDGES = (0, 1, 2**31 - 1, 2**31, 2**32 - 1, 2**63, 2**64 - 1)
FLOAT_EDGES = (0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 3e9, -3e9, 1e30, math.inf, -math.inf, math.nan)
# Raw host-call results, before the generated code normalizes them.
HOST_RESULTS = (0, 1, -1, -(2**31), 2**31, 2**32 + 5, 2**64 - 1, -(2**63))

_INT_BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr_u", "shr_s", "rotl", "rotr",
               "div_s", "div_u", "rem_s", "rem_u")
_RELOPS = ("eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u", "ge_s", "ge_u")


# ---------------------------------------------------------------------------
# Every integer producer is non-negative
# ---------------------------------------------------------------------------


def _producer_module():
    """One exported function per integer producer: name -> (function,
    argument tuples)."""

    producers = {}

    def add(name, params, results, body, inputs):
        producers[name] = (WasmFunction(FT(params, results), (), tuple(body), exports=(name,)), inputs)

    pairs = [(a, b) for a in EDGES for b in EDGES]
    singles = [(a,) for a in EDGES]
    floats = [(x,) for x in FLOAT_EDGES]
    for vt in (I32, I64):
        tag = vt.name.lower()
        add(f"param.{tag}", (vt,), (vt,), [LocalGet(0)], singles)
        for op in _INT_BINOPS:
            add(f"{tag}.{op}", (vt, vt), (vt,), [LocalGet(0), LocalGet(1), Binop(vt, op)], pairs)
        for op in _RELOPS:
            add(f"{tag}.{op}", (vt, vt), (I32,), [LocalGet(0), LocalGet(1), Relop(vt, op)], pairs)
        add(f"{tag}.eqz", (vt,), (I32,), [LocalGet(0), WTestop(vt)], singles)
        for op in ("clz", "ctz", "popcnt"):
            add(f"{tag}.{op}", (vt,), (vt,), [LocalGet(0), Unop(vt, op)], singles)
        for source in (F32, F64):
            for op in ("trunc_s", "trunc_u"):
                add(f"{tag}.{op}.{source.name.lower()}", (source,), (vt,),
                    [LocalGet(0), Cvtop(vt, op, source)], floats)
    add("i32.wrap", (I64,), (I32,), [LocalGet(0), Cvtop(I32, "wrap", I64)], singles)
    for op in ("extend_s", "extend_u"):
        add(f"i64.{op}", (I32,), (I64,), [LocalGet(0), Cvtop(I64, op, I32)], singles)
    add("i32.reinterpret", (F32,), (I32,), [LocalGet(0), Cvtop(I32, "reinterpret", F32)], floats)
    add("i64.reinterpret", (F64,), (I64,), [LocalGet(0), Cvtop(I64, "reinterpret", F64)], floats)
    # Loads read back an edge value stored at address 8.
    loads = [(I32, None, False), (I64, None, False)]
    loads += [(I32, width, signed) for width in (8, 16) for signed in (False, True)]
    loads += [(I64, width, signed) for width in (8, 16, 32) for signed in (False, True)]
    for vt, width, signed in loads:
        name = f"load.{vt.name.lower()}.{width}.{'s' if signed else 'u'}"
        add(name, (I64,), (vt,), [
            Const(I32, 8), LocalGet(0), StoreI(I64),
            Const(I32, 8), Load(vt, offset=0, width=width, signed=signed),
        ], singles)
    add("memory.size", (), (I32,), [MemorySize()], [()])
    add("memory.grow", (I32,), (I32,), [LocalGet(0), MemoryGrow()], singles)
    functions = [
        WasmImportedFunction(FT((I32,), (I32,)), "env", "host32"),
        WasmImportedFunction(FT((I32,), (I64,)), "env", "host64"),
    ]
    add("host.i32", (I32,), (I32,), [LocalGet(0), WCall(0)], [(i,) for i in range(len(HOST_RESULTS))])
    add("host.i64", (I32,), (I64,), [LocalGet(0), WCall(1)], [(i,) for i in range(len(HOST_RESULTS))])
    functions += [function for function, _inputs in producers.values()]
    module = WasmModule(functions=tuple(functions), memory=WasmMemory(1, 2))
    validate_module(module)
    return module, {name: inputs for name, (_function, inputs) in producers.items()}


_HOSTS = {
    ("env", "host32"): lambda i: [HOST_RESULTS[i]],
    ("env", "host64"): lambda i: [HOST_RESULTS[i]],
}


def _call(interp, instance, name, args):
    try:
        return "ok", interp.invoke(instance, name, list(args))
    except WasmTrap as trap:
        return "trap", str(trap)


def test_every_integer_producer_is_non_negative():
    module, cases = _producer_module()
    assert set(translate_module(module).modes) == {None, "register"}
    compiled = WasmInterpreter(engine="compiled")
    flat = WasmInterpreter(engine="flat")
    compiled_inst = compiled.instantiate(module, _HOSTS)
    flat_inst = flat.instantiate(module, _HOSTS)
    checked = 0
    for name, inputs in cases.items():
        (function,) = [f for f in module.functions if name in getattr(f, "exports", ())]
        (result_type,) = function.functype.results
        bound = 1 << result_type.bit_width
        for args in inputs:
            outcome = _call(compiled, compiled_inst, name, args)
            assert outcome == _call(flat, flat_inst, name, args), (name, args)
            if outcome[0] == "ok":
                (value,) = outcome[1]
                assert type(value) is int and 0 <= value < bound, (name, args, value)
                checked += 1
    assert checked > 2000


def test_numerics_helpers_the_emitter_calls_are_non_negative():
    for width in (32, 64):
        mask = (1 << width) - 1
        values = sorted({edge & mask for edge in EDGES})
        for a in values:
            for fn in (numerics.int_clz, numerics.int_ctz, numerics.int_popcnt):
                assert 0 <= fn(a, width) <= mask
            for b in values:
                for fn in (numerics.int_rotl, numerics.int_rotr, numerics.int_shr_s):
                    assert 0 <= fn(a, b, width) <= mask
                for fn in (numerics.int_div_s, numerics.int_div_u, numerics.int_rem_s, numerics.int_rem_u):
                    try:
                        assert 0 <= fn(a, b, width) <= mask
                    except numerics.NumericTrap:
                        pass


_REFERENCE_RELOPS = {
    "eq": lambda x, y: x == y,
    "ne": lambda x, y: x != y,
    "lt": lambda x, y: x < y,
    "gt": lambda x, y: x > y,
    "le": lambda x, y: x <= y,
    "ge": lambda x, y: x >= y,
}


@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("op", sorted(_REFERENCE_RELOPS))
def test_int_relop_matches_python_comparison(op, signed, width):
    """``int_relop`` against Python's own comparison of the operands read
    as ``width``-bit signed or unsigned values, over the raw edge inputs
    (so inputs wider than ``width`` are wrapped first)."""

    convert = numerics.to_signed if signed else numerics.to_unsigned
    for a in EDGES:
        for b in EDGES:
            expected = int(_REFERENCE_RELOPS[op](convert(a, width), convert(b, width)))
            assert numerics.int_relop(op, a, b, width, signed) == expected, (a, b)


# ---------------------------------------------------------------------------
# A generator of bodies that stress folding
# ---------------------------------------------------------------------------

# Locals 0..1: parameters.  2..3: data.  4: the loop counter, which only
# loops write.  Few locals, so a write often hits one still on the stack.
_DATA_LOCALS = (0, 1, 2, 3)
_COUNTER = 4
_N_LOCALS = 5
_CALLEE = 0  # writes both globals
_MAIN = 1
_CALLEE_TYPE = FT((I32,), (I32,))
_CONSTS = (0, 1, 2, 3, 7, 0xFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0xFFF0)
_ADDRESS_MASK = 0xFFFC
_FOLD_BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr_u", "shr_s", "rotl", "div_s", "rem_u")
_LOADS = ((None, False), (8, True), (8, False), (16, True), (16, False))
_STORE_WIDTHS = (None, 8, 16)
#: Step cap of an unbudgeted run (generated loops run at most 3 turns).
_STEP_CAP = 100_000


class _Gen:
    """``expr`` builds code pushing one i32, ``stmt`` code with no net stack
    effect; ``in_loop`` keeps loops from nesting (they share one counter)."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def leaf(self) -> list:
        rng = self.rng
        choice = rng.randrange(5)
        if choice == 0:
            return [Const(I32, rng.choice(_CONSTS))]
        if choice == 1:
            return [GlobalGet(rng.randrange(2))]
        return [LocalGet(rng.choice(_DATA_LOCALS))]

    def address(self, depth: int, in_loop: bool) -> list:
        """Usually masked into the page, sometimes raw (and then almost
        always out of bounds)."""

        if self.rng.random() < 0.8:
            return self.expr(depth, in_loop) + [Const(I32, _ADDRESS_MASK), Binop(I32, "and")]
        return self.expr(depth, in_loop)

    def write(self, depth: int, in_loop: bool) -> list:
        """A statement, most often a write to a local or global."""

        rng = self.rng
        if rng.random() < 0.6:
            value = self.expr(max(depth - 1, 0), in_loop)
            if rng.random() < 0.7:
                return value + [LocalSet(rng.choice(_DATA_LOCALS))]
            return value + [GlobalSet(rng.randrange(2))]
        return self.stmt(depth, in_loop)

    def expr(self, depth: int, in_loop: bool = False) -> list:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.2:
            return self.leaf()
        choice = rng.randrange(13)
        sub = depth - 1
        expr = lambda: self.expr(sub, in_loop)  # noqa: E731
        if choice in (0, 1, 2):  # an operand stays pending across a write
            return self.leaf() + self.write(sub, in_loop) + expr() + [Binop(I32, rng.choice(_FOLD_BINOPS))]
        if choice == 3:
            if rng.random() < 0.3:
                return expr() + [WTestop(I32)]
            return self.leaf() + self.write(sub, in_loop) + expr() + [Relop(I32, rng.choice(_RELOPS))]
        if choice == 4:
            return expr() + [LocalTee(rng.choice(_DATA_LOCALS))]
        if choice == 5:
            width, signed = rng.choice(_LOADS)
            offset = rng.choice((0, 0, 4, 0xFFFC))
            return self.address(sub, in_loop) + [Load(I32, offset=offset, width=width, signed=signed)]
        if choice == 6:
            return self.leaf() + expr() + self.write(sub, in_loop) + expr() + [WSelect()]
        if choice == 7:  # the callee writes both globals
            if rng.random() < 0.7:
                return self.leaf() + expr() + [WCall(_CALLEE), Binop(I32, "sub")]
            return self.leaf() + expr() + [Const(I32, 0), WCallIndirect(_CALLEE_TYPE), Binop(I32, "xor")]
        if choice == 8:  # br_if carrying a value out of a block
            tail = [WDrop()] + expr() if rng.random() < 0.5 else []
            return [WBlock(FT((), (I32,)), tuple(
                self.leaf() + self.write(sub, in_loop) + expr() + [WBrIf(0)] + tail
            ))]
        if choice == 9:  # br_table carrying a value to either of two blocks
            depths = tuple(rng.choice((0, 1)) for _ in range(rng.randrange(3)))
            inner = WBlock(FT((), (I32,)), tuple(
                self.leaf() + self.write(sub, in_loop) + expr() + [WBrTable(depths, rng.choice((0, 1)))]
            ))
            return [WBlock(FT((), (I32,)), (inner, *expr(), Binop(I32, "xor")))]
        if choice == 10:  # if with a parameter
            arms = [
                tuple(self.write(sub, in_loop) + self.leaf() + [Binop(I32, rng.choice(_FOLD_BINOPS))])
                for _ in range(2)
            ]
            return self.leaf() + expr() + [WIf(FT((I32,), (I32,)), *arms)]
        if choice == 11 and not in_loop:  # a short counted loop
            body = (self.write(sub, True) + self.expr(sub, True)
                    + [LocalGet(_COUNTER), Const(I32, 1), Binop(I32, "sub"), LocalTee(_COUNTER), WBrIf(0)])
            return [Const(I32, rng.randrange(1, 4)), LocalSet(_COUNTER), WLoop(FT((), (I32,)), tuple(body))]
        if choice == 12:
            if rng.random() < 0.5:
                return [MemorySize()]
            return expr() + [Const(I32, 1), Binop(I32, "and"), MemoryGrow()]
        return expr()

    def stmt(self, depth: int, in_loop: bool = False) -> list:
        rng = self.rng
        sub = max(depth - 1, 0)
        choice = rng.randrange(6 if depth > 0 else 4)
        if choice == 0:
            return self.expr(sub, in_loop) + [LocalSet(rng.choice(_DATA_LOCALS))]
        if choice == 1:
            return self.expr(sub, in_loop) + [GlobalSet(rng.randrange(2))]
        if choice == 2:
            width = rng.choice(_STORE_WIDTHS)
            offset = rng.choice((0, 0, 4, 0xFFFC))
            return (self.address(sub, in_loop) + self.expr(sub, in_loop)
                    + [StoreI(I32, offset=offset, width=width)])
        if choice == 3:
            return self.expr(sub, in_loop) + [WCall(_CALLEE), WDrop()]
        if choice == 4:
            return self.expr(sub, in_loop) + [
                WIf(FT((), ()), tuple(self.write(sub, in_loop)), tuple(self.write(sub, in_loop)))
            ]
        return [WBlock(FT((), ()), tuple(
            self.write(sub, in_loop) + self.leaf() + [WBrIf(0)] + self.write(sub, in_loop)
        ))]

    def body(self) -> list:
        body = []
        for _ in range(self.rng.randrange(1, 4)):
            body += self.stmt(2)
        return body + self.expr(3) + self.expr(2) + [Binop(I32, "add")]


def build_fold_module(seed: int) -> WasmModule:
    callee = WasmFunction(_CALLEE_TYPE, (), (
        GlobalGet(0), LocalGet(0), Binop(I32, "add"), GlobalSet(0),
        GlobalGet(1), Const(I32, 1), Binop(I32, "add"), GlobalSet(1),
        LocalGet(0), Const(I32, 3), Binop(I32, "mul"),
    ), name="callee")
    main = WasmFunction(
        FT((I32, I32), (I32,)), (I32,) * (_N_LOCALS - 2), tuple(_Gen(seed).body()),
        name="main", exports=("main",),
    )
    module = WasmModule(
        functions=(callee, main),
        globals=(WasmGlobal(I32, True, (Const(I32, 7),)), WasmGlobal(I32, True, (Const(I32, 0),))),
        memory=WasmMemory(1, 2),
        table=WasmTable((_CALLEE,)),
    )
    validate_module(module)
    return module


def _observe(module, engine, args, *, budget=None, interval=None):
    interp = WasmInterpreter(max_steps=budget, engine=engine)
    inst = interp.instantiate(module)
    profiler = StepProfiler(interval=interval, keep_trace=True).install(interp) if interval else None
    outcome = _call(interp, inst, "main", args)
    return (
        outcome, interp.steps, bytes(inst.memory.data), list(inst.globals),
        profiler.trace if profiler else None,
    )


_ENGINES = ("tree", "flat", "compiled")


class TestFoldingDifferential:
    @given(st.integers(0, 2**48), st.sampled_from(EDGES), st.sampled_from(EDGES))
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_on_every_budget_and_phase(self, seed, x, y):
        module = build_fold_module(seed)
        assert translate_module(module).modes[_MAIN] == "register"
        args = (x, y)
        full = {engine: _observe(module, engine, args, budget=_STEP_CAP) for engine in _ENGINES}
        assert full["flat"][1] < _STEP_CAP
        for engine in _ENGINES:
            assert full[engine] == full["flat"], f"seed {seed}: {engine} differs from flat"
        runs = [{"budget": budget} for budget in range(1, full["flat"][1] + 1)]
        runs += [{"interval": interval} for interval in (1, 2, 3)]
        for run in runs:
            observed = {engine: _observe(module, engine, args, **run) for engine in _ENGINES}
            for engine in _ENGINES:
                assert observed[engine] == observed["flat"], f"seed {seed}, {run}: {engine} differs from flat"


def test_arity_mismatched_entry_calls_are_rejected():
    # Wasm has no call with surplus or missing arguments: every engine
    # rejects one at the entry with the same WasmError, before it executes
    # a step or touches memory.  The exact-arity call still agrees.
    main = WasmFunction(FT((I32,), (I32,)), (I32, I32), (
        LocalGet(1), LocalGet(2), StoreI(I32),
        LocalGet(1), Load(I32), LocalGet(0), Binop(I32, "add"),
    ), name="main", exports=("main",))
    module = WasmModule(functions=(main,), memory=WasmMemory(1, 1))
    validate_module(module)
    for args in ([], [8], [8, 16], [8, 16, 7], [8, -4, 7], [8, 16, -1], [8, 2**40, 1], [8, 16, 2**33 + 5],
                 [8, 16, 2.5], [8, True, 3]):
        observed = {}
        for engine in _ENGINES:
            interp = WasmInterpreter(engine=engine)
            inst = interp.instantiate(module)
            try:
                outcome = ("ok", interp.invoke(inst, "main", args))
            except WasmError as error:
                assert not isinstance(error, WasmTrap), (args, engine)
                outcome = ("error", str(error))
            observed[engine] = (outcome, interp.steps, bytes(inst.memory.data))
        if len(args) == 1:
            assert observed["flat"][0] == ("ok", [8])
        else:
            message = f"function 'main' takes 1 argument, called with {len(args)}"
            assert observed["flat"] == (("error", message), 0, bytes(65536)), args
        for engine in _ENGINES:
            assert observed[engine] == observed["flat"], (args, engine)


def test_long_pure_chains_stay_compilable():
    # One chunk folding hundreds of operations would nest as many
    # parentheses, past what CPython's parser accepts; deep operands go to
    # their slots instead.
    chain = []
    for step in range(300):
        chain += [Const(I32, step * 2654435761 & 0xFFFFFFFF), Binop(I32, ("add", "xor", "mul")[step % 3])]
    conditions = []
    for _ in range(60):
        conditions += [LocalGet(1), LocalGet(0), LocalGet(1), Relop(I32, "lt_u"), WSelect()]
    main = WasmFunction(FT((I32, I32), (I32,)), (), (
        LocalGet(0), *chain, *conditions,
    ), name="main", exports=("main",))
    module = WasmModule(functions=(main,), memory=WasmMemory(1, 1))
    validate_module(module)
    assert translate_module(module).modes == ("register",)
    for args in ((3, 5), (2**32 - 1, 0)):
        observed = {engine: _observe(module, engine, args) for engine in _ENGINES}
        assert observed["compiled"] == observed["flat"] == observed["tree"]


@pytest.mark.parametrize("opt_level", ["O0", "O1", "O2"])
def test_pipeline_programs_translate_every_function(opt_level):
    # Lowered code is validated, so its stack depth is static at every
    # instruction: no function of a pipeline program may be left to the
    # flat VM, which would run it at a fraction of the compiled speed.
    programs = {
        "synthetic seed 1": synthetic_module(1, functions=40),
        "synthetic seed 3": synthetic_module(3, functions=40),
        "Fig. 3 (safe)": fig3_programs()[1],
        "Fig. 9 counter": counter_program(),
    }
    config = CompileConfig(opt_level=opt_level, cache="none")
    for name, program in programs.items():
        wasm = api.compile(program, config).wasm
        modes = translate_module(wasm).modes
        defined = [mode for function, mode in zip(wasm.functions, modes) if isinstance(function, WasmFunction)]
        assert defined and set(defined) == {"register"}, name
