"""Tests for the compiled execution tier (:mod:`repro.wasm.pygen`).

The engine-agreement suites (``test_engines.py``, the property suite, the
profiler parity tests) already pin the compiled tier's semantics against the
flat VM and the tree walker; this file covers the translator's own
machinery — the register stack layout, the flat-VM route for functions
whose stack depth cannot be proven, the per-module translation memo, the
content-keyed ``translate`` cache stage, and the facade's ``translate``
diagnostics — plus compiled-engine invalidation on patched function tables.
"""

import re

import pytest

from repro import api
from repro.api import CompileConfig
from repro.ml import BinOp, IntLit, MLFunction, TInt, Var, ml_module
from repro.runtime import ModuleCache
from repro.lower import lower_module
from repro.obs import StepProfiler
from repro.wasm import (
    Binop,
    Const,
    Cvtop,
    FlatVMEngine,
    GlobalGet,
    GlobalSet,
    Load,
    LocalGet,
    LocalSet,
    LocalTee,
    Relop,
    StoreI,
    Testop as WTestop,
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
    WBr,
    WBrIf,
    WCall,
    WCallIndirect,
    WIf,
    WLoop,
    translate_module,
    validate_module,
)
from repro.wasm import pygen
from repro.wasm.decode import decode_module
from repro.wasm.pygen import ModuleTranslation
from workload_builders import synthetic_module

I32 = ValType.I32
I64 = ValType.I64
F32 = ValType.F32
FT = WasmFuncType


def sum_module():
    """sum(n) = n + (n-1) + ... + 1, via helper calls: loop + call + branch."""

    helper = WasmFunction(FT((I32, I32), (I32,)), (), (
        LocalGet(0), LocalGet(1), Binop(I32, "add"),
    ), name="acc")
    main = WasmFunction(FT((I32,), (I32,)), (I32,), (
        Const(I32, 0), LocalSet(1),
        WBlock(FT((), ()), (
            WLoop(FT((), ()), (
                LocalGet(0), WTestop(I32), WBrIf(1),
                LocalGet(1), LocalGet(0), WCall(0), LocalSet(1),
                LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                WBr(0),
            )),
        )),
        LocalGet(1),
    ), name="sum", exports=("sum",))
    module = WasmModule(functions=(helper, main))
    validate_module(module)
    return module


class TestTranslation:
    def test_translate_module_memoizes_per_object(self):
        module = sum_module()
        first = translate_module(module)
        assert translate_module(module) is first
        assert isinstance(first, ModuleTranslation)
        assert first.function_count == 2
        assert first.modes == ("register", "register")
        assert "def _f0" in first.source and "def _f1" in first.source

    def test_patched_function_slot_retranslates(self):
        module = sum_module()
        interp = WasmInterpreter(engine="compiled")
        inst = interp.instantiate(module)
        assert interp.invoke(inst, "sum", [3]) == [6]
        # Patch the helper to multiply instead of add: the compiled code for
        # the whole instance must be rebuilt, not just the patched slot.
        inst.funcs[0] = WasmFunction(FT((I32, I32), (I32,)), (), (
            LocalGet(0), LocalGet(1), Binop(I32, "mul"),
        ), name="acc")
        assert interp.invoke(inst, "sum", [3]) == [0]  # 0*3... stays 0
        inst.funcs[0] = WasmFunction(FT((I32, I32), (I32,)), (), (
            LocalGet(1),
        ), name="acc")
        assert interp.invoke(inst, "sum", [3]) == [1]  # last i is 1

    def test_translation_is_shared_across_instances(self):
        module = sum_module()
        interp = WasmInterpreter(engine="compiled")
        first = interp.instantiate(module)
        second = interp.instantiate(module)
        assert first.compiled_py.targets[1] is second.compiled_py.targets[1]


_COUNTDOWN_FROM = 20

# The instruction under test runs once per turn of a countdown loop whose
# body is one step chunk, and traps (or, for ``br_if``, leaves the loop) only
# when the counter reaches zero; at least seven straight-line instructions
# follow it in the chunk.  Each entry: (operands + instruction + code leaving
# one i32, the unbudgeted outcome).
_MID_CHUNK_CASES = {
    "i32.load out of bounds": (
        [LocalGet(0), WTestop(I32), Load(I32, offset=0xFFFC)],
        ("trap", "out-of-bounds memory access at 65533 (+4), memory is 65536 bytes"),
    ),
    "i64.store16 out of bounds": (
        [LocalGet(0), WTestop(I32), Const(I64, 0xABCD), StoreI(I64, offset=0xFFFE, width=16), LocalGet(0)],
        ("trap", "out-of-bounds memory access at 65535 (+2), memory is 65536 bytes"),
    ),
    "i32.div_s by zero": (
        [Const(I32, 100), LocalGet(0), Binop(I32, "div_s")],
        ("trap", "integer division by zero"),
    ),
    "i32.trunc_f32_s overflow": (
        [
            LocalGet(0), WTestop(I32), Cvtop(F32, "convert_u", I32),
            Const(F32, 3e9), Binop(F32, "mul"), Cvtop(I32, "trunc_s", F32),
        ],
        ("trap", "integer overflow in float-to-int conversion"),
    ),
    "br_if taken": (
        [LocalGet(0), WTestop(I32), WBrIf(1), LocalGet(0)],
        ("ok", [sum(range(1, _COUNTDOWN_FROM + 1))]),
    ),
}


def _countdown_module(hot):
    """``main(n)``: each turn stores ``n`` at ``4 + 4 * (n % 8)``, runs
    ``hot``, adds its result to an accumulator and decrements ``n``."""

    body = (
        WBlock(FT((), ()), (
            WLoop(FT((), ()), (
                LocalGet(0), Const(I32, 8), Binop(I32, "rem_u"), Const(I32, 4), Binop(I32, "mul"),
                LocalGet(0), StoreI(I32, offset=4),
                *hot,
                LocalGet(1), Binop(I32, "add"), LocalSet(1),
                LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                WBr(0),
            )),
        )),
        LocalGet(1),
    )
    main = WasmFunction(FT((I32,), (I32,)), (I32,), body, name="main", exports=("main",))
    module = WasmModule(functions=(main,), memory=WasmMemory(1, 1))
    validate_module(module)
    return module


def _observe(engine, module, budget):
    interp = WasmInterpreter(max_steps=budget, engine=engine)
    inst = interp.instantiate(module)
    try:
        outcome = ("ok", interp.invoke(inst, "main", [_COUNTDOWN_FROM]))
    except WasmTrap as trap:
        outcome = ("trap", str(trap))
    return outcome, interp.steps, bytes(inst.memory.data)


class TestMidChunkTraps:
    """Trap and exit paths inside a step chunk observe the exact step.

    The compiled tier counts a whole chunk before running it, so a trap or a
    taken ``br_if`` in the middle must take back the instructions after it.
    Every case runs on the tree walker, the flat VM and the compiled tier,
    unbudgeted and under budgets landing all over the loop.
    """

    @pytest.mark.parametrize("budget", [None, 1, 2, 3, 5, 17, 100, 399, 701])
    @pytest.mark.parametrize("case", sorted(_MID_CHUNK_CASES))
    def test_engines_agree(self, case, budget):
        hot, unbudgeted = _MID_CHUNK_CASES[case]
        module = _countdown_module(hot)
        observed = {engine: _observe(engine, module, budget) for engine in ("tree", "flat", "compiled")}
        reference = observed["flat"]
        for engine, outcome in observed.items():
            assert outcome[:2] == reference[:2], f"{case}, budget {budget}: {engine} {outcome[:2]} vs flat {reference[:2]}"
            assert outcome[2] == reference[2], f"{case}, budget {budget}: {engine} memory differs from flat"
        if budget is None:
            assert reference[0] == unbudgeted
        elif reference[0] == ("trap", "step budget exhausted"):
            assert reference[1] == budget + 1


def _counter_global():
    return WasmGlobal(I32, True, (Const(I32, 5),))


def _loop_exit_module():
    """``main(n)``: a countdown loop whose body is one step chunk that
    stores to memory, bumps a global, runs the three inlined conversions and
    leaves the loop through a ``br_if`` in its middle."""

    body = (
        WBlock(FT((), ()), (
            WLoop(FT((), ()), (
                LocalGet(0), Const(I32, 4), Binop(I32, "mul"), LocalGet(0), StoreI(I32, offset=0),
                GlobalGet(0), LocalGet(0), Binop(I32, "add"), GlobalSet(0),
                LocalGet(0), Const(I32, 3), Binop(I32, "sub"), Cvtop(I64, "extend_s", I32),
                LocalGet(0), Cvtop(I64, "extend_u", I32), Binop(I64, "mul"),
                Cvtop(I32, "wrap", I64), LocalGet(1), Binop(I32, "add"), LocalSet(1),
                LocalGet(0), WTestop(I32), WBrIf(1),
                LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                LocalGet(1), Const(I32, 3), Binop(I32, "add"), LocalSet(1),
                WBr(0),
            )),
        )),
        LocalGet(1), GlobalGet(0), Binop(I32, "xor"),
    )
    main = WasmFunction(FT((I32,), (I32,)), (I32,), body, name="main", exports=("main",))
    return WasmModule(functions=(main,), globals=(_counter_global(),), memory=WasmMemory(1, 1))


def _leaf(name="leaf"):
    """A twelve-instruction straight-line chunk that also bumps a global."""

    return WasmFunction(FT((I32, I32), (I32,)), (), (
        LocalGet(0), LocalGet(1), Binop(I32, "add"), Const(I32, 7), Binop(I32, "mul"),
        LocalGet(0), Binop(I32, "xor"),
        GlobalGet(0), Const(I32, 1), Binop(I32, "add"), GlobalSet(0),
        Const(I32, 0x7FFFFFFF), Binop(I32, "and"),
    ), name=name, exports=(name,))


def _calling_loop(call):
    """``main(n)``: ``acc = call(acc, n)`` while ``n`` counts down."""

    return WasmFunction(FT((I32,), (I32,)), (I32,), (
        WBlock(FT((), ()), (
            WLoop(FT((), ()), (
                LocalGet(1), LocalGet(0), *call, LocalSet(1),
                LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                LocalGet(0), Const(I32, 0), Relop(I32, "ne"), WBrIf(0),
            )),
        )),
        LocalGet(1),
    ), name="main", exports=("main",))


def _callee_module():
    """The callee holds most of the steps; ``main`` stays a thin loop."""

    return WasmModule(functions=(_leaf(), _calling_loop([WCall(0)])), globals=(_counter_global(),))


def _caller_module():
    """``main`` runs long chunks of its own around a direct and an indirect
    call, so samples landing in ``main`` hand it to the flat VM mid-loop.
    A value waits under the loop, so its labels have a non-zero base."""

    main = WasmFunction(FT((I32,), (I32,)), (I32,), (
        Const(I32, 1000),
        WBlock(FT((), ()), (
            WLoop(FT((), ()), (
                LocalGet(1), LocalGet(0), Binop(I32, "add"), Const(I32, 5), Binop(I32, "mul"),
                LocalGet(0), WCall(0), LocalSet(1),
                LocalGet(1), Const(I32, 3), Binop(I32, "xor"), LocalGet(0),
                Const(I32, 0), WCallIndirect(FT((I32, I32), (I32,))), LocalSet(1),
                LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalTee(0), WBrIf(0),
            )),
        )),
        LocalGet(1), Binop(I32, "add"),
    ), name="main", exports=("main",))
    return WasmModule(
        functions=(_leaf(), _leaf("other"), main),
        globals=(_counter_global(),),
        table=WasmTable((1,)),
    )


def _reentry_module():
    """``main`` calls a host import that re-enters the engine to run the
    exported ``leaf`` before answering."""

    imported = WasmImportedFunction(FT((I32, I32), (I32,)), "env", "cb")
    return WasmModule(
        functions=(imported, _leaf(), _calling_loop([WCall(0)])), globals=(_counter_global(),)
    )


def _flat_routed_module():
    """``main`` is valid; its callee ``leaf`` first leaves a block with a
    surplus value, so its stack depth cannot be proven and every call runs
    it on the compiled engine's flat VM."""

    leaf = _leaf()
    callee = WasmFunction(
        leaf.functype, leaf.locals, (WBlock(FT((), ()), (Const(I32, 9),)), *leaf.body), name="leaf"
    )
    return WasmModule(functions=(callee, _calling_loop([WCall(0)])), globals=(_counter_global(),))


def _reentry_hosts(interp, holder):
    def cb(acc, n):
        (value,) = interp.invoke(holder["inst"], "leaf", [acc, n])
        return [value + 1]

    return {("env", "cb"): cb}


# name: (module factory, main's argument, host-import factory or None)
_DEOPT_FIXTURES = {
    "loop with a taken mid-chunk br_if": (_loop_exit_module, 6, None),
    "callee deopts under a compiled caller": (_callee_module, 5, None),
    "deopted caller calls compiled functions": (_caller_module, 4, None),
    "host import re-enters the engine": (_reentry_module, 4, _reentry_hosts),
    "compiled caller calls a flat-routed callee": (_flat_routed_module, 8, None),
}
_FLAT_ROUTED = "compiled caller calls a flat-routed callee"  # not valid Wasm

_DEOPT_ENGINES = ("flat", "compiled")


def _deopt_module(name):
    module = _DEOPT_FIXTURES[name][0]()
    if name != _FLAT_ROUTED:
        validate_module(module)
    return module


def _observe_deopt(name, module, engine, *, budget=None, interval=None):
    _factory, arg, hosts = _DEOPT_FIXTURES[name]
    interp = WasmInterpreter(max_steps=budget, engine=engine)
    holder = {}
    holder["inst"] = inst = interp.instantiate(module, hosts(interp, holder) if hosts else None)
    profiler = StepProfiler(interval=interval, keep_trace=True).install(interp) if interval else None
    try:
        outcome = ("ok", interp.invoke(inst, "main", [arg]))
    except WasmTrap as trap:
        outcome = ("trap", str(trap))
    memory = bytes(inst.memory.data) if inst.memory is not None else None
    return outcome, interp.steps, memory, list(inst.globals), profiler.trace if profiler else None


@pytest.fixture
def resumes(monkeypatch):
    """Every activation the compiled engines hand to the flat VM, as
    ``(function index, pc)``."""

    seen = []

    def spy(self, instance, decoded, index, args, resume=None):
        if resume is not None:
            seen.append((index, resume[0]))
        return FlatVMEngine._run(self, instance, decoded, index, args, resume)

    monkeypatch.setattr(pygen._FlatTwin, "_run", spy)
    return seen


class TestDeopt:
    """A budget or sample inside a step chunk resumes the activation on the
    flat VM at the chunk's first pc; everything observable must match the
    flat engine on every budget and at every sampling phase."""

    @pytest.mark.parametrize("name", sorted(_DEOPT_FIXTURES))
    def test_every_budget_and_interval_matches_flat(self, name, resumes):
        modules = {engine: _deopt_module(name) for engine in _DEOPT_ENGINES}
        modes = translate_module(modules["compiled"]).modes
        assert modes[-1] == "register"  # main
        assert ("flat" in modes) == (name == _FLAT_ROUTED)
        total = _observe_deopt(name, modules["flat"], "flat")[1]
        runs = [{"budget": budget} for budget in range(1, total + 2)]
        runs += [{"interval": interval} for interval in range(1, 9)]
        for run in runs:
            observed = {
                engine: _observe_deopt(name, module, engine, **run) for engine, module in modules.items()
            }
            for engine in _DEOPT_ENGINES[1:]:
                assert observed[engine] == observed["flat"], f"{name}, {run}: {engine} differs from flat"
        assert resumes, "no run deoptimized"

    def test_budget_trap_inside_a_chunk_deoptimizes(self, resumes):
        module = _deopt_module("loop with a taken mid-chunk br_if")
        flat = _deopt_module("loop with a taken mid-chunk br_if")
        # Step 10 is in the middle of the loop body's first turn.
        budget = 9
        expected = _observe_deopt("loop with a taken mid-chunk br_if", flat, "flat", budget=budget)
        assert expected[:2] == (("trap", "step budget exhausted"), budget + 1)
        assert _observe_deopt("loop with a taken mid-chunk br_if", module, "compiled", budget=budget) == expected
        assert resumes == [(0, 2)]  # the loop body's first pc

    def test_callee_sample_leaves_the_caller_compiled(self, resumes):
        # With one sample per run, a sample landing in ``leaf`` deopts only
        # ``leaf``: ``main`` sees a stale boundary when it returns, and the
        # guard must re-read it instead of deoptimizing ``main`` too.
        name = "callee deopts under a compiled caller"
        flat = _deopt_module(name)
        compiled = _deopt_module(name)
        total = _observe_deopt(name, flat, "flat")[1]
        in_leaf = 0
        for interval in range(total // 2 + 1, total + 1):
            expected = _observe_deopt(name, flat, "flat", interval=interval)
            del resumes[:]
            assert _observe_deopt(name, compiled, "compiled", interval=interval) == expected
            ((_step, function),) = expected[4]
            if function == "leaf":
                in_leaf += 1
                assert [index for index, _pc in resumes] in ([], [0]), f"interval {interval}: {resumes}"
        assert in_leaf > 0


# Bodies of ``f(x)`` that register mode rejects; none is valid Wasm.
_UNPROVABLE = {
    "block left with a surplus value": (
        WBlock(FT((), ()), (Const(I32, 7),)), LocalGet(0), Const(I32, 5), Binop(I32, "add"),
    ),
    "if whose then-arm leaves two values": (
        LocalGet(0), WIf(FT((), (I32,)), (Const(I32, 1), Const(I32, 2)), (Const(I32, 3),)),
        Const(I32, 10), Binop(I32, "add"),
    ),
    "i32.add on one operand": (Const(I32, 1), Binop(I32, "add")),
}


def _unprovable_module(case):
    return WasmModule(functions=(WasmFunction(FT((I32,), (I32,)), (), _UNPROVABLE[case], exports=("f",)),))


def _observe_unprovable(module, engine, arg, budget):
    interp = WasmInterpreter(max_steps=budget, engine=engine)
    inst = interp.instantiate(module)
    try:
        outcome = ("ok", interp.invoke(inst, "f", [arg]))
    except WasmTrap as trap:
        outcome = ("trap", str(trap))
    except IndexError:
        # The operand stack ran dry; the engines word the error differently.
        outcome = ("underflow",)
    return outcome, interp.steps


class TestFlatRoute:
    """A function whose stack depth cannot be proven is not translated: the
    compiled engine runs its activations on the flat VM, so it matches the
    reference engines step for step."""

    @pytest.mark.parametrize("case", sorted(_UNPROVABLE))
    def test_engines_agree(self, case):
        module = _unprovable_module(case)
        translation = translate_module(module)
        assert translation.modes == ("flat",) and translation.source == ""
        for arg in (0, 1):
            total = _observe_unprovable(module, "flat", arg, None)[1]
            assert total > 0
            for budget in (None, *range(1, total + 2)):
                observed = {
                    engine: _observe_unprovable(module, engine, arg, budget)
                    for engine in ("tree", "flat", "compiled")
                }
                assert observed["tree"] == observed["flat"] == observed["compiled"], (case, arg, budget)

    def test_flat_unit_is_reused_by_a_structural_twin(self):
        cache = ModuleCache()
        translate_module(_unprovable_module("block left with a surplus value"), unit_cache=cache.units)
        twin = _unprovable_module("block left with a surplus value")
        before = cache.units.snapshot()
        translation = translate_module(twin, unit_cache=cache.units)
        assert cache.units.delta(before)["translate"] == {"reused": 1, "compiled": 0}
        assert translation.modes == ("flat",)
        interp = WasmInterpreter(engine="compiled")
        assert interp.invoke(interp.instantiate(twin), "f", [1]) == [6]
        assert interp.steps == 5


def test_inline_conversions_match_flat():
    functions = []
    for op, source, target in (("wrap", I64, I32), ("extend_s", I32, I64), ("extend_u", I32, I64)):
        functions.append(WasmFunction(FT((source,), (target,)), (), (
            LocalGet(0), Cvtop(target, op, source),
        ), exports=(op,)))
    module = WasmModule(functions=tuple(functions))
    validate_module(module)
    source = translate_module(module).source
    assert "_NT" not in source  # none of the three can trap
    cases = {
        "wrap": [0, 1, 0xFFFFFFFF, 0x1_0000_0000, 0xFFFF_FFFF_FFFF_FFFF, 0x8000_0000_8000_0000],
        "extend_s": [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF],
        "extend_u": [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF],
    }
    flat, compiled = WasmInterpreter(engine="flat"), WasmInterpreter(engine="compiled")
    flat_inst, compiled_inst = flat.instantiate(module), compiled.instantiate(module)
    for export, values in cases.items():
        for value in values:
            assert compiled.invoke(compiled_inst, export, [value]) == flat.invoke(flat_inst, export, [value])


def test_generated_source_size_per_instruction():
    # Each multi-instruction step chunk is emitted once, behind a guard that
    # deoptimizes to the flat VM, and pure operands fold into expressions;
    # this pins the size of the output at its measured 65.9 characters per
    # instruction plus 5%.  (Two arms per chunk measured 251; one arm with
    # every operand moved through its slot, 96.5.)
    wasm = lower_module(synthetic_module(1, functions=50)).wasm
    source = translate_module(wasm).source
    instructions = sum(
        1 for flat in decode_module(wasm).flat if flat is not None for ins in flat.code if ins[0] >= 0
    )
    assert len(source) / instructions < 69


def test_fig9_counter_source_folds_operands():
    # The Fig. 9 counter at O2 had 42 ``if _a < 0:`` address guards, 142
    # bare slot or local moves (``s1 = l5``) and 34 constants put in a slot.
    from repro.ffi import counter_program

    config = CompileConfig(opt_level="O2", engine="compiled", cache="none")
    lines = translate_module(api.compile(counter_program(), config).wasm).source.splitlines()
    assert not [line for line in lines if line.strip() == "if _a < 0:"]
    moves = [line for line in lines if re.fullmatch(r"\s*[sl]\d+ = [sl]\d+", line)]
    constants = [line for line in lines if re.fullmatch(r"\s*s\d+ = \d+", line)]
    assert len(moves) + len(constants) <= (142 + 34) // 2


class TestCacheStage:
    def test_structural_twin_translates_from_the_units(self):
        # A structurally identical module object translated through the same
        # unit cache compiles no translate unit and yields identical source.
        cache = ModuleCache()
        first = translate_module(sum_module(), unit_cache=cache.units)
        twin = sum_module()
        before = cache.units.snapshot()
        translation = translate_module(twin, unit_cache=cache.units)
        assert cache.units.delta(before)["translate"] == {"reused": 2, "compiled": 0}
        assert translation.source == first.source
        assert translate_module(twin) is translation
        # The reassembled translation executes correctly on the twin.
        interp = WasmInterpreter(engine="compiled")
        inst = interp.instantiate(twin)
        assert interp.invoke(inst, "sum", [10]) == [55]

    def test_compile_translates_for_compiled_engine(self):
        from repro.ffi import counter_program

        program = api.compile(counter_program().modules(), cache=ModuleCache(), engine="compiled")
        assert program.diagnostics.cache["translate"] == "miss"
        default = api.compile(counter_program().modules(), cache=ModuleCache())
        # Default engine: no translation.
        assert "translate" not in default.diagnostics.cache
        assert "translate" not in default.diagnostics.units


def _ml_source():
    return ml_module("mlmod", functions=[
        MLFunction("double", "x", TInt(), TInt(), BinOp("*", Var("x"), IntLit(2))),
    ])


class TestFacadeWiring:
    def test_compile_records_translate_stage_for_compiled_engine(self):
        cache = ModuleCache()
        config = CompileConfig(opt_level="O1", engine="compiled")
        program = api.compile(_ml_source(), config, cache=cache)
        assert program.diagnostics.cache["translate"] == "miss"
        assert program.diagnostics.seconds("translate") >= 0
        # Recompiling is a program-level hit; the translate stage finds the
        # program's module in the per-object memo and records a hit.
        again = api.compile(_ml_source(), config, cache=cache)
        assert again.diagnostics.cache["program"] == "hit"
        assert again.diagnostics.cache["translate"] == "hit"

    def test_translate_span_splits_emit_and_compile(self):
        from repro.obs import Tracer, use_tracer

        config = CompileConfig(opt_level="O1", engine="compiled")
        with use_tracer(Tracer()) as tracer:
            program = api.compile(_ml_source(), config, cache=ModuleCache())
        (span,) = [span for span in tracer.drain() if span.name == "compile.translate"]
        source = translate_module(program.wasm).source
        assert 0 < span.attrs["source_chars"] <= len(source)
        assert span.attrs["emit_s"] > 0 and span.attrs["pycompile_s"] > 0

    def test_compile_skips_translate_stage_for_other_engines(self):
        program = api.compile(_ml_source(), CompileConfig(opt_level="O1"), cache=ModuleCache())
        assert "translate" not in program.diagnostics.cache

    def test_direct_compile_records_translate_bypass(self):
        config = CompileConfig(opt_level="O1", engine="compiled", cache="none")
        program = api.compile(_ml_source(), config)
        assert program.diagnostics.cache["translate"] == "bypass"

    def test_served_compiled_program_answers_like_flat(self):
        results = {}
        for engine in (None, "compiled"):
            config = CompileConfig(opt_level="O2", engine=engine)
            service = api.serve(_ml_source(), config)
            results[engine] = (
                service.call("mlmod.double", [21]),
                service.call("mlmod.double", [0x7FFFFFFF]),
            )
        assert results[None] == results["compiled"]


class TestEnvSelection:
    def test_env_var_selects_compiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_WASM_ENGINE", "compiled")
        interp = WasmInterpreter()
        assert interp.engine_name == "compiled"
        inst = interp.instantiate(sum_module())
        assert interp.invoke(inst, "sum", [4]) == [10]
