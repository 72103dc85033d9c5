"""Tests for the compiled execution tier (:mod:`repro.wasm.pygen`).

The engine-agreement suites (``test_engines.py``, the property suite, the
profiler parity tests) already pin the compiled tier's semantics against the
flat VM and the tree walker; this file covers the translator's own
machinery — the register/list stack layouts, the per-module translation
memo, the content-keyed ``translate`` cache stage, and the facade's
``translate`` diagnostics — plus compiled-engine invalidation on patched
function tables.
"""

import pytest

from repro import api
from repro.api import CompileConfig
from repro.ml import BinOp, IntLit, MLFunction, TInt, Var, ml_module
from repro.runtime import ModuleCache
from repro.wasm import (
    Binop,
    Const,
    Cvtop,
    Load,
    LocalGet,
    LocalSet,
    StoreI,
    Testop as WTestop,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmInterpreter,
    WasmMemory,
    WasmModule,
    WasmTrap,
    WBlock,
    WBr,
    WBrIf,
    WCall,
    WLoop,
    translate_module,
    validate_module,
)
from repro.wasm import pygen
from repro.wasm.decode import decode_module
from repro.wasm.pygen import ModuleTranslation, adopt_translation, translate_functions

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

    def test_adopt_translation_seeds_structural_twin(self):
        module = sum_module()
        twin = sum_module()
        translation = translate_module(module)
        adopt_translation(twin, translation)
        assert translate_module(twin) is translation
        # The adopted artifact executes correctly on the twin.
        interp = WasmInterpreter(engine="compiled")
        inst = interp.instantiate(twin)
        assert interp.invoke(inst, "sum", [10]) == [55]

    def test_forced_list_mode_matches_register_mode(self):
        module = sum_module()
        slots = decode_module(module).flat
        listy = translate_functions(slots, module, force_list=True)
        assert listy.modes == ("list", "list")
        # Run the register-mode translation and the list-mode one and
        # compare results and steps against the flat VM.
        flat = WasmInterpreter(engine="flat")
        flat_inst = flat.instantiate(module)
        expected = flat.invoke(flat_inst, "sum", [12])

        compiled = WasmInterpreter(engine="compiled")
        inst = compiled.instantiate(module)
        assert compiled.invoke(inst, "sum", [12]) == expected
        register_steps = compiled.steps

        pygen._remember_translation(module, listy)
        listy_interp = WasmInterpreter(engine="compiled")
        listy_inst = listy_interp.instantiate(module)
        assert listy_interp.invoke(listy_inst, "sum", [12]) == expected
        assert listy_interp.steps == register_steps == flat.steps

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
    Every case runs on the tree walker, the flat VM and both compiled stack
    layouts, unbudgeted and under budgets landing all over the loop.
    """

    @pytest.mark.parametrize("budget", [None, 1, 2, 3, 5, 17, 100, 399, 701])
    @pytest.mark.parametrize("case", sorted(_MID_CHUNK_CASES))
    def test_engines_agree(self, case, budget):
        hot, unbudgeted = _MID_CHUNK_CASES[case]
        module = _countdown_module(hot)
        listy = _countdown_module(hot)
        pygen._remember_translation(
            listy, translate_functions(decode_module(listy).flat, listy, force_list=True)
        )
        observed = {
            "tree": _observe("tree", module, budget),
            "flat": _observe("flat", module, budget),
            "compiled": _observe("compiled", module, budget),
            "compiled/list": _observe("compiled", listy, budget),
        }
        reference = observed["flat"]
        for engine, outcome in observed.items():
            assert outcome[:2] == reference[:2], f"{case}, budget {budget}: {engine} {outcome[:2]} vs flat {reference[:2]}"
            assert outcome[2] == reference[2], f"{case}, budget {budget}: {engine} memory differs from flat"
        if budget is None:
            assert reference[0] == unbudgeted
        elif reference[0] == ("trap", "step budget exhausted"):
            assert reference[1] == budget + 1


class TestCacheStage:
    def test_translate_stage_hit_miss_and_clear(self):
        cache = ModuleCache()
        module = sum_module()
        first = cache.translate(module)
        assert cache.stats["translate"].misses == 1
        assert cache.translate(module) is first
        assert cache.stats["translate"].hits == 1
        # A structurally identical module object is a content hit and adopts
        # the artifact instead of re-translating.
        twin = sum_module()
        assert cache.translate(twin) is first
        assert cache.stats["translate"].hits == 2
        assert translate_module(twin) is first
        cache.clear()
        assert cache.stats["translate"].lookups == 0
        cache.translate(module)
        assert cache.stats["translate"].misses == 1

    def test_compile_program_translates_for_compiled_engine(self):
        cache = ModuleCache()
        from repro.ffi import counter_program

        cache.compile_program(counter_program().modules(), engine="compiled")
        assert cache.stats["translate"].misses == 1
        cache2 = ModuleCache()
        cache2.compile_program(counter_program().modules())
        assert cache2.stats["translate"].lookups == 0  # default engine: no translation


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
        # Recompiling is a program-level hit; the translate stage re-seeds
        # the per-object memo from the content store and records a hit.
        again = api.compile(_ml_source(), config, cache=cache)
        assert again.diagnostics.cache["program"] == "hit"
        assert again.diagnostics.cache["translate"] == "hit"

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
