"""Tests for :class:`repro.runtime.ModuleCache` — per-stage memoization."""

import struct

import pytest

from repro import api
from repro.api import CompileConfig
from repro.core.syntax import Function, f64, funtype, i64, make_module
from repro.core.syntax.instructions import Call, CvtOp, NumConst, NumCvtop
from repro.core.syntax.types import NumType
from repro.ffi import Program, counter_program, fig3_programs
from repro.runtime import CompiledProgram, ModuleCache, content_key
from repro.wasm import WasmInterpreter, validate_module


@pytest.fixture()
def cache():
    return ModuleCache()


def scenario_modules():
    return counter_program().modules()


class TestContentKey:
    def test_stable_across_structurally_equal_builds(self):
        # Two independent builder invocations produce distinct objects but
        # structurally identical ASTs -> identical keys.
        first = scenario_modules()
        second = scenario_modules()
        assert first["client"] is not second["client"]
        assert content_key(first["client"]) == content_key(second["client"])

    def test_distinguishes_different_programs(self):
        unsafe, safe = fig3_programs()
        assert content_key(unsafe.ml) != content_key(safe.ml)

    def test_parameters_change_the_key(self):
        module = scenario_modules()["client"]
        assert content_key("lower", module, 4, False) != content_key("lower", module, 8, False)


def _f64_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _nan_module(bits: int, *, via_i64: bool):
    """``main`` returns ``i64.reinterpret_f64`` of the NaN with ``bits``.

    The NaN is an ``f64.const`` in ``main``, or (``via_i64``) the result of
    a callee computing ``f64.reinterpret_i64(i64.const bits)``, which
    constant folding turns into an ``f64.const`` in the callee's optimized
    body.
    """

    reinterpret = NumCvtop(NumType.I64, CvtOp.REINTERPRET, NumType.F64)
    if not via_i64:
        body = (NumConst(NumType.F64, _f64_bits(bits)), reinterpret)
        return make_module(functions=[Function(funtype([], [i64()]), (), body, ("main",))])
    callee = Function(
        funtype([], [f64()]),
        (),
        (NumConst(NumType.I64, bits), NumCvtop(NumType.F64, CvtOp.REINTERPRET, NumType.I64)),
        ("nan",),
    )
    main = Function(funtype([], [i64()]), (), (Call(0), reinterpret), ("main",))
    return make_module(functions=[callee, main])


class TestNaNKeys:
    @pytest.mark.parametrize("engine", ["flat", "compiled"])
    @pytest.mark.parametrize("via_i64", [False, True])
    def test_nan_payloads_do_not_share_a_program(self, engine, via_i64):
        """Content keys digest NaNs by their bits: two modules differing only
        in a NaN payload compile to two programs on one cache."""

        cache = ModuleCache()
        for bits in (0x7FF8000000000001, 0x7FF8000000000002):
            program = api.compile(
                _nan_module(bits, via_i64=via_i64), CompileConfig(opt_level="O2", engine=engine),
                cache=cache,
            )
            interpreter, instance = program.instantiate()
            assert interpreter.invoke(instance, "main", []) == [bits]


class TestStageMemoization:
    def test_each_stage_compiles_once(self, cache):
        compiled_first = api.compile(scenario_modules(), cache=cache)
        first_decode = compiled_first.diagnostics.cache["decode"]
        compiled_second = api.compile(scenario_modules(), cache=cache)
        assert compiled_second is compiled_first
        assert cache.stats["link"].misses == 1
        assert cache.stats["program"].misses == 1
        assert (first_decode, compiled_second.diagnostics.cache["decode"]) == ("miss", "hit")
        # The second compile short-circuits on the linked-program key after
        # the (memoized) link stage.
        assert cache.stats["link"].hits == 1
        assert cache.stats["program"].hits == 1

    @pytest.mark.parametrize("config", [None, CompileConfig(opt_level="O2")])
    def test_program_key_matches_compiled_program_key(self, cache, config):
        """The lazily computed ``CompiledProgram.key`` of an off-cache
        compile is the key the cache files the same program under."""

        cached = api.compile(scenario_modules(), config, cache=cache)
        direct = api.compile(scenario_modules(), CompileConfig.of(config, cache="none"))
        assert direct.cached_key is None
        assert direct.key == cached.key == cache.program_key(cached.richwasm, cached.config)

    def test_lower_hit_returns_shared_wasm(self, cache):
        linked = cache.link(scenario_modules())
        first = api.lower(linked, cache=cache)
        second = api.lower(linked, cache=cache, engine="tree")
        # Shallow copies: bookkeeping may differ, the payload is shared.
        assert first is not second
        assert first.wasm is second.wasm
        assert second.engine == "tree"
        assert cache.stats["program"].hits == 1

    def test_decode_shared_across_instances(self, cache):
        # Pin the flat VM: only it materializes instance.decoded (the tree
        # walker, e.g. under REPRO_WASM_ENGINE=tree, has no flat code).
        compiled = api.compile(scenario_modules(), cache=cache)
        _, first_instance = compiled.instantiate(engine="flat")
        _, second_instance = compiled.instantiate(engine="flat")
        decoded = compiled.decoded
        for index, flat in enumerate(decoded.flat):
            if flat is not None:
                assert first_instance.decoded[index] is flat
                assert second_instance.decoded[index] is flat

    def test_compile_engine_variants_share_payload(self, cache):
        # The engine preference is per-caller: a later caller asking for a
        # different engine must not inherit the first caller's, and must not
        # trigger a recompile either.
        tree = api.compile(scenario_modules(), cache=cache, engine="tree")
        flat = api.compile(scenario_modules(), cache=cache, engine="flat")
        again = api.compile(scenario_modules(), cache=cache, engine="tree")
        assert tree.engine == again.engine == "tree" and flat.engine == "flat"
        assert tree.wasm is flat.wasm  # one compiled payload
        assert cache.stats["program"].misses == 1
        interpreter, _ = flat.instantiate()
        assert interpreter.engine_name == "flat"
        interpreter, _ = again.instantiate()
        assert interpreter.engine_name == "tree"

    def test_program_compile_reduces_engine_instances_to_names(self, cache):
        from repro.wasm import TreeWalkingEngine

        config = CompileConfig(engine=TreeWalkingEngine())
        assert config.engine == "tree"  # configs record names, not live engines
        compiled = api.compile(Program(scenario_modules()), config, cache=cache)
        assert compiled.engine == "tree"
        interpreter, _ = compiled.instantiate()
        assert interpreter.engine_name == "tree"

    def test_optimized_and_unoptimized_are_separate_entries(self, cache):
        plain = api.compile(scenario_modules(), cache=cache)
        optimized = api.compile(scenario_modules(), CompileConfig(opt_level="O2"), cache=cache)
        assert plain is not optimized
        assert optimized.lowered.optimization is not None
        assert optimized.wasm.instruction_count() < plain.wasm.instruction_count()

    def test_clear_resets_everything(self, cache):
        api.compile(scenario_modules(), cache=cache)
        cache.clear()
        assert cache.stats["program"].lookups == 0
        api.compile(scenario_modules(), cache=cache)
        assert cache.stats["program"].misses == 1


class TestCompiledProgram:
    def test_cached_wasm_is_validated_and_runnable(self, cache):
        compiled = api.compile(scenario_modules(), cache=cache)
        validate_module(compiled.wasm)
        interpreter, instance = compiled.instantiate()
        for export in sorted(compiled.wasm.exported_functions()):
            if export.endswith("._init"):
                interpreter.invoke(instance, export)
        interpreter.invoke(instance, "client.client_init", [3])
        interpreter.invoke(instance, "client.client_tick", [])
        assert interpreter.invoke(instance, "client.client_total", []) == [4]

    def test_program_compile_entry_point(self, cache):
        program = Program(scenario_modules())
        compiled = api.compile(program, cache=cache)
        assert isinstance(compiled, CompiledProgram)
        assert api.compile(program, cache=cache) is compiled

    def test_program_lower_through_cache_matches_direct(self, cache):
        program = Program(scenario_modules())
        direct = api.lower(program, {"cache": "none"})
        via_cache = api.lower(program, cache=cache)
        assert via_cache.wasm == direct.wasm

    def test_instantiate_wasm_through_cache(self, cache):
        program = Program(scenario_modules())
        baseline = program.instantiate_wasm()
        cached_first = program.instantiate_wasm(cache=cache)
        cached_second = program.instantiate_wasm(cache=cache)
        # The first call misses the program store once (a miss lowers with
        # no second lookup); the second short-circuits on the entry.
        assert cache.stats["program"].misses == 1
        assert cache.stats["program"].hits == 1
        baseline.invoke("client", "client_init", [2])
        cached_first.invoke("client", "client_init", [2])
        cached_second.invoke("client", "client_init", [2])
        for instance in (baseline, cached_first, cached_second):
            instance.invoke("client", "client_tick", [])
        assert (
            baseline.invoke("client", "client_total", [])
            == cached_first.invoke("client", "client_total", [])
            == cached_second.invoke("client", "client_total", [])
            == [3]
        )


class TestFrontendCacheThreading:
    @staticmethod
    def _ml_module():
        from repro.ml import BinOp, IntLit, MLFunction, TInt, Var, ml_module

        return ml_module("work", functions=[
            MLFunction("double", "x", TInt(), TInt(), BinOp("*", Var("x"), IntLit(2))),
        ])

    def test_compile_ml_module_lowers_once_via_cache(self, cache):
        from repro.ml import compile_ml_module

        first = api.lower(compile_ml_module(self._ml_module()), cache=cache)
        second = api.lower(compile_ml_module(self._ml_module()), cache=cache)
        assert cache.stats["program"].misses == 1
        assert cache.stats["program"].hits == 1
        assert first.wasm is second.wasm  # the expensive payload is shared
        interpreter, instance = second.instantiate()
        assert interpreter.invoke(instance, "double", [21]) == [42]

    def test_compile_l3_module_lowers_once_via_cache(self, cache):
        from repro.l3 import (
            L3Function, LBinOp, LFree, LInt, LIntLit, LLet, LLetPair, LNew, LSwap, LVar,
            compile_l3_module, l3_module,
        )

        def build():
            return l3_module("work", functions=[
                L3Function("churn", "x", LInt(), LInt(),
                           LLet("o", LNew(LVar("x")),
                                LLetPair("old", "o2", LSwap(LVar("o"), LIntLit(1)),
                                         LBinOp("+", LVar("old"), LFree(LVar("o2")))))),
            ])

        first = api.lower(compile_l3_module(build()), cache=cache)
        second = api.lower(compile_l3_module(build()), cache=cache)
        assert cache.stats["program"].misses == 1
        assert cache.stats["program"].hits == 1
        assert first.wasm is second.wasm
        interpreter, instance = second.instantiate()
        assert interpreter.invoke(instance, "churn", [9]) == [10]


class TestTypecheckStage:
    """PR 5: the memoized core-typecheck stage threaded into linking."""

    def test_link_checks_each_module_once(self, cache):
        modules = scenario_modules()
        cache.link(modules)
        # One check per input module plus one for the linked result.
        assert cache.stats["typecheck"].misses == len(modules) + 1
        assert cache.stats["typecheck"].hits == 0
        # Structurally identical modules from a fresh builder re-check nothing
        # (the link stage itself hits, so typecheck is not even consulted).
        cache.link(scenario_modules())
        assert cache.stats["typecheck"].misses == len(modules) + 1

    def test_shared_library_module_checked_once_across_links(self, cache):
        modules = scenario_modules()
        cache.link(modules)
        before = cache.stats["typecheck"].misses
        # A different module set sharing one module: the shared module's
        # check is a hit, only the new set's other checks miss.
        cache.link({"counterlib": modules["counterlib"]}, name="solo")
        assert cache.stats["typecheck"].hits >= 1
        # Only the new linked result itself needed a fresh check.
        assert cache.stats["typecheck"].misses == before + 1

    def test_typecheck_returns_check_result_and_memoizes(self, cache):
        from repro.core.typing import ModuleCheckResult

        linked = cache.link(scenario_modules())
        before_hits = cache.stats["typecheck"].hits
        result = cache.typecheck(linked)
        assert isinstance(result, ModuleCheckResult)
        assert cache.stats["typecheck"].hits == before_hits + 1  # link checked it
        assert cache.typecheck(linked) is result

    def test_ill_typed_module_raises_and_is_not_cached(self, cache):
        from repro.core.syntax import Function, funtype, i32, make_module, Return
        from repro.core.typing.errors import RichWasmTypeError

        bad = make_module(functions=[
            Function(funtype([], [i32()]), (), (Return(),), ("broken",))
        ])
        for _ in range(2):
            with pytest.raises(RichWasmTypeError):
                cache.typecheck(bad)
        assert cache.stats["typecheck"].misses == 2
        assert cache.stats["typecheck"].hits == 0

    def test_clear_resets_typecheck_stage(self, cache):
        linked = cache.link(scenario_modules())
        cache.typecheck(linked)
        cache.clear()
        assert cache.stats["typecheck"].lookups == 0
        cache.typecheck(linked)
        assert cache.stats["typecheck"].misses == 1
