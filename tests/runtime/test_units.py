"""Tests for :mod:`repro.compilepipe` — function-granular compile units.

The PR 8 layer under :class:`repro.runtime.ModuleCache`: per-function unit
keys (deterministic across processes, like the PR 5 content keys), the
:class:`FunctionUnitCache` store, its stats/obs-counter consistency,
``clear()`` interaction with partially-reused modules, and the
``Diagnostics.units`` surface the facade reports reuse through.
"""

import dataclasses
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import api
from repro import compilepipe
from repro.api import CompileConfig, Diagnostics
from repro.cluster import DiskCache
from repro.compilepipe import (
    UNIT_STAGES,
    FunctionUnitCache,
    lower_unit_key,
    translate_unit_key,
    typecheck_unit_key,
    unit_key,
    wasm_signature_digest,
)
from repro.l3 import (
    L3Function, L3TypeError, LBinOp, LFree, LInt, LIntLit, LLet, LNew, LVar, check_l3_module,
    l3_module,
)
from repro.lower import lower_module
from repro.ml import (
    App, Assign, BinOp, Deref, IntLit, Lam, Let, MkRef, MLFunction, MLGlobal, MLImport,
    MLTypeError, Seq, TBool, TInt, TRef, Var, ml_module,
)
from repro.ml.typecheck import check_module as check_ml_module
from repro.obs.metrics import default_registry
from repro.core.syntax import Function, Module
from repro.ml import compile_ml_module
from repro.opt import PassManager, deadfuncs, pipeline_passes
from repro.opt.manager import ModulePass
from repro.opt.rewrite import iter_sequences
from repro.runtime import ModuleCache
from repro.runtime.cache import content_key
from repro.wasm.ast import WCall, WasmFunction

from bench_pipelines import ml_workload
from workload_builders import edit_one_function, edit_one_ml_function, mixed_sources, synthetic_module

REPO_ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Unit keys
# ---------------------------------------------------------------------------

_KEY_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {benchmarks!r})
from workload_builders import synthetic_module
from repro.compilepipe import lower_unit_key, translate_unit_key, typecheck_unit_key
from repro.lower import lower_module

module = synthetic_module(3, functions=4)
wasm = lower_module(module).wasm
print(typecheck_unit_key(module.functions[2], module))
print(lower_unit_key(module.functions[2], module))
print(translate_unit_key(wasm.functions[2], wasm, 2))
"""


def _key_script() -> str:
    return _KEY_SCRIPT.format(
        src=str(REPO_ROOT / "src"), benchmarks=str(REPO_ROOT / "benchmarks")
    )


class TestUnitKeys:
    def test_deterministic_across_fresh_processes(self):
        """Two fresh interpreters derive identical unit keys for every stage
        family — no ``id()``/``hash()`` leaks into the keyspace."""

        runs = [
            subprocess.run(
                [sys.executable, "-c", _key_script()],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.split()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert all(len(key) == 64 and int(key, 16) >= 0 for key in runs[0])

    def test_one_function_edit_leaves_other_keys_unchanged(self):
        base = synthetic_module(2, functions=5)
        edited = edit_one_function(base, 2, blocks=2)
        for index in (0, 1, 3, 4):
            assert lower_unit_key(base.functions[index], base) == lower_unit_key(
                edited.functions[index], edited
            )
        assert lower_unit_key(base.functions[2], base) != lower_unit_key(
            edited.functions[2], edited
        )

    def test_key_ingredients_are_discriminating(self):
        module = synthetic_module(2, functions=2)
        function = module.functions[0]
        assert typecheck_unit_key(function, module) != typecheck_unit_key(
            function, module, allow_caps=False
        )
        assert typecheck_unit_key(function, module) != lower_unit_key(function, module)
        wasm = lower_module(module).wasm
        assert translate_unit_key(wasm.functions[0], wasm, 0) != translate_unit_key(
            wasm.functions[0], wasm, 1
        )

    def test_structurally_equal_twins_share_keys(self):
        first = synthetic_module(2, functions=3)
        second = synthetic_module(2, functions=3)
        assert first is not second
        assert lower_unit_key(first.functions[1], first) == lower_unit_key(
            second.functions[1], second
        )

    def test_unit_key_accepts_raw_digest_parts(self):
        wasm = lower_module(synthetic_module(1)).wasm
        digest = wasm_signature_digest(wasm)
        assert unit_key("probe", digest, 3) == unit_key("probe", digest, 3)
        assert unit_key("probe", digest, 3) != unit_key("probe", digest, 4)


# ---------------------------------------------------------------------------
# The cache itself: stats, clear
# ---------------------------------------------------------------------------


class TestFunctionUnitCache:
    def test_lookup_counts_one_event_per_get(self):
        units = FunctionUnitCache()
        assert units.get("lower", "k") is None
        units.put("lower", "k", "artifact")
        assert units.get("lower", "k") == "artifact"
        stats = units.stats["lower"]
        assert (stats.reused, stats.compiled, stats.lookups) == (1, 1, 2)

    def test_clear_resets_tables_and_stats(self):
        units = FunctionUnitCache()
        units.put("translate", "k", "chunk")
        units.get("translate", "k")
        units.clear()
        assert len(units) == 0
        assert all((s.reused, s.compiled) == (0, 0) for s in units.stats.values())

    def test_snapshot_delta_reports_only_moved_stages(self):
        units = FunctionUnitCache()
        before = units.snapshot()
        units.put("lower", "k", "v")
        units.get("lower", "k")
        units.get("lower", "missing")
        assert units.delta(before) == {"lower": {"reused": 1, "compiled": 1}}

    def test_stats_agree_with_obs_counter(self):
        """Once published, the integer view and the process-wide
        ``compile.units.events`` counter agree."""

        counter = default_registry().counter("compile.units.events")
        units = FunctionUnitCache()
        base_hits = counter.labeled(stage="lower", event="hit")
        base_misses = counter.labeled(stage="lower", event="miss")
        units.put("lower", "k", "artifact")
        for key in ("k", "missing", "k"):
            units.get("lower", key)
        stats = units.stats["lower"]
        assert (stats.reused, stats.compiled) == (2, 1)
        units.publish()
        assert counter.labeled(stage="lower", event="hit") - base_hits == stats.reused
        assert counter.labeled(stage="lower", event="miss") - base_misses == stats.compiled
        units.publish()  # nothing new: nothing added twice
        units.get("lower", "missing")
        units.clear()  # publishes the pending miss before zeroing
        assert counter.labeled(stage="lower", event="hit") - base_hits == 2
        assert counter.labeled(stage="lower", event="miss") - base_misses == 2

    def test_facade_publishes_lookups_once_per_stage(self, monkeypatch):
        """A compile counts thousands of lookups but moves the counter only
        at the end of a facade stage, and the counter ends equal to the
        integer view."""

        counter = compilepipe._UNIT_EVENTS
        publishes = []

        class Spy:
            def inc_key(self, key, amount=1):
                publishes.append(key)
                counter.inc_key(key, amount)

        monkeypatch.setattr(compilepipe, "_UNIT_EVENTS", Spy())
        cache = ModuleCache()
        before = {stage: (counter.labeled(stage=stage, event="hit"), counter.labeled(stage=stage, event="miss"))
                  for stage in UNIT_STAGES}
        program = api.compile(synthetic_module(1, functions=N), CONFIG, cache=cache)
        lookups = sum(stats.lookups for stats in cache.units.stats.values())
        assert lookups > 5 * N
        assert 0 < len(publishes) <= 2 * len(program.diagnostics.stages)
        for stage, stats in cache.units.stats.items():
            hits, misses = before[stage]
            assert counter.labeled(stage=stage, event="hit") - hits == stats.reused, stage
            assert counter.labeled(stage=stage, event="miss") - misses == stats.compiled, stage


# ---------------------------------------------------------------------------
# Through the ModuleCache: incremental reuse, clear
# ---------------------------------------------------------------------------

CONFIG = CompileConfig(opt_level="O1", engine="compiled", cache="private")
N = 8


def _incremental(cache: ModuleCache):
    base = synthetic_module(1, functions=N)
    api.compile(base, CONFIG, cache=cache)
    edited = edit_one_function(base, N // 2)
    before = cache.units.snapshot()
    program = api.compile(edited, CONFIG, cache=cache)
    return program, cache.units.delta(before)


class TestIncrementalThroughModuleCache:
    def test_one_function_edit_reuses_all_other_units(self):
        program, delta = _incremental(ModuleCache())
        assert delta["lower"] == {"reused": N - 1, "compiled": 1}
        for stage in ("decode", "translate"):
            assert delta[stage]["compiled"] == 1
            assert delta[stage]["reused"] >= N - 1  # + runtime malloc/free
        interpreter, instance = program.instantiate()
        # Function N//2 was re-seeded to N + N//2 + 1; it computes seed + 1.
        assert interpreter.invoke(instance, f"f{N // 2}", [])[0] == N + N // 2 + 2
        assert interpreter.invoke(instance, "main", [])[0] == 2

    def test_clear_resets_units_without_stranding_programs(self):
        cache = ModuleCache()
        program, _delta = _incremental(cache)
        cache.clear()
        assert len(cache.units) == 0
        assert all(s.lookups == 0 for s in cache.units.stats.values())
        # Artifacts already composed into the handed-out program keep working.
        interpreter, instance = program.instantiate()
        assert interpreter.invoke(instance, "main", [])[0] == 2
        # And the next compile rebuilds from nothing: all misses, no hits.
        rebuilt = api.compile(synthetic_module(1, functions=N), CONFIG, cache=cache)
        assert cache.units.stats["lower"].compiled == N
        assert cache.units.stats["lower"].reused == 0
        interpreter, instance = rebuilt.instantiate()
        assert interpreter.invoke(instance, "main", [])[0] == 2


# ---------------------------------------------------------------------------
# Diagnostics surface
# ---------------------------------------------------------------------------


class TestDiagnosticsUnits:
    def test_facade_reports_per_stage_unit_reuse(self):
        cache = ModuleCache()
        base = synthetic_module(1, functions=N)
        api.compile(base, CONFIG, cache=cache)
        edited = edit_one_function(base, N // 2)
        program = api.compile(edited, CONFIG, cache=cache)
        units = program.diagnostics.units
        assert units["lower"] == {"reused": N - 1, "compiled": 1}
        report = program.diagnostics.format_report()
        assert f"lower units: {N - 1} reused / 1 compiled" in report

    def test_units_round_trip_through_dict(self):
        diagnostics = Diagnostics(units={"lower": {"reused": 7, "compiled": 1}})
        data = diagnostics.to_dict()
        assert data["units"] == {"lower": {"reused": 7, "compiled": 1}}
        assert Diagnostics.from_dict(data).to_dict() == data

    def test_unit_stages_cover_the_pipeline(self):
        assert UNIT_STAGES == (
            "frontend", "link", "typecheck", "lower", "optimize", "validate", "decode",
            "translate",
        )


# ---------------------------------------------------------------------------
# Source-level units: frontend, link and optimize-segment reuse
# ---------------------------------------------------------------------------

SOURCE_CONFIG = CompileConfig(opt_level="O2", cache="private")


def _lib():
    return l3_module("lib", functions=[
        L3Function("c0", "x", LInt(), LInt(),
                   LBinOp("+", LBinOp("*", LVar("x"), LIntLit(3)), LIntLit(1))),
        L3Function("c1", "x", LInt(), LInt(),
                   LLet("o", LNew(LVar("x")), LBinOp("+", LFree(LVar("o")), LIntLit(2)))),
    ])


def _app_functions(main_k=5):
    return [
        # Module state through the global.
        MLFunction("bump", "x", TInt(), TInt(), Seq(
            Assign(Var("counter"), BinOp("+", Deref(Var("counter")), Var("x"))),
            Deref(Var("counter")),
        )),
        # A closure capturing ``x``: lambda-lifted into a table entry.
        MLFunction("twice", "x", TInt(), TInt(), Let(
            "f", Lam("y", TInt(), BinOp("+", Var("y"), Var("x"))),
            App(Var("f"), App(Var("f"), IntLit(1))),
        )),
        # Cross-function and cross-language calls.
        MLFunction("main", "x", TInt(), TInt(),
                   App(Var("twice"), BinOp("+", App(Var("c0"), Var("x")), IntLit(main_k)))),
        MLFunction("tail", "x", TInt(), TInt(), App(Var("bump"), App(Var("c1"), Var("x")))),
    ]


def _app(functions):
    return ml_module(
        "app",
        imports=[MLImport("lib", "c0", TInt(), TInt()), MLImport("lib", "c1", TInt(), TInt())],
        globals=[MLGlobal("counter", TRef(TInt()), MkRef(IntLit(0)))],
        functions=functions,
    )


def _sources(functions=None, lib=None):
    return {
        "app": _app(functions if functions is not None else _app_functions()),
        "lib": lib if lib is not None else _lib(),
    }


def _replace_function(functions, name, new):
    return [new if function.name == name else function for function in functions]


def _assert_same_as_fresh(program, sources, config=SOURCE_CONFIG):
    fresh = api.compile(sources, config, cache=ModuleCache())
    assert program.key == fresh.key
    assert program.wasm == fresh.wasm
    assert content_key("wasm", program.wasm) == content_key("wasm", fresh.wasm)
    return fresh


def _run(program, calls):
    interpreter, instance = program.instantiate()
    interpreter.invoke(instance, "app._init", [])
    return [interpreter.invoke(instance, export, [arg])[0] for export, arg in calls]


N_SOURCE_FUNCTIONS = len(_app_functions()) + len(_lib().functions)


class TestSourceLevelUnits:
    def test_cold_compile_looks_up_every_function_once(self):
        program = api.compile(_sources(), SOURCE_CONFIG, cache=ModuleCache())
        units = program.diagnostics.units
        assert units["frontend"] == {"reused": 0, "compiled": N_SOURCE_FUNCTIONS}
        # Every defined declaration (lifted lambda and ``_init`` included)
        # is one link unit.
        assert units["link"]["reused"] == 0
        assert units["link"]["compiled"] == N_SOURCE_FUNCTIONS + 2 + 1  # + lambda, _init, global
        assert _run(program, [("main", 2), ("tail", 4)]) == [2 * (7 + 5) + 1, 6]

    def test_body_edit_recompiles_one_function(self):
        cache = ModuleCache()
        api.compile(_sources(), SOURCE_CONFIG, cache=cache)
        edited = _sources(_replace_function(
            _app_functions(), "tail",
            MLFunction("tail", "x", TInt(), TInt(), App(Var("bump"), App(Var("c0"), Var("x")))),
        ))
        program = api.compile(edited, SOURCE_CONFIG, cache=cache)
        units = program.diagnostics.units
        assert units["frontend"] == {"reused": N_SOURCE_FUNCTIONS - 1, "compiled": 1}
        assert units["link"]["compiled"] == 1
        assert units["lower"]["compiled"] == 1
        # One optimize unit, the edited function's fixpoint.
        assert units["optimize"]["compiled"] == 1
        _assert_same_as_fresh(program, edited)
        assert _run(program, [("tail", 4)]) == [13]

    def test_unchanged_functions_come_back_as_the_same_objects(self):
        cache = ModuleCache()
        first = api.compile(_sources(), SOURCE_CONFIG, cache=cache)
        second = api.compile(
            _sources(_app_functions(main_k=6)), SOURCE_CONFIG, cache=cache
        )
        same = [a is b for a, b in zip(first.richwasm.functions, second.richwasm.functions)]
        assert same.count(False) == 1

    def test_edit_adding_a_lambda_equals_fresh_compile(self):
        cache = ModuleCache()
        api.compile(_sources(), SOURCE_CONFIG, cache=cache)
        # ``bump`` precedes ``twice``: its new lambda shifts the lifted
        # function and table bases every later unit baked in.
        edited = _sources(_replace_function(
            _app_functions(), "bump",
            MLFunction("bump", "x", TInt(), TInt(), Let(
                "g", Lam("z", TInt(), BinOp("*", Var("z"), IntLit(2))),
                App(Var("g"), Var("x")),
            )),
        ))
        program = api.compile(edited, SOURCE_CONFIG, cache=cache)
        assert program.diagnostics.units["frontend"]["compiled"] >= 2
        _assert_same_as_fresh(program, edited)
        assert _run(program, [("bump", 5), ("main", 2), ("tail", 1)]) == [10, 25, 6]

    def test_signature_edit_misses_every_function_of_its_module(self):
        cache = ModuleCache()
        api.compile(_sources(), SOURCE_CONFIG, cache=cache)
        edited = _sources(_replace_function(
            _app_functions(), "tail",
            MLFunction("tail", "x", TInt(), TBool(),
                       BinOp("<", App(Var("bump"), App(Var("c1"), Var("x"))), IntLit(10))),
        ))
        program = api.compile(edited, SOURCE_CONFIG, cache=cache)
        ml_functions = len(_app_functions())
        assert program.diagnostics.units["frontend"] == {
            "reused": N_SOURCE_FUNCTIONS - ml_functions, "compiled": ml_functions,
        }
        _assert_same_as_fresh(program, edited)

    def test_ill_typed_ml_edit_raises_the_same_error_and_caches_nothing(self):
        cache = ModuleCache()
        api.compile(_sources(), SOURCE_CONFIG, cache=cache)
        bad = _sources(_replace_function(
            _app_functions(), "twice",
            MLFunction("twice", "x", TInt(), TInt(), BinOp("<", Var("x"), IntLit(1))),
        ))
        with pytest.raises(MLTypeError) as expected:
            check_ml_module(bad["app"])
        for _ in range(2):  # the failure is not cached: it raises again
            with pytest.raises(MLTypeError) as raised:
                api.compile(bad, SOURCE_CONFIG, cache=cache)
            assert str(raised.value) == str(expected.value)
        good = _sources(_app_functions(main_k=9))
        program = api.compile(good, SOURCE_CONFIG, cache=cache)
        _assert_same_as_fresh(program, good)

    def test_ill_typed_l3_edit_raises_the_same_error(self):
        cache = ModuleCache()
        api.compile(_sources(), SOURCE_CONFIG, cache=cache)
        lib = _lib()
        # The owned cell is used twice: a linearity violation.
        bad_lib = l3_module("lib", functions=[lib.functions[0], L3Function(
            "c1", "x", LInt(), LInt(),
            LLet("o", LNew(LVar("x")), LBinOp("+", LFree(LVar("o")), LFree(LVar("o")))),
        )])
        with pytest.raises(L3TypeError) as expected:
            check_l3_module(bad_lib)
        with pytest.raises(L3TypeError) as raised:
            api.compile(_sources(lib=bad_lib), SOURCE_CONFIG, cache=cache)
        assert str(raised.value) == str(expected.value)
        program = api.compile(_sources(), SOURCE_CONFIG, cache=cache)
        assert program.diagnostics.cache["program"] == "hit"

    @pytest.mark.parametrize("opt_level", ["O1", "O2"])
    def test_optimize_output_and_stats_equal_with_and_without_units(self, opt_level):
        config = CompileConfig(opt_level=opt_level, cache="private")
        cached = api.compile(_sources(), config, cache=ModuleCache())
        uncached = api.compile(_sources(), config.replace(cache="none"))
        assert cached.wasm == uncached.wasm

        def rewrites(program):
            return [(s.name, s.runs, s.rewrites) for s in program.lowered.optimization.stats]

        assert rewrites(cached) == rewrites(uncached)


# ---------------------------------------------------------------------------
# Per-function fixpoints
# ---------------------------------------------------------------------------


def _pass_by_pass(module, passes, rounds=8):
    """The reference schedule: each pass in turn sweeps every function (a
    module pass the module), in whole-module rounds until one changes
    nothing."""

    from dataclasses import replace

    for _ in range(rounds):
        total = 0
        for pass_ in passes:
            if isinstance(pass_, ModulePass):
                module, rewrites = pass_.run_module(module)
            else:
                rewrites = 0
                functions = list(module.functions)
                for index, function in enumerate(functions):
                    if isinstance(function, WasmFunction):
                        rewritten, count = pass_.run(function, module)
                        if count:
                            functions[index] = rewritten
                            rewrites += count
                module = replace(module, functions=tuple(functions))
            total += rewrites
        if total == 0:
            break
    return module


#: Reference inputs: a small synthetic module, the two-language program of
#: 2x100 linked functions, and an ML module whose ``rw_free`` is dead.
_REFERENCE_INPUTS = {
    "synthetic": lambda: synthetic_module(2, functions=6),
    "mixed": lambda: mixed_sources(100),
    "ml_dead_free": lambda: compile_ml_module(ml_workload()),
}
_LOWERED = {}


def _lowered(name):
    if name not in _LOWERED:
        _LOWERED[name] = api.lower(_REFERENCE_INPUTS[name](), CompileConfig(cache="none")).wasm
    return _LOWERED[name]


class TestFunctionFixpoints:
    @pytest.mark.parametrize("name", list(_REFERENCE_INPUTS))
    @pytest.mark.parametrize("opt_level", ["O1", "O2"])
    def test_fixpoint_schedule_equals_pass_by_pass(self, opt_level, name):
        wasm = _lowered(name)
        expected = _pass_by_pass(wasm, pipeline_passes(opt_level))
        assert expected != wasm
        for unit_cache in (None, FunctionUnitCache()):
            result = PassManager(pipeline_passes(opt_level), unit_cache=unit_cache).run(wasm)
            assert result.module == expected

    @pytest.mark.parametrize("opt_level", ["O1", "O2"])
    def test_one_optimize_lookup_per_defined_function(self, opt_level):
        wasm = _lowered("mixed")
        units = FunctionUnitCache()
        PassManager(pipeline_passes(opt_level), unit_cache=units).run(wasm)
        defined = sum(isinstance(f, WasmFunction) for f in wasm.functions)
        assert defined == 202
        assert units.stats["optimize"].lookups == defined

    def test_unit_hits_report_the_same_result(self):
        wasm = _lowered("mixed")
        units = FunctionUnitCache()
        cold = PassManager(pipeline_passes("O2"), unit_cache=units).run(wasm)
        warm = PassManager(pipeline_passes("O2"), unit_cache=units).run(wasm)
        assert units.stats["optimize"].reused == units.stats["optimize"].compiled
        assert warm.module == cold.module and warm.iterations == cold.iterations > 1
        assert [(s.name, s.runs, s.rewrites) for s in warm.stats] == [
            (s.name, s.runs, s.rewrites) for s in cold.stats
        ]


# ---------------------------------------------------------------------------
# Memoized unit keys, callee sets and export maps
# ---------------------------------------------------------------------------

_KEY_BUILDERS = (
    "frontend_unit_key", "link_unit_key", "typecheck_unit_key", "lower_unit_key",
    "optimize_unit_key", "validate_unit_key", "decode_unit_key", "translate_unit_key",
)
EDIT_CONFIG = CompileConfig(opt_level="O2", engine="compiled", cache="private")


def _memo_entries(obj) -> dict:
    return {name: value for name, value in obj.__dict__.items() if type(name) is not str}


def _twin(obj):
    return pickle.loads(pickle.dumps(obj))


def _mixed_edit(sources, index: int, k: int, kind: int):
    """``sources`` with ML function ``p{index}`` rebuilt: kind 0 changes a
    constant; kind 1 adds a closure (a lifted function and table entry, so
    later bases and the other module's remap tables shift); kind 2 changes
    the result to a reference (so the RichWasm signature environment
    changes)."""

    if kind == 0:
        return edit_one_ml_function(sources, index, k)
    call = App(Var(f"c{index}"), BinOp("+", Var("x"), IntLit(k)))
    if kind == 1:
        function = MLFunction(f"p{index}", "x", TInt(), TInt(), Let(
            "f", Lam("y", TInt(), BinOp("*", Var("y"), Var("x"))), App(Var("f"), call),
        ))
    else:
        function = MLFunction(f"p{index}", "x", TInt(), TRef(TInt()), MkRef(call))
    app = sources["app"]
    functions = list(app.functions)
    functions[index] = function
    return {**sources, "app": dataclasses.replace(app, functions=tuple(functions))}


def _scan_callees(function) -> set:
    return {
        instr.func_index
        for seq in iter_sequences(function.body)
        for instr in seq
        if isinstance(instr, WCall)
    }


class TestMemoizedKeys:
    def test_memos_stay_out_of_pickles_and_disk_warm_loads_hit(self, tmp_path):
        program = api.compile(_sources(), EDIT_CONFIG, cache=ModuleCache(disk=DiskCache(tmp_path)))
        memoized = [
            function
            for function in (*program.wasm.functions, *program.richwasm.functions)
            if _memo_entries(function)
        ]
        kinds = {type(function) for function in memoized}
        assert WasmFunction in kinds and Function in kinds
        for function in memoized:
            twin = _twin(function)
            assert twin == function
            assert _memo_entries(twin) == {}
        # A fresh cache over the warm directory models a new process.
        warm_cache = ModuleCache(disk=DiskCache(tmp_path))
        warm = api.compile(_sources(), EDIT_CONFIG, cache=warm_cache)
        assert warm.diagnostics.cache["program"] == "hit"
        assert warm_cache.disk.stats["disk.program"].hits == 1
        assert warm.wasm == program.wasm
        assert _run(warm, [("main", 2)]) == _run(program, [("main", 2)])

    def test_memos_agree_with_fresh_keys_over_an_edit_chain(self, monkeypatch):
        """A seeded chain of one-function edits (body, closure and signature
        edits mixed): every key a builder returned
        (memo hit or not) equals the builder's key for an unpickled,
        memo-free twin, every memoized callee set equals a fresh scan, and
        each incremental program equals a cold compile."""

        recorded = []

        def recording(builder, subject):
            # ``subject``: the position of the keyed object among the args.
            def record(*args, **kwargs):
                key = builder(*args, **kwargs)
                recorded.append((builder, subject, args, kwargs, key))
                return key
            return record

        for name in _KEY_BUILDERS:
            subject = 1 if name == "frontend_unit_key" else 0
            monkeypatch.setattr(compilepipe, name, recording(getattr(compilepipe, name), subject))

        functions = 12
        rng = random.Random(7)
        sources = mixed_sources(functions)
        cache = ModuleCache()
        api.compile(sources, EDIT_CONFIG, cache=cache)
        for _step in range(10):
            recorded.clear()
            sources = _mixed_edit(
                sources, rng.randrange(functions), rng.randrange(50, 10_000), rng.randrange(3)
            )
            program = api.compile(sources, EDIT_CONFIG, cache=cache)
            assert recorded
            for builder, subject, args, kwargs, key in recorded:
                assert key in _memo_entries(args[subject]).values()
                twin_args = list(args)
                twin_args[subject] = _twin(args[subject])
                assert builder(*twin_args, **kwargs) == key
            for function in program.wasm.functions:
                callees = _memo_entries(function).get(deadfuncs._CALLEES_MEMO)
                if callees is not None:
                    assert callees == _scan_callees(function) == deadfuncs._callees(_twin(function))
            _assert_same_as_fresh(program, sources, EDIT_CONFIG)

    def test_one_function_edit_keys_and_scans_only_the_edit(self, monkeypatch):
        """Deterministic counts for a one-function edit of a 1000-function
        module: unit keys are built for the edited function's new
        artifacts only, and only new function objects are scanned for
        callees."""

        functions = 1000
        base = synthetic_module(1, functions=functions)
        cache = ModuleCache()
        api.compile(base, EDIT_CONFIG, cache=cache)
        edited = edit_one_function(base, functions // 2)

        keyed = []
        plain_unit_key = compilepipe.unit_key
        monkeypatch.setattr(
            compilepipe, "unit_key",
            lambda stage, *parts: keyed.append(stage) or plain_unit_key(stage, *parts),
        )
        scanned = []
        plain_iter_sequences = deadfuncs.iter_sequences

        def scanning(body):
            scanned.append(body)
            return plain_iter_sequences(body)

        monkeypatch.setattr(deadfuncs, "iter_sequences", scanning)
        before = cache.units.snapshot()
        program = api.compile(edited, EDIT_CONFIG, cache=cache)
        delta = cache.units.delta(before)

        assert delta["lower"] == {"reused": functions - 1, "compiled": 1}
        # The edited function's lowering, one optimize unit for its whole
        # fixpoint, then validation, decode and translation of the final
        # version: five keys, where every function used to cost about twelve.
        assert sorted(Counter(keyed).items()) == [
            ("decode", 1), ("lower", 1), ("optimize", 1), ("translate", 1), ("validate", 1),
        ]
        # The dead-function pass scans only the edited function's optimized
        # version; every other callee set is a memo hit.
        assert len(scanned) == 1
        assert scanned[0] is program.wasm.functions[functions // 2].body

    def test_each_export_map_is_built_once_per_link(self, monkeypatch):
        built = []
        plain = Module.exported_functions

        def exported_functions(module):
            built.append(module.name)
            return plain(module)

        cache = ModuleCache()
        sources = mixed_sources(8)
        api.compile(sources, EDIT_CONFIG, cache=cache)
        monkeypatch.setattr(Module, "exported_functions", exported_functions)
        api.compile(edit_one_ml_function(sources, 3, 777), EDIT_CONFIG, cache=cache)
        assert sorted(built) == ["app", "lib"]
