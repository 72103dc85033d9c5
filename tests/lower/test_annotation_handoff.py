"""The linked check hands its annotation streams to the type-directed lowering.

A source compile type-checks each function twice (each input module, then
the linked result) and the lowering replays the linked check's streams
instead of running the checker a third time.  These tests pin the pass
count, the fallback when a function has no stream, that no stream outlives
the compile, and that ill-typed programs are rejected exactly as before.
"""

import dataclasses
import threading

import pytest

from repro import api
from repro.api import CompileConfig, detect_frontend
from repro.core.syntax import (
    Function, Import, ImportedFunction, NumConst, NumType, Return, funtype, i32, make_module,
)
from repro.core.typing import check_module, module_typing
from repro.core.typing.instruction_typing import InstructionChecker
from repro.ffi import check_link, fig1_unsafe_program, fig3_programs, link_modules
from repro.l3 import L3Function, LBinOp, LFree, LInt, LIntLit, LLet, LNew, LVar, l3_module
from repro.lower import AnnotationStreams, lower_module, rechecked_functions
from repro.ml import (
    App, Assign, BinOp, Deref, IntLit, Lam, Let, MkRef, MLFunction, MLGlobal, MLImport, Seq,
    TInt, TRef, Var, ml_module,
)
from repro.obs import Tracer, use_tracer
from repro.runtime import ModuleCache
from repro.runtime.cache import content_key

CONFIG = CompileConfig(opt_level="O2", cache="private")


def _lib():
    return l3_module("lib", functions=[
        L3Function("c0", "x", LInt(), LInt(),
                   LBinOp("+", LBinOp("*", LVar("x"), LIntLit(3)), LIntLit(1))),
        L3Function("c1", "x", LInt(), LInt(),
                   LLet("o", LNew(LVar("x")), LBinOp("+", LFree(LVar("o")), LIntLit(2)))),
    ])


def _app(tail_callee="c1"):
    return ml_module(
        "app",
        imports=[MLImport("lib", "c0", TInt(), TInt()), MLImport("lib", "c1", TInt(), TInt())],
        globals=[MLGlobal("counter", TRef(TInt()), MkRef(IntLit(0)))],
        functions=[
            MLFunction("bump", "x", TInt(), TInt(), Seq(
                Assign(Var("counter"), BinOp("+", Deref(Var("counter")), Var("x"))),
                Deref(Var("counter")),
            )),
            MLFunction("twice", "x", TInt(), TInt(), Let(
                "f", Lam("y", TInt(), BinOp("+", Var("y"), Var("x"))),
                App(Var("f"), App(Var("f"), IntLit(1))),
            )),
            MLFunction("main", "x", TInt(), TInt(),
                       App(Var("twice"), BinOp("+", App(Var("c0"), Var("x")), IntLit(5)))),
            MLFunction("tail", "x", TInt(), TInt(), App(Var("bump"), App(Var(tail_callee), Var("x")))),
        ],
    )


def _sources(tail_callee="c1"):
    return {"app": _app(tail_callee), "lib": _lib()}


def _defined(module):
    return sum(1 for function in module.functions if not isinstance(function, ImportedFunction))


@pytest.fixture
def checks(monkeypatch):
    """Counts top-level ``check_body`` calls: one per function body checked.

    Nested calls (block bodies) and global initializers are not counted.
    """

    counts = {"bodies": 0}
    local = threading.local()
    check_body = InstructionChecker.check_body
    check_global = module_typing.check_global

    def counting_check_body(self, *args, **kwargs):
        depth = getattr(local, "depth", 0)
        if depth == 0 and not getattr(local, "in_global", False):
            counts["bodies"] += 1
        local.depth = depth + 1
        try:
            return check_body(self, *args, **kwargs)
        finally:
            local.depth = depth

    def flagged_check_global(*args, **kwargs):
        local.in_global = True
        try:
            return check_global(*args, **kwargs)
        finally:
            local.in_global = False

    monkeypatch.setattr(InstructionChecker, "check_body", counting_check_body)
    monkeypatch.setattr(module_typing, "check_global", flagged_check_global)
    return counts


def _lower_spans(tracer):
    return [span for span in tracer.drain() if span.name == "compile.lower"]


class TestPassCount:
    def test_cached_source_compile_checks_each_function_twice(self, checks):
        cache = ModuleCache()
        with use_tracer(Tracer()) as tracer:
            program = api.compile(_sources(), CONFIG, cache=cache)
        assert program.diagnostics.cache["lower"] == "miss"
        assert checks["bodies"] == 2 * _defined(program.richwasm)
        assert [span.attrs["rechecked"] for span in _lower_spans(tracer)] == [0]

    def test_off_cache_source_compile_makes_the_same_count(self, checks):
        with use_tracer(Tracer()) as tracer:
            program = api.compile(_sources(), CONFIG.replace(cache="none"))
        assert checks["bodies"] == 2 * _defined(program.richwasm)
        assert [span.attrs["rechecked"] for span in _lower_spans(tracer)] == [0]

    @pytest.mark.parametrize("cache_policy", ["private", "none"])
    def test_bare_prelinked_module_is_checked_once(self, checks, cache_policy):
        linked = api.compile(_sources(), CONFIG, cache=ModuleCache()).richwasm
        checks["bodies"] = 0
        with use_tracer(Tracer()) as tracer:
            program = api.compile(linked, CONFIG.replace(cache=cache_policy))
        assert checks["bodies"] == _defined(linked)
        assert program.diagnostics.cache["typecheck"] == "bypass"
        assert [span.attrs["rechecked"] for span in _lower_spans(tracer)] == [_defined(linked)]

    def test_one_function_edit_checks_it_twice_and_replays_once(self, checks):
        cache = ModuleCache()
        api.compile(_sources(), CONFIG, cache=cache)
        checks["bodies"] = 0
        with use_tracer(Tracer()) as tracer:
            program = api.compile(_sources(tail_callee="c0"), CONFIG, cache=cache)
        assert program.diagnostics.units["lower"] == {"reused": _defined(program.richwasm) - 1,
                                                      "compiled": 1}
        assert checks["bodies"] == 2
        assert [span.attrs["rechecked"] for span in _lower_spans(tracer)] == [0]


class TestFallbackAndNoLeak:
    def test_lowering_miss_after_a_typecheck_hit_rechecks_bit_identically(self, checks):
        cache = ModuleCache()
        api.compile(_sources(), CONFIG, cache=cache)
        # Forget every lowering (the program store and the per-function
        # table): the link and typecheck stores still hit, so no stream is
        # recorded.
        cache._programs.clear()
        cache.units._tables["lower"].clear()
        checks["bodies"] = 0
        with use_tracer(Tracer()) as tracer:
            program = api.compile(_sources(), CONFIG, cache=cache)
        assert program.diagnostics.cache["link"] == "hit"
        assert program.diagnostics.cache["lower"] == "miss"
        defined = _defined(program.richwasm)
        assert checks["bodies"] == defined
        assert [span.attrs["rechecked"] for span in _lower_spans(tracer)] == [defined]
        fresh = api.compile(_sources(), CONFIG, cache=ModuleCache())
        assert program.wasm == fresh.wasm
        assert content_key("wasm", program.wasm) == content_key("wasm", fresh.wasm)
        assert cache._annotations is None

    def test_no_stream_is_left_pending(self):
        cache = ModuleCache()
        api.compile(_sources(), CONFIG, cache=cache)
        assert cache._annotations is None
        # A link miss whose program then hits lowers nothing.
        cache._linked.clear()
        again = api.compile(_sources(), CONFIG, cache=cache)
        assert (again.diagnostics.cache["link"], again.diagnostics.cache["program"]) == ("miss", "hit")
        assert cache._annotations is None
        direct = ModuleCache()
        api.compile(_richwasm_sources(), CONFIG, cache=direct)
        assert direct._annotations is None
        direct._linked.clear()
        api.compile(_richwasm_sources(), CONFIG, cache=direct)
        assert direct.stats["program"].hits == 1
        assert direct._annotations is None

    def test_api_lower_consumes_the_streams(self):
        cache = ModuleCache()
        lowered = api.lower(_sources(), CONFIG, cache=cache)
        assert lowered.diagnostics.cache["lower"] == "miss"
        assert cache._annotations is None

    def test_streams_only_replay_over_the_module_they_were_recorded_on(self):
        annotations = AnnotationStreams()
        linked = link_modules(_richwasm_sources(), annotations=annotations)
        assert annotations.module is linked
        # A different module object sharing every Function object: the
        # streams are ignored and every function is checked again.
        twin = dataclasses.replace(linked)
        before = rechecked_functions()
        replayed_over_twin = lower_module(twin, annotations=annotations)
        assert rechecked_functions() - before == _defined(linked)
        before = rechecked_functions()
        replayed = lower_module(linked, annotations=annotations)
        assert rechecked_functions() - before == 0
        assert replayed.wasm == replayed_over_twin.wasm == lower_module(linked).wasm
        # Each stream replays once: a second lowering checks again.
        before = rechecked_functions()
        lower_module(linked, annotations=annotations)
        assert rechecked_functions() - before == _defined(linked)


def _richwasm_sources():
    """``_sources()`` through their frontends: the RichWasm input modules."""

    return {name: detect_frontend(source).compile_source(source, CONFIG)
            for name, source in _sources().items()}


# -- rejection parity ----------------------------------------------------------------


def _ill_typed_body():
    bad = make_module(name="bad", functions=[
        Function(funtype([], [i32()]), (), (Return(),), ("broken",)),
    ])
    good = make_module(name="good", functions=[
        Function(funtype([], [i32()]), (), (NumConst(NumType.I32, 1),), ("one",)),
    ])
    return {"bad": bad, "good": good}


def _import_type_mismatch():
    exporter = make_module(name="a", functions=[
        Function(funtype([], [i32()]), (), (NumConst(NumType.I32, 1),), ("f",)),
    ])
    importer = make_module(name="b", functions=[
        ImportedFunction(funtype([i32()], [i32()]), Import("a", "f")),
    ])
    return {"a": exporter, "b": importer}


REJECTED = {
    "fig1_unsafe_interop": lambda: fig1_unsafe_program().modules(),
    "fig3_unsafe_stash": lambda: fig3_programs()[0].modules(),
    "ill_typed_body": _ill_typed_body,
    "import_export_mismatch": _import_type_mismatch,
}


class TestRejectionParity:
    @pytest.mark.parametrize("cache_policy", ["private", "none"])
    @pytest.mark.parametrize("fixture", sorted(REJECTED))
    def test_same_exception_class_and_message(self, fixture, cache_policy):
        with pytest.raises(Exception) as expected:
            check_link(REJECTED[fixture]())
        with pytest.raises(type(expected.value)) as raised:
            api.compile(REJECTED[fixture](), CONFIG.replace(cache=cache_policy))
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("cache_policy", ["private", "none"])
    def test_linked_check_rejects_unchecked_inputs_alike(self, cache_policy):
        # With the input checks off, the observed linked check is the one
        # that rejects the ill-typed body.
        with pytest.raises(Exception) as expected:
            check_module(_ill_typed_body()["bad"])
        cache = ModuleCache() if cache_policy == "private" else None
        with pytest.raises(type(expected.value)) as raised:
            api.compile(_ill_typed_body(), CONFIG.replace(cache=cache_policy, check_links=False),
                        cache=cache)
        assert str(raised.value) == str(expected.value)
        if cache is not None:
            assert cache._annotations is None
