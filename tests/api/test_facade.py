"""repro.api.compile / lower / serve: frontends, caching, diagnostics."""

import warnings

import pytest

from repro import api
from repro.api import (
    CompileConfig,
    ConfigError,
    Diagnostics,
    Frontend,
    available_frontends,
    detect_frontend,
    register_frontend,
    resolve_frontend,
)
from repro.core.typing.errors import LinkError
from repro.ffi import Program, counter_program
from repro.l3 import (
    L3Function, LBinOp, LFree, LInt, LIntLit, LLet, LLetPair, LNew, LSwap, LVar, l3_module,
)
from repro.lower import LoweredModule
from repro.ml import BinOp, IntLit, MLFunction, TInt, Var, ml_module
from repro.runtime import CompiledProgram, ModuleCache
from repro.wasm.interpreter import WasmTrap


def ml_source():
    return ml_module("mlmod", functions=[
        MLFunction("double", "x", TInt(), TInt(), BinOp("*", Var("x"), IntLit(2))),
    ])


def l3_source():
    return l3_module("l3mod", functions=[
        L3Function("churn", "x", LInt(), LInt(),
                   LLet("o", LNew(LVar("x")),
                        LLetPair("old", "o2", LSwap(LVar("o"), LIntLit(1)),
                                 LBinOp("+", LVar("old"), LFree(LVar("o2")))))),
    ])


class TestFrontendRegistry:
    def test_builtin_frontends(self):
        assert available_frontends() == ("l3", "ml", "richwasm")

    def test_detection_by_source_type(self):
        assert detect_frontend(ml_source()).name == "ml"
        assert detect_frontend(l3_source()).name == "l3"
        assert detect_frontend(counter_program().ml).name == "richwasm"

    def test_unknown_source_type_names_frontends(self):
        with pytest.raises(ConfigError, match=r"l3, ml, richwasm"):
            detect_frontend(42)

    def test_unknown_frontend_name_names_frontends(self):
        with pytest.raises(ConfigError, match=r"l3, ml, richwasm"):
            resolve_frontend("rust")

    def test_duplicate_registration_rejected(self):
        class FakeML(Frontend):
            name = "ml"

            def source_types(self):
                return ()

            def compile_source(self, source, config):  # pragma: no cover
                raise AssertionError

        with pytest.raises(ConfigError, match="already registered"):
            register_frontend(FakeML())


class TestCompile:
    def test_mixed_frontends_link_into_one_program(self):
        compiled = api.compile({"m": ml_source(), "c": l3_source()}, cache=ModuleCache())
        assert isinstance(compiled, CompiledProgram)
        assert compiled.diagnostics.frontends == {"m": "ml", "c": "l3"}
        service = api.serve(compiled)
        assert service.call("double", [21]) == [42]
        assert service.call("churn", [9]) == [10]

    def test_explicit_frontend_pairs(self):
        compiled = api.compile({"m": ("ml", ml_source())}, cache=ModuleCache())
        assert compiled.diagnostics.frontends == {"m": "ml"}

    def test_single_source_auto_named(self):
        compiled = api.compile(ml_source(), cache=ModuleCache())
        assert compiled.diagnostics.frontends == {"mlmod": "ml"}
        assert api.serve(compiled).call("double", [4]) == [8]

    def test_scenario_builder_and_program_sources(self):
        cache = ModuleCache()
        from_builder = api.compile(counter_program, cache=cache)
        from_scenario = api.compile(counter_program(), cache=cache)
        from_program = api.compile(Program(counter_program().modules()), cache=cache)
        assert from_builder is from_scenario is from_program  # one content key

    def test_prelinked_richwasm_module_passes_through(self):
        linked = Program(counter_program().modules()).link()
        compiled = api.compile(linked, cache=ModuleCache())
        # No namespacing on top of the already-linked exports.
        assert "client.client_init" in compiled.wasm.exported_functions()

    def test_config_key_separates_levels_and_shares_across_engines(self):
        cache = ModuleCache()
        o0 = api.compile(counter_program, "O0", cache=cache)
        o2 = api.compile(counter_program, "O2", cache=cache)
        assert o0 is not o2 and o0.key != o2.key
        tree = api.compile(counter_program, CompileConfig(engine="tree"), cache=cache)
        assert tree.key == o0.key  # engine is bookkeeping, not content
        assert tree.wasm is o0.wasm
        assert tree.engine == "tree" and o0.engine is None

    def test_cache_policy_none_compiles_fresh(self):
        first = api.compile(counter_program, CompileConfig(cache="none"))
        second = api.compile(counter_program, CompileConfig(cache="none"))
        assert first is not second
        # Off the cache paths the program hash is lazy: nothing is stored
        # until .key is actually read, and then both computes agree.
        assert first.cached_key is None and first.diagnostics.key is None
        assert first.key == second.key == first.cached_key
        assert first.diagnostics.cache["lower"] == "bypass"

    def test_program_cache_hit_refreshes_execution_bookkeeping(self):
        # An engine-matching hit must not silently drop the later caller's
        # execution settings (e.g. its step budget).
        cache = ModuleCache()
        first = api.compile(counter_program, CompileConfig(opt_level="O2"), cache=cache)
        budgeted = api.compile(
            counter_program, CompileConfig(opt_level="O2", max_steps=10), cache=cache
        )
        assert budgeted.config.max_steps == 10
        assert budgeted.wasm is first.wasm and budgeted.key == first.key
        with pytest.raises(WasmTrap, match="step budget exhausted"):
            api.serve(budgeted).call("client_init", [1])

    def test_cache_policy_shared_hits_across_calls(self):
        config = CompileConfig(opt_level="O1")
        first = api.compile(counter_program, config)
        second = api.compile(counter_program, config)
        assert second is first
        assert second.diagnostics.cache["program"] == "hit"

    def test_overrides_merge_into_config(self):
        compiled = api.compile(counter_program, opt_level="O1", engine="tree", cache=ModuleCache())
        assert compiled.config.opt_level == "O1" and compiled.engine == "tree"

    def test_bad_cache_argument(self):
        with pytest.raises(ConfigError, match="ModuleCache"):
            api.compile(counter_program, cache=object())
        compiled = api.compile(counter_program, cache=ModuleCache())
        with pytest.raises(ConfigError, match="ModuleCache"):
            api.serve(compiled, cache="shared")

    def test_bare_calls_do_not_warn(self):
        # Calls with no config compile under the defaults: a "none" policy
        # memoizes nothing, a private cache misses once, and the codegen
        # functions return RichWasm, which api.lower lowers.
        from repro.ml import compile_ml_module
        from repro.runtime import scenario_service

        program = Program(counter_program().modules())
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            lowered = api.lower(program, {"cache": "none"})
            compiled = api.compile(program, {"cache": "private"})
            richwasm = compile_ml_module(ml_source())
            ml_lowered = api.lower(richwasm, {"cache": "none"})
            scenario_service(counter_program, cache=ModuleCache())
        assert [w for w in record if issubclass(w.category, DeprecationWarning)] == []
        assert lowered.diagnostics.cache["lower"] == "bypass"
        assert isinstance(compiled, CompiledProgram)
        assert compiled.diagnostics.cache["program"] == "miss"
        assert not isinstance(richwasm, LoweredModule)
        assert isinstance(ml_lowered, LoweredModule)

    def test_bare_cache_lower_shares_the_o0_entry(self):
        # api.lower without a config lowers under CompileConfig.of(None),
        # whose key is O0, 4 pages, "linked" like the facade's "O0", so both
        # share one program-store entry.
        cache = ModuleCache()
        linked = cache.link(counter_program().modules())
        bare = api.lower(linked, cache=cache)
        facade = api.compile(counter_program, "O0", cache=cache)
        assert facade.key == cache.program_key(linked, CompileConfig.of(None))
        assert facade.wasm is bare.wasm
        assert cache.stats["program"].misses == 1
        assert cache.stats["program"].hits == 1
        assert CompileConfig.of(None).content_key() == CompileConfig(
            opt_level="O0", memory_pages=4, link_name="linked", cache="private"
        ).content_key()

    def test_lower_honors_cache_policy(self):
        # api.lower resolves the config's cache policy exactly like
        # api.compile: "shared" lands in the default cache, "none" memoizes
        # nothing.
        from repro.ml import compile_ml_module
        from repro.runtime import default_cache

        cache = default_cache()
        config = CompileConfig(opt_level="O1", memory_pages=7)  # cache="shared"
        before = cache.stats["program"].lookups
        first = api.lower(compile_ml_module(ml_source()), config)
        second = api.lower(compile_ml_module(ml_source()), config)
        assert cache.stats["program"].lookups == before + 2
        assert first.wasm is second.wasm  # payload shared via the process cache
        direct = api.lower(compile_ml_module(ml_source()), config.replace(cache="none"))
        assert cache.stats["program"].lookups == before + 2
        assert direct.wasm == first.wasm


class TestOneLoweringEntry:
    """api.lower and api.compile run one pipeline over one program entry."""

    @pytest.mark.parametrize("level", ["O0", "O2"])
    @pytest.mark.parametrize("tier", ["memory", "disk"])
    @pytest.mark.parametrize("lower_first", [True, False], ids=["lower-compile", "compile-lower"])
    def test_lower_and_compile_share_one_entry(self, tmp_path, level, tier, lower_first):
        from repro.cluster.diskcache import DiskCache

        cache = ModuleCache(disk=DiskCache(tmp_path) if tier == "disk" else None)
        if lower_first:
            lowered = api.lower(counter_program, level, cache=cache)
            compiled = api.compile(counter_program, level, cache=cache)
        else:
            compiled = api.compile(counter_program, level, cache=cache)
            lowered = api.lower(counter_program, level, cache=cache)
        assert lowered.wasm is compiled.wasm
        assert (cache.stats["program"].misses, cache.stats["program"].hits) == (1, 1)
        uncached = api.lower(counter_program, CompileConfig.of(level, cache="none"))
        assert uncached.wasm == lowered.wasm


class TestDiagnostics:
    def test_stages_cache_events_and_pass_stats(self):
        cache = ModuleCache()
        compiled = api.compile(counter_program, "O2", cache=cache)
        diag = compiled.diagnostics
        assert isinstance(diag, Diagnostics)
        assert [t.stage for t in diag.stages] == [
            "frontend", "link", "program", "typecheck", "lower", "decode", "program"
        ]
        # The linked module was type-checked (memoized) inside the link
        # stage, so the explicit typecheck stage reports a cache hit.
        assert diag.cache == {
            "link": "miss",
            "typecheck": "hit",
            "program": "miss",
            "lower": "miss",
            "decode": "miss",
        }
        assert diag.key == compiled.key
        assert diag.total_seconds >= diag.seconds("lower") > 0
        assert {s.name for s in diag.pass_stats} == set(compiled.config.pass_names())
        assert not diag.cache_hit
        again = api.compile(counter_program, "O2", cache=cache)
        assert again.diagnostics.cache_hit
        assert "compile:" in diag.format_report()

    def test_lower_artifact_carries_diagnostics(self):
        lowered = api.lower(ml_source(), "O1", cache=None)
        assert isinstance(lowered, LoweredModule)
        assert lowered.diagnostics.frontends == {"mlmod": "ml"}
        assert lowered.optimization is not None
        assert lowered.diagnostics.optimization is lowered.optimization

    def test_typecheck_stage_observable_through_facade(self):
        # Cached pipeline: linking routes every module check through the
        # cache's memoized typecheck stage, so the stats and the per-call
        # Diagnostics stay observable through the facade.
        cache = ModuleCache()
        compiled = api.compile(counter_program, cache=cache)
        assert compiled.diagnostics.cache["typecheck"] == "hit"
        assert compiled.diagnostics.seconds("typecheck") >= 0
        assert "typecheck" in cache.stats
        assert cache.stats["typecheck"].misses >= 2  # inputs + linked result
        again = api.compile(counter_program, cache=cache)
        assert again.diagnostics.cache["typecheck"] == "hit"
        # Off-cache pipeline: the linked check hands its annotation streams
        # to the lowering, so the stage is recorded as a bypass rather than
        # re-checked standalone.
        direct = api.compile(counter_program, CompileConfig(cache="none"))
        assert direct.diagnostics.cache["typecheck"] == "bypass"
        # A pre-linked Module the cache has never seen is not checked twice
        # (lowering checks it): first sight bypasses, later sights do not
        # suddenly become standalone misses either.
        linked = cache.link(counter_program().modules(), name="prelinked")
        fresh = ModuleCache()
        cold = api.compile(linked, cache=fresh)
        assert cold.diagnostics.cache["typecheck"] == "bypass"
        assert fresh.stats["typecheck"].lookups == 0


class TestServe:
    def test_session_and_isolation(self):
        service = api.serve(counter_program, "O2", cache=ModuleCache())
        script = [("client_init", (5,))] + [("client_tick", ())] * 3 + [("client_total", ())]
        first = service.session(script)
        second = service.session(script)
        assert first.ok and second.ok
        assert first.values[-1] == second.values[-1] == [8]
        assert first.steps == second.steps  # pooled resets are exact

    def test_call_raises_wasm_trap(self):
        service = api.serve(counter_program, cache=ModuleCache(), max_steps=3)
        with pytest.raises(WasmTrap, match="step budget exhausted"):
            service.call("client_init", [1])

    def test_export_suffix_resolution(self):
        service = api.serve(counter_program, cache=ModuleCache())
        # Exact names (bare or qualified) win; suffix matching kicks in only
        # for names the export table does not contain verbatim.
        assert service.resolve("client_total") == "client_total"
        assert service.resolve("client.client_total") == "client.client_total"
        from repro.api import resolve_export

        assert resolve_export(("client.client_total",), "client_total") == "client.client_total"

    def test_unknown_export_raises_link_error_listing(self):
        service = api.serve(counter_program, cache=ModuleCache())
        with pytest.raises(LinkError, match="client.client_init"):
            service.call("nope")

    def test_ambiguous_export_raises_link_error_naming_candidates(self):
        service = api.serve(
            {"a": ml_source(), "b": ("ml", ml_source())}, cache=ModuleCache(), check_links=True
        )
        with pytest.raises(LinkError, match=r"a\.double.*b\.double"):
            service.call("double", [1])

    def test_serve_rejects_conflicting_compile_relevant_config(self):
        compiled = api.compile(counter_program, "O2", cache=ModuleCache())
        with pytest.raises(ConfigError, match="conflict"):
            api.serve(compiled, CompileConfig(opt_level="O0"))
        # Execution-bookkeeping overrides are fine: same compiled content.
        service = api.serve(compiled, max_steps=5000, pool_size=2)
        assert service.config.max_steps == 5000

    def test_serve_from_sources_respects_pool_size_and_engine(self):
        service = api.serve(counter_program, CompileConfig(engine="tree", pool_size=2),
                            cache=ModuleCache())
        assert service.pool.engine == "tree"
        assert service.pool.max_size == 2
        report = service.run([("client_init", (1,)), ("client_init", (2,))])
        assert report.ok_count == 2

    def test_stats_are_structured(self):
        cache = ModuleCache()
        service = api.serve(counter_program, cache=cache)
        service.call("client_init", [0])
        stats = service.stats()
        assert stats.pool.acquired == 1
        assert stats.cache["program"].misses == 1
