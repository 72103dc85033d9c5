"""Obs wired through the real stack: facade, service, batch runner, cache."""

import pytest

from repro.api import CompileConfig, Diagnostics, compile as api_compile, serve
from repro.core.syntax import (
    Function,
    NumConst,
    NumType,
    Return,
    SizeConst,
    arrow,
    funtype,
    i32,
    make_module,
)
from repro.core.syntax import GetLocal, IntBinop, NumBinop
from repro.obs import NOOP_TRACER, Tracer, use_tracer
from repro.runtime import ModuleCache, Request
from repro.runtime.batch import classify_trap
from repro.wasm.interpreter import WasmTrap


def tiny_module(name="obs_it"):
    double = Function(
        funtype=funtype([i32()], [i32()]),
        locals_sizes=(SizeConst(32),),
        body=(GetLocal(0), GetLocal(0), NumBinop(NumType.I32, IntBinop.ADD), Return()),
        exports=("double",),
        name="double",
    )
    return make_module(functions=[double], name=name)


def spans_by_name(tracer):
    index = {}
    for span in tracer.drain():
        index.setdefault(span.name, []).append(span)
    return index


class TestServiceTracing:
    def test_call_nests_request_under_service_call_with_one_trace(self):
        with use_tracer(Tracer()) as tracer:
            service = serve(tiny_module(), CompileConfig(opt_level="O0", cache="none"))
            assert service.call("double", [21]) == [42]
        spans = spans_by_name(tracer)
        (call,) = spans["service.call"]
        (request,) = spans["request"]
        assert request.parent_id == call.span_id
        assert request.trace_id == call.trace_id
        assert request.attrs["ok"] is True
        assert request.attrs["steps"] > 0
        # The compile side of the same serve() call traced too.
        assert "api.serve" in spans and "api.compile" in spans

    def test_session_and_run_spans(self):
        with use_tracer(Tracer()) as tracer:
            service = serve(tiny_module(), CompileConfig(opt_level="O0", cache="none"))
            outcome = service.session([("double", (2,)), ("double", (3,))])
            report = service.run([("double", (4,))])
        assert outcome.ok and report.ok_count == 1
        spans = spans_by_name(tracer)
        (session,) = spans["service.session"]
        assert session.attrs["calls"] == 2
        session_request = [s for s in spans["request"] if s.parent_id == session.span_id]
        assert len(session_request) == 1
        assert outcome.trace_id == session_request[0].trace_id == session.trace_id

    def test_every_request_outcome_carries_its_trace_id(self):
        with use_tracer(Tracer()) as tracer:
            service = serve(tiny_module(), CompileConfig(opt_level="O0", cache="none"))
            report = service.run([("double", (n,)) for n in range(3)])
        request_spans = spans_by_name(tracer)["request"]
        assert len(request_spans) == 3
        span_traces = {s.trace_id for s in request_spans}
        assert {o.trace_id for o in report.outcomes} == span_traces

    def test_explicit_request_trace_id_propagates_to_span_and_outcome(self):
        with use_tracer(Tracer()) as tracer:
            service = serve(tiny_module(), CompileConfig(opt_level="O0", cache="none"))
            outcome = service.run_one(Request("double", (5,), trace_id="feedface00000001"))
        assert outcome.trace_id == "feedface00000001"
        (request,) = spans_by_name(tracer)["request"]
        assert request.trace_id == "feedface00000001"

    def test_trace_id_present_even_without_tracing(self):
        service = serve(tiny_module(), CompileConfig(opt_level="O0", cache="none"))
        outcome = service.run_one(Request("double", (5,), trace_id="cafe000000000001"))
        assert outcome.trace_id == "cafe000000000001"


class TestTrapTagging:
    def test_budget_trap_tags_span_and_outcome(self):
        with use_tracer(Tracer()) as tracer:
            service = serve(tiny_module(), CompileConfig(opt_level="O0", cache="none"))
            outcome = service.run_one(Request("double", (5,), max_steps=1))
        assert not outcome.ok
        assert outcome.trap_kind == "step_budget"
        (request,) = spans_by_name(tracer)["request"]
        assert request.status == "trap"
        assert request.attrs["trap_kind"] == "step_budget"
        assert request.attrs["budget"] == 1

    def test_service_call_span_traps_when_call_raises(self):
        with use_tracer(Tracer()) as tracer:
            service = serve(tiny_module(), CompileConfig(opt_level="O0", cache="none"))
            with pytest.raises(WasmTrap):
                service.call("double", [5], max_steps=1)
        (call,) = spans_by_name(tracer)["service.call"]
        assert call.status == "trap"

    def test_classify_trap_kinds_are_stable(self):
        assert classify_trap("step budget exhausted") == "step_budget"
        assert classify_trap("out-of-bounds memory access at 12") == "oob_memory"
        assert classify_trap("unreachable executed") == "unreachable"
        assert classify_trap("i32 division by zero") == "div_by_zero"
        assert classify_trap("something novel") == "other"


class TestCompileTelemetry:
    def test_cache_events_count_hits_misses_and_bypasses(self):
        from repro.obs import default_registry

        events = default_registry().counter("runtime.cache.events")
        cache = ModuleCache()
        config = CompileConfig(opt_level="O0", cache="private")

        before_miss = events.labeled(stage="program", event="miss")
        api_compile(tiny_module("obs_cache_a"), config, cache=cache)
        assert events.labeled(stage="program", event="miss") == before_miss + 1

        before_hit = events.labeled(stage="program", event="hit")
        api_compile(tiny_module("obs_cache_a"), config, cache=cache)
        assert events.labeled(stage="program", event="hit") == before_hit + 1

        before_bypass = events.labeled(stage="program", event="bypass")
        api_compile(tiny_module("obs_cache_b"), CompileConfig(opt_level="O0", cache="none"))
        assert events.labeled(stage="program", event="bypass") == before_bypass + 1

    def test_compile_stage_spans_share_the_api_compile_trace(self):
        with use_tracer(Tracer()) as tracer:
            api_compile(tiny_module(), CompileConfig(opt_level="O0", cache="none"))
        spans = spans_by_name(tracer)
        (root,) = spans["api.compile"]
        assert root.attrs["cache_hit"] is False
        for name in ("compile.frontend", "compile.link", "compile.lower"):
            for span in spans[name]:
                assert span.trace_id == root.trace_id


class TestDiagnosticsRoundTrip:
    def test_to_dict_from_dict_round_trips(self):
        program = api_compile(tiny_module(), CompileConfig(opt_level="O2", cache="none"))
        data = program.diagnostics.to_dict()
        rebuilt = Diagnostics.from_dict(data)
        assert rebuilt.to_dict() == data
        assert rebuilt.config == program.diagnostics.config
        assert [t.stage for t in rebuilt.stages] == [t.stage for t in program.diagnostics.stages]
        # The rebuilt optimization stats still render.
        assert "optimization:" in rebuilt.format_report()

    def test_round_trip_survives_json(self):
        import json

        program = api_compile(tiny_module(), CompileConfig(opt_level="O1", cache="none"))
        data = json.loads(json.dumps(program.diagnostics.to_dict()))
        assert Diagnostics.from_dict(data).to_dict() == data

    def test_format_report_lists_untimed_bypass_stages(self):
        program = api_compile(tiny_module(), CompileConfig(opt_level="O0", cache="none"))
        report = program.diagnostics.format_report()
        # Off-cache, typecheck/decode never run under a timer but their
        # bypass outcomes still show in pipeline order.
        assert "typecheck" in report and "[bypass]" in report
        assert report.index("typecheck") < report.index("decode")


def test_default_tracer_restored():
    """Obs tests must not leak an installed tracer into the rest of the run."""

    from repro.obs import get_tracer

    assert get_tracer() is NOOP_TRACER
