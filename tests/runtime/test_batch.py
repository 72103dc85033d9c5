"""Tests for :class:`repro.runtime.BatchRunner` — budgets, isolation, stats."""

import pytest

from repro import api
from repro.core.typing.errors import WasmError
from repro.ffi import counter_program
from repro.ml import App, BinOp, IntLit, MLFunction, TInt, Var, ml_module
from repro.obs import Tracer, default_registry, use_tracer
from repro.runtime import (
    BatchRunner,
    InstancePool,
    ModuleCache,
    Request,
    Session,
    scenario_service,
)
from repro.wasm import (
    Binop,
    Const,
    GlobalGet,
    GlobalSet,
    Load,
    LocalGet,
    MemoryGrow,
    StoreI,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmGlobal,
    WasmMemory,
    WasmModule,
    WDrop,
    WUnreachable,
    validate_module,
)

I32 = ValType.I32
FT = WasmFuncType


def service_module():
    bump = WasmFunction(FT((I32,), (I32,)), (), (
        GlobalGet(0), LocalGet(0), Binop(I32, "add"), GlobalSet(0), GlobalGet(0),
    ), exports=("bump",))
    dirty = WasmFunction(FT((), (I32,)), (), (
        Const(I32, 1), MemoryGrow(), WDrop(),
        Const(I32, 0), Const(I32, 0xBEEF), StoreI(I32),
        WUnreachable(),
    ), exports=("dirty_then_trap",))
    peek = WasmFunction(FT((), (I32,)), (), (
        Const(I32, 0), Load(I32),
    ), exports=("peek",))
    module = WasmModule(
        functions=(bump, dirty, peek),
        globals=(WasmGlobal(I32, True, (Const(I32, 0),)),),
        memory=WasmMemory(1, 4),
    )
    validate_module(module)
    return module


@pytest.fixture(params=["tree", "flat"])
def runner(request):
    return BatchRunner(InstancePool(service_module(), engine=request.param))


class TestIsolation:
    def test_each_request_starts_fresh(self, runner):
        report = runner.run([("bump", (5,)), ("bump", (5,)), ("bump", (5,))])
        assert report.ok_count == 3
        # No state leaks between requests: every bump sees global 0.
        assert [outcome.values for outcome in report.outcomes] == [[5]] * 3

    def test_trap_is_recorded_and_contained(self, runner):
        report = runner.run([
            Request("dirty_then_trap"),
            Request("peek"),
        ])
        first, second = report.outcomes
        assert not first.ok and first.trap == "unreachable executed"
        # The trapped request grew memory and wrote to it; the next request
        # observes pristine zeroed memory of the original size.
        assert second.ok and second.values == [0]
        assert report.trap_count == 1 and report.ok_count == 1
        assert "TRAP dirty_then_trap" in report.format_report()

    def test_session_keeps_state_within_one_request_only(self, runner):
        session = Session(calls=(("bump", (2,)), ("bump", (3,)), ("bump", (4,))))
        report = runner.run([session, ("bump", (1,))])
        assert report.outcomes[0].values == [[2], [5], [9]]  # stateful inside
        assert report.outcomes[1].values == [1]              # isolated outside


class TestBudgets:
    def test_per_request_budget_traps_only_that_request(self, runner):
        report = runner.run([
            Request("bump", (1,), max_steps=2),   # 5 steps needed: traps
            Request("bump", (1,)),                # unlimited: fine
            Request("bump", (1,), max_steps=50),  # roomy: fine
        ])
        assert [outcome.ok for outcome in report.outcomes] == [False, True, True]
        assert report.outcomes[0].trap == "step budget exhausted"
        # The blown budget costs exactly budget+1 steps (the offending step).
        assert report.outcomes[0].steps == 3

    def test_budgets_do_not_accumulate_across_requests(self, runner):
        # Each request's budget is relative to its own start; recycling the
        # same pooled instance must not eat into later budgets.
        requests = [Request("bump", (1,), max_steps=10)] * 20
        report = runner.run(requests)
        assert report.ok_count == 20
        assert len({outcome.steps for outcome in report.outcomes}) == 1

    def test_pool_level_budget_caps_request_budget(self):
        pool = InstancePool(service_module(), max_steps=3)
        runner = BatchRunner(pool)
        outcome = runner.run_one(Request("bump", (1,), max_steps=1000))
        assert not outcome.ok and outcome.trap == "step budget exhausted"


class TestAggregates:
    def test_report_totals(self, runner):
        report = runner.run([("bump", (1,)), ("dirty_then_trap", ())])
        assert report.requests == 2
        assert report.total_steps == sum(outcome.steps for outcome in report.outcomes)
        assert report.wall_s > 0
        assert report.requests_per_sec > 0
        assert len(report.traps()) == 1

    def test_tuple_requests_with_budget(self, runner):
        report = runner.run([("bump", (1,), 2)])
        assert not report.outcomes[0].ok


class TestScenarioService:
    def test_counter_scenario_end_to_end(self):
        cache = ModuleCache()
        runner = scenario_service(counter_program, cache=cache)
        session = Session(calls=(
            ("client.client_init", (10,)),
            ("client.client_tick", ()),
            ("client.client_tick", ()),
            ("client.client_total", ()),
        ))
        report = runner.run([session] * 3)
        assert report.ok_count == 3
        assert all(outcome.values[-1] == [12] for outcome in report.outcomes)
        # All three requests cost identical steps: pooled resets are exact.
        assert len({outcome.steps for outcome in report.outcomes}) == 1

    def test_accepts_prebuilt_scenario_and_engine(self):
        from repro.api import CompileConfig

        runner = scenario_service(
            counter_program(), cache=ModuleCache(), config=CompileConfig(engine="tree")
        )
        outcome = runner.run_one(Session(calls=(
            ("client.client_init", (1,)), ("client.client_total", ()),
        )))
        assert outcome.ok and outcome.values[-1] == [1]
        assert runner.pool.engine == "tree"


class TestInternalErrors:
    """Engine exceptions that are not traps stay inside their request."""

    @staticmethod
    def _recursive_source():
        return ml_module("rec", functions=[
            # Unbounded self-recursion: the compiled tier runs out of Python
            # stack (RecursionError) long before the step budget.
            MLFunction("down", "x", TInt(), TInt(), App(Var("down"), BinOp("+", Var("x"), IntLit(1)))),
            MLFunction("double", "x", TInt(), TInt(), BinOp("*", Var("x"), IntLit(2))),
        ])

    def test_recursion_error_is_an_internal_error_outcome(self):
        traps = default_registry().counter("runtime.traps")
        before = traps.labeled(kind="internal_error")
        with use_tracer(Tracer()) as tracer:
            service = api.serve(self._recursive_source(), engine="compiled", max_steps=200_000)
            report = service.run([
                ("rec.double", (4,)),
                ("rec.down", (1,)),
                ("rec.double", (21,)),
                ("rec.down", (1,)),
                ("rec.double", (5,)),
            ])
        outcomes = report.outcomes
        for failed in (outcomes[1], outcomes[3]):
            assert not failed.ok and failed.values is None
            assert failed.trap_kind == "internal_error"
            assert "RecursionError" in failed.trap
        # The pool keeps serving: requests after the failure answer correctly.
        assert [outcome.values for outcome in outcomes[::2]] == [[8], [42], [10]]
        assert traps.labeled(kind="internal_error") - before == 2
        requests = [span for span in tracer.drain() if span.name == "request"]
        assert [span.attrs.get("trap_kind") for span in requests] == [
            None, "internal_error", None, "internal_error", None,
        ]

    def test_unknown_export_still_raises(self):
        runner = BatchRunner(InstancePool(service_module(), engine="compiled"))
        with pytest.raises(WasmError, match="no export named"):
            runner.run_one(Request("nope"))
