"""Tests for :class:`repro.runtime.InstancePool` — reset bit-identity.

The pool's contract: a recycled (used-then-reset) instance is
observationally indistinguishable from a freshly instantiated one — results,
trap messages, final memory bytes, globals, and the engine's cumulative
``steps`` counter, on both engines.  This file is the CI enforcement of that
contract, including across every ``max_steps`` budget point the engine
parity suite uses.
"""

import pytest

from repro.opt import run_pool_reset_cross_check
from repro.runtime import InstancePool, ModuleCache, run_initializers_setup
from repro.wasm import (
    Binop,
    Const,
    GlobalGet,
    GlobalSet,
    LocalGet,
    LocalSet,
    MemoryGrow,
    StoreI,
    Testop as WTestop,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmGlobal,
    WasmInterpreter,
    WasmMemory,
    WasmModule,
    WasmTrap,
    WBlock,
    WBr,
    WBrIf,
    WDrop,
    WLoop,
    validate_module,
)

I32 = ValType.I32
FT = WasmFuncType

# The budget points used by tests/wasm/test_engines.py::TestMaxStepsParity.
BUDGET_POINTS = [1, 2, 3, 5, 17, 100, 399, 701]


def stateful_module():
    """A module that dirties every resettable surface: it grows memory,
    writes to the grown region, and accumulates into a global."""

    body = (
        Const(I32, 1), MemoryGrow(), WDrop(),
        Const(I32, 70000), LocalGet(0), StoreI(I32),
        GlobalGet(0), LocalGet(0), Binop(I32, "add"), GlobalSet(0),
        GlobalGet(0),
    )
    function = WasmFunction(FT((I32,), (I32,)), (), body, exports=("bump",))
    module = WasmModule(
        functions=(function,),
        globals=(WasmGlobal(I32, True, (Const(I32, 0),)),),
        memory=WasmMemory(1, 8),
    )
    validate_module(module)
    return module


def loop_module(n=100):
    function = WasmFunction(FT((), (I32,)), (I32,), (
        Const(I32, n), LocalSet(0),
        WBlock(FT((), ()), (
            WLoop(FT((), ()), (
                LocalGet(0), WTestop(I32), WBrIf(1),
                LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                WBr(0),
            )),
        )),
        LocalGet(0),
    ), exports=("main",))
    module = WasmModule(functions=(function,))
    validate_module(module)
    return module


class TestReset:
    def test_reset_restores_memory_globals_and_steps(self):
        pool = InstancePool(stateful_module(), engine="flat")
        entry = pool.acquire()
        baseline_steps = entry.steps
        assert entry.invoke("bump", [5]) == [5]
        assert entry.instance.memory.size_pages() == 2  # grew
        assert entry.instance.globals[0] == 5
        pool.release(entry)

        recycled = pool.acquire()
        assert recycled is entry  # LIFO reuse
        assert recycled.instance.memory.size_pages() == 1  # shrunk back
        assert bytes(recycled.instance.memory.data) == bytes(1 << 16)
        assert recycled.instance.globals[0] == 0
        assert recycled.steps == baseline_steps
        assert recycled.generation == 1
        # And the recycled instance behaves exactly like new.
        assert recycled.invoke("bump", [5]) == [5]

    def test_reset_restores_patched_function_slots(self):
        module = loop_module()
        pool = InstancePool(module, engine="flat")
        entry = pool.acquire()
        original = list(entry.instance.funcs)
        replacement = WasmFunction(FT((), (I32,)), (), (Const(I32, 99),), exports=("main",))
        entry.instance.funcs[0] = replacement
        assert entry.invoke("main") == [99]
        pool.release(entry)
        recycled = pool.acquire()
        assert list(recycled.instance.funcs) == original
        assert recycled.invoke("main") == [0]

    def test_unresettable_instance_is_discarded_not_raised(self):
        # A host (or test) keeping a zero-copy view alive makes the resizing
        # reset impossible; release must swallow that, drop the instance and
        # serve a fresh one next — never blow up a caller's finally block.
        pool = InstancePool(stateful_module(), engine="flat")
        entry = pool.acquire()
        entry.invoke("bump", [1])  # grows memory: reset will need a resize
        leaked_view = entry.instance.memory.read(0, 4)
        pool.release(entry)  # must not raise
        assert pool.stats.reset_failures == 1 and pool.stats.discarded == 1
        assert pool.idle == 0
        leaked_view.release()
        fresh = pool.acquire()
        assert fresh is not entry
        assert fresh.invoke("bump", [2]) == [2]

    def test_pool_capacity_and_stats(self):
        pool = InstancePool(loop_module(), max_size=1)
        first, second = pool.acquire(), pool.acquire()
        assert pool.stats.created == 2 and pool.size == 2
        pool.release(first)
        pool.release(second)  # over capacity: discarded
        assert pool.stats.discarded == 1 and pool.idle == 1
        pool.acquire()
        assert pool.stats.reuses == 1

    def test_warm_precreates_instances(self):
        pool = InstancePool(loop_module(), max_size=3)
        pool.warm(2)
        assert pool.idle == 2 and pool.stats.created == 2
        pool.warm(5)  # clamped to max_size
        assert pool.idle == 3

    def test_engine_instance_rejected(self):
        from repro.wasm import FlatVMEngine

        with pytest.raises(TypeError, match="engine .name."):
            InstancePool(loop_module(), engine=FlatVMEngine())

    def test_setup_runs_once_and_is_part_of_the_image(self):
        from repro import api
        from repro.ffi import counter_program

        compiled = api.compile(counter_program().modules(), cache=ModuleCache())
        pool = compiled.instance_pool(setup=run_initializers_setup)
        entry = pool.acquire()
        image_steps = entry.image.steps
        assert image_steps > 0  # the _init exports ran and were captured
        entry.invoke("client.client_init", [1])
        pool.release(entry)
        recycled = pool.acquire()
        assert recycled.steps == image_steps


class TestPoolResetParity:
    @pytest.mark.parametrize("engine", ["tree", "flat", "compiled"])
    def test_stateful_module_bit_identical(self, engine):
        reports = run_pool_reset_cross_check(
            stateful_module(),
            [("bump", (3,)), ("bump", (4,)), ("bump", (0xFFFFFFFF,))],
            engines=(engine,),
        )
        report = reports[engine]
        assert report.ok, report.format_report()

    @pytest.mark.parametrize("budget", BUDGET_POINTS)
    def test_budget_points_bit_identical(self, budget):
        """Across every max_steps budget the engine-parity suite uses, a
        pooled-reset instance traps (or succeeds) exactly like a fresh one,
        at the same cumulative step count, on every engine."""

        reports = run_pool_reset_cross_check(
            loop_module(),
            [("main", ())],
            max_steps=budget,
        )
        assert set(reports) == {"tree", "flat", "compiled"}
        for engine, report in reports.items():
            assert report.ok, f"budget {budget} ({engine}): {report.format_report()}"
        # The engines also agree with each other.
        baselines = {repr(report.outcomes[0].baseline) for report in reports.values()}
        assert len(baselines) == 1
        assert len({report.baseline_steps for report in reports.values()}) == 1

    def test_trapping_warmup_leaves_no_trace(self):
        # The warm-up run traps mid-way (budget exhausted while memory and
        # globals are already dirty); the reset must still restore the
        # pristine image.
        reports = run_pool_reset_cross_check(
            stateful_module(),
            [("bump", (7,))],
            warmup=[("bump", (1,)), ("bump", (2,)), ("bump", (3,))],
            max_steps=25,
        )
        for engine, report in reports.items():
            assert report.ok, f"{engine}:\n{report.format_report()}"


class TestPoolAcrossEngines:
    @pytest.mark.parametrize("engine", ["tree", "flat", "compiled"])
    def test_pooled_results_match_fresh_interpreter(self, engine):
        module = stateful_module()
        pool = InstancePool(module, engine=engine)
        with pool.instance() as entry:
            pooled = [entry.invoke("bump", [value]) for value in (1, 2, 3)]
        interp = WasmInterpreter(engine=engine)
        instance = interp.instantiate(module)
        fresh = [interp.invoke(instance, "bump", [value]) for value in (1, 2, 3)]
        assert pooled == fresh == [[1], [3], [6]]
