"""Step-profiler attribution: engine parity, trap priority, reporting."""

import pytest

from repro.obs import UNNAMED_FUNCTION, StepProfiler
from repro.wasm import (
    Binop,
    Const,
    LocalGet,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmInterpreter,
    WasmModule,
    WCall,
    validate_module,
)
from repro.wasm.interpreter import WasmTrap

I32 = ValType.I32


def two_function_module():
    """``outer`` calls ``helper`` repeatedly, so samples split across both."""

    helper = WasmFunction(WasmFuncType((I32,), (I32,)), (), (
        LocalGet(0), Const(I32, 1), Binop(I32, "add"),
        LocalGet(0), Binop(I32, "mul"),
    ), name="helper", exports=("helper",))
    body = [Const(I32, 0)]
    for _ in range(40):
        body += [Const(I32, 7), WCall(0), Binop(I32, "add")]
    outer = WasmFunction(WasmFuncType((), (I32,)), (), tuple(body),
                         name="outer", exports=("outer",))
    module = WasmModule(functions=(helper, outer))
    validate_module(module)
    return module


def run_profiled(engine: str, *, interval=16, max_steps=None):
    module = two_function_module()
    interpreter = WasmInterpreter(engine=engine, max_steps=max_steps)
    instance = interpreter.instantiate(module)
    profiler = StepProfiler(interval=interval, keep_trace=True)
    profiler.install(interpreter)
    trap = None
    try:
        interpreter.invoke(instance, "outer", [])
    except WasmTrap as exc:
        trap = str(exc)
    profiler.uninstall(interpreter)
    return interpreter, profiler, trap


class TestParity:
    def test_all_engines_sample_identically(self):
        # Interval 7 is coprime with the call loop's period, so samples
        # sweep through every phase and land in both functions.
        tree = run_profiled("tree", interval=7)
        flat = run_profiled("flat", interval=7)
        compiled = run_profiled("compiled", interval=7)
        assert tree[0].steps == flat[0].steps == compiled[0].steps > 0
        # The parity contract: same step numbers, same attributed function.
        assert tree[1].trace == flat[1].trace == compiled[1].trace
        assert tree[1].samples == flat[1].samples == compiled[1].samples
        assert set(tree[1].samples) == {"helper", "outer"}

    def test_budget_trap_beats_sample_on_all_engines(self):
        # Budget 32 with interval 16: the trap at step 33 must fire before
        # any sample scheduled past it, identically on every engine.
        tree = run_profiled("tree", interval=16, max_steps=32)
        flat = run_profiled("flat", interval=16, max_steps=32)
        compiled = run_profiled("compiled", interval=16, max_steps=32)
        assert tree[2] == flat[2] == compiled[2] == "step budget exhausted"
        assert tree[0].steps == flat[0].steps == compiled[0].steps == 33
        assert tree[1].trace == flat[1].trace == compiled[1].trace
        assert all(step <= 32 for step, _name in tree[1].trace)

    def test_compiled_engine_batched_sampling_matches_flat(self):
        # The compiled tier batches its boundary checks per basic block; the
        # samples must still land on the identical (step, function) pairs at
        # every phase of the block structure, including interval 1 (a
        # boundary on every single step, so every chunk deoptimizes).
        for interval in (1, 3, 16):
            flat = run_profiled("flat", interval=interval)
            compiled = run_profiled("compiled", interval=interval)
            assert flat[1].trace == compiled[1].trace, f"interval {interval}"
            assert flat[1].samples == compiled[1].samples, f"interval {interval}"


class TestAttachment:
    def test_install_unwraps_facade_and_uninstall_detaches(self):
        interpreter = WasmInterpreter(engine="flat")
        profiler = StepProfiler(interval=4)
        assert profiler.install(interpreter) is profiler
        assert interpreter.engine.profiler is profiler
        assert profiler.next_at == interpreter.engine.steps + 4
        profiler.uninstall(interpreter)
        assert interpreter.engine.profiler is None
        assert profiler.next_at == float("inf")

    def test_uninstall_leaves_foreign_profiler_alone(self):
        interpreter = WasmInterpreter(engine="tree")
        current = StepProfiler().install(interpreter)
        StepProfiler().uninstall(interpreter)
        assert interpreter.engine.profiler is current

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            StepProfiler(interval=0)


class TestReporting:
    def test_hot_functions_and_record_dict(self):
        profiler = StepProfiler(interval=8)
        for step, name in ((8, "hot"), (16, "hot"), (24, "cold"), (32, None)):
            profiler.record(name, step)
        rows = profiler.hot_functions()
        assert rows[0] == ("hot", 2, 0.5)
        assert {name for name, _c, _s in rows} == {"hot", "cold", UNNAMED_FUNCTION}
        record = profiler.record_dict()
        assert record["samples"] == 4 and record["interval"] == 8
        table = profiler.format_table()
        assert "hot" in table and "4 sample(s)" in table
        profiler.reset()
        assert profiler.total_samples == 0 and profiler.hot_functions() == []

    def test_samples_advance_next_at(self):
        profiler = StepProfiler(interval=10)
        profiler.record("f", 10)
        assert profiler.next_at == 20
        profiler.record("f", 25)  # late sample (e.g. after a host call)
        assert profiler.next_at == 35
