"""First-call compilation in the compiled tier (:mod:`repro.wasm.pygen`).

A translation emits every function's source up front, but a unit's
``compile()`` + ``exec`` wait for the function's first call: until then the
slot holds the unit's first-call stub.  These tests force ``compile()`` on
every unit, so an emitter error cannot hide in a function no call reaches,
and pin how the stub meets instances, the pool, deopt and patched slots.
"""

import pytest

from repro import api
from repro.api import CompileConfig
from repro.ffi import counter_program
from repro.obs import StepProfiler
from repro.runtime import InstancePool
from repro.wasm import (
    Binop,
    Const,
    GlobalGet,
    GlobalSet,
    LocalGet,
    LocalSet,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmGlobal,
    WasmInterpreter,
    WasmModule,
    WasmTrap,
    WBlock,
    WBrIf,
    WCall,
    WLoop,
    translate_module,
    validate_module,
)
from repro.wasm.pygen import _FirstCallStub
from workload_builders import mixed_sources, synthetic_module

I32 = ValType.I32
FT = WasmFuncType

# name: (builder of fresh sources, opt level)
_PROGRAMS = {
    **{
        f"synthetic_module({blocks})-{level}": (lambda blocks=blocks: synthetic_module(blocks, functions=4), level)
        for blocks in (1, 3)
        for level in ("O0", "O1", "O2")
    },
    **{f"mixed_sources-{level}": (lambda: mixed_sources(6), level) for level in ("O0", "O2")},
    **{f"counter_program-{level}": (counter_program, level) for level in ("O0", "O2")},
}

_ARGUMENTS = (0, 1, 7, 999, 0x7FFFFFFF, 0xFFFFFFFF)


def _compile(name):
    builder, level = _PROGRAMS[name]
    # Off the cache, each program gets its own module object and so its own
    # translation: the two twins share no stub.
    return api.compile(builder(), CompileConfig(opt_level=level, engine="compiled", cache="none")).wasm


def _calls(wasm):
    """Every export, called with each argument (in turn, on one instance)."""

    calls = []
    for function in wasm.functions:
        arity = len(function.functype.params)
        for export in getattr(function, "exports", ()):
            if arity == 0:
                calls.append((export, []))
            else:
                calls.extend((export, [value] * arity) for value in _ARGUMENTS)
    return calls


def _observe(wasm, calls):
    interp = WasmInterpreter(engine="compiled")
    instance = interp.instantiate(wasm)
    observed = []
    for export, args in calls:
        try:
            outcome = ("ok", interp.invoke(instance, export, args))
        except WasmTrap as trap:
            outcome = ("trap", str(trap))
        observed.append((export, args, outcome, interp.steps))
    memory = bytes(instance.memory.data) if instance.memory is not None else None
    return observed, memory, list(instance.globals), instance


def _stubs(translation):
    return [fn for fn, mode in zip(translation.functions, translation.modes) if mode == "register"]


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_every_unit_compiles_and_runs_like_the_lazy_twin(name):
    eager, lazy = _compile(name), _compile(name)
    eager_translation, lazy_translation = translate_module(eager), translate_module(lazy)
    assert eager_translation is not lazy_translation
    stubs = _stubs(eager_translation)
    assert stubs and all(type(stub) is _FirstCallStub and stub.generated is None for stub in stubs)
    for stub in stubs:
        generated = stub.compile()
        assert callable(generated) and stub.generated is generated
    # Compiling changed none of the emitted source, which is the whole
    # source of both twins.
    assert eager_translation.source == lazy_translation.source == "\n\n".join(stub.chunk for stub in stubs)
    assert not any(stub.generated for stub in _stubs(lazy_translation))

    calls = _calls(lazy)
    assert calls
    eager_observed = _observe(eager, calls)
    lazy_observed = _observe(lazy, calls)
    assert eager_observed[:3] == lazy_observed[:3]
    # The lazy twin compiled exactly what it ran, and its instance now calls
    # the generated function of every slot that ran.
    targets = lazy_observed[3].compiled_py.targets
    for index, stub in enumerate(lazy_translation.functions):
        if type(stub) is _FirstCallStub and stub.generated is not None:
            assert targets[index] is stub.generated


def _counter_global():
    return WasmGlobal(I32, True, (Const(I32, 0),))


def _two_exports_module():
    """``f`` and ``g`` share a helper; ``g`` is patched in some tests."""

    helper = WasmFunction(FT((I32,), (I32,)), (), (
        LocalGet(0), Const(I32, 3), Binop(I32, "mul"),
        GlobalGet(0), Const(I32, 1), Binop(I32, "add"), GlobalSet(0),
    ), name="helper")
    f = WasmFunction(FT((I32,), (I32,)), (), (LocalGet(0), WCall(0), Const(I32, 1), Binop(I32, "add")),
                     name="f", exports=("f",))
    g = WasmFunction(FT((I32,), (I32,)), (), (LocalGet(0), WCall(0), Const(I32, 2), Binop(I32, "add")),
                     name="g", exports=("g",))
    module = WasmModule(functions=(helper, f, g), globals=(_counter_global(),))
    validate_module(module)
    return module


def _g_replacement():
    return WasmFunction(FT((I32,), (I32,)), (), (LocalGet(0), Const(I32, 100), Binop(I32, "add")),
                        name="g", exports=("g",))


class TestStubInterplay:
    def test_first_call_binds_the_caller_and_new_instances(self):
        module = _two_exports_module()
        interp = WasmInterpreter(engine="compiled")
        first = interp.instantiate(module)
        translation = translate_module(module)
        assert all(type(target) is _FirstCallStub for target in first.compiled_py.targets)
        assert interp.invoke(first, "f", [5]) == [16]
        helper, f, g = translation.functions
        assert first.compiled_py.targets[0] is helper.generated is not None
        assert first.compiled_py.targets[1] is f.generated is not None
        assert first.compiled_py.targets[2] is g and g.generated is None
        second = interp.instantiate(module)
        assert second.compiled_py.targets == [helper.generated, f.generated, g]
        assert interp.invoke(second, "g", [5]) == [17]
        # The second instance's first call of ``g`` files it for both.
        assert second.compiled_py.targets[2] is g.generated is not None
        assert first.compiled_py.targets[2] is g
        assert interp.invoke(first, "g", [1]) == [5]
        assert first.compiled_py.targets[2] is g.generated

    def test_pool_reset_does_not_bring_the_stub_back(self):
        module = _two_exports_module()
        pool = InstancePool(module, engine="compiled", max_size=1)
        entry = pool.acquire()
        assert entry.invoke("f", [1]) == [4] and entry.invoke("g", [1]) == [5]
        generated = list(entry.instance.compiled_py.targets)
        assert not any(type(target) is _FirstCallStub for target in generated)
        pool.release(entry)
        recycled = pool.acquire()
        assert recycled is entry and recycled.instance.compiled_py.targets == generated
        # A patched slot retranslates the instance; the reset puts the
        # original code back, and the next invoke binds every slot compiled
        # so far straight to its generated function, ``g`` included though
        # nothing has called it since.
        recycled.instance.funcs[2] = _g_replacement()
        assert recycled.invoke("g", [1]) == [101]
        assert recycled.invoke("f", [1]) == [4]
        pool.release(recycled)
        again = pool.acquire()
        assert again.invoke("f", [2]) == [7]
        assert again.instance.compiled_py.targets == generated
        assert again.invoke("g", [2]) == [8]
        pool.release(again)


def _leaf_then_loop_module():
    """``main(n)`` calls ``leaf`` in a loop: a leaf chunk of eleven steps
    and a loop body of ten, so budgets and samples fall at every phase of
    both functions' first entries."""

    leaf = WasmFunction(FT((I32, I32), (I32,)), (), (
        LocalGet(0), LocalGet(1), Binop(I32, "add"), Const(I32, 7), Binop(I32, "mul"),
        GlobalGet(0), Const(I32, 1), Binop(I32, "add"), GlobalSet(0),
        Const(I32, 0x7FFFFFFF), Binop(I32, "and"),
    ), name="leaf")
    main = WasmFunction(FT((I32,), (I32,)), (I32,), (
        WBlock(FT((), ()), (
            WLoop(FT((), ()), (
                LocalGet(1), LocalGet(0), WCall(0), LocalSet(1),
                LocalGet(0), Const(I32, 1), Binop(I32, "sub"), LocalSet(0),
                LocalGet(0), WBrIf(0),
            )),
        )),
        LocalGet(1),
    ), name="main", exports=("main",))
    module = WasmModule(functions=(leaf, main), globals=(_counter_global(),))
    validate_module(module)
    return module


def _observe_first_entry(engine, *, budget=None, interval=None):
    # A fresh module each run: a fresh translation, so on the compiled
    # engine every function's first entry happens inside this very run.
    module = _leaf_then_loop_module()
    interp = WasmInterpreter(max_steps=budget, engine=engine)
    instance = interp.instantiate(module)
    if engine == "compiled":
        assert all(type(target) is _FirstCallStub for target in instance.compiled_py.targets)
    profiler = StepProfiler(interval=interval, keep_trace=True).install(interp) if interval else None
    try:
        outcome = ("ok", interp.invoke(instance, "main", [3]))
    except WasmTrap as trap:
        outcome = ("trap", str(trap))
    return outcome, interp.steps, list(instance.globals), profiler.trace if profiler else None


def test_first_entry_under_a_due_boundary_matches_flat():
    total = _observe_first_entry("flat")[1]
    runs = [{"budget": budget} for budget in range(1, total + 2)]
    runs += [{"interval": interval} for interval in range(1, total + 1)]
    for run in runs:
        assert _observe_first_entry("compiled", **run) == _observe_first_entry("flat", **run), run
