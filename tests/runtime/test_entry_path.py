"""The external-call path, differentially: fresh vs pooled on every engine.

A pooled call looks its export up and enters the engine's ``invoke_index``
directly; a fresh call goes through ``WasmInterpreter.invoke``.  Both must
observe exactly the same thing on the tree, flat and compiled engines:
results (zero, one and two of them, arguments normalized at the entry),
traps, cumulative step counts, per-request step budgets, profiler samples,
a function slot patched between two calls of one session (the second call
runs the new code, and a pool reset puts the old code back), host-import
exports, and the errors for unknown exports and arity mismatches.
"""

from __future__ import annotations

from repro.core.typing.errors import WasmError
from repro.obs import StepProfiler
from repro.runtime import BatchRunner, InstancePool, Request, Session
from repro.wasm import (
    Binop,
    Const,
    GlobalGet,
    GlobalSet,
    LocalGet,
    LocalSet,
    Relop,
    StoreI,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmGlobal,
    WasmImportedFunction,
    WasmInterpreter,
    WasmMemory,
    WasmModule,
    WasmTrap,
    WBlock,
    WBr,
    WBrIf,
    WCall,
    WLoop,
    WUnreachable,
    validate_module,
)

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64
FT = WasmFuncType
ENGINES = ("tree", "flat", "compiled")

# Slots: 0 host import, then bump, read, spin, boom, via_host, pair, narrow.
_READ = 2
_READ_PATCHED = WasmFunction(FT((), (I32,)), (), (GlobalGet(0), Const(I32, 1000), Binop(I32, "add")),
                             name="read_patched")


def _module() -> WasmModule:
    host = WasmImportedFunction(FT((I32,), (I32,)), "env", "add1", exports=("host_add1",))
    bump = WasmFunction(FT((I32,), (I32,)), (), (
        GlobalGet(0), LocalGet(0), Binop(I32, "add"), GlobalSet(0),
        Const(I32, 16), GlobalGet(0), StoreI(I32),
        GlobalGet(0),
    ), name="bump", exports=("bump",))
    read = WasmFunction(FT((), (I32,)), (), (GlobalGet(0),), name="read", exports=("read",))
    # spin(n): count a local down from n to 0, then return n.
    spin = WasmFunction(FT((I32,), (I32,)), (I32,), (
        LocalGet(0), LocalSet(1),
        WBlock(FT((), ()), (
            WLoop(FT((), ()), (
                LocalGet(1), Const(I32, 0), Relop(I32, "eq"), WBrIf(1),
                LocalGet(1), Const(I32, 1), Binop(I32, "sub"), LocalSet(1),
                WBr(0),
            )),
        )),
        LocalGet(0),
    ), name="spin", exports=("spin",))
    boom = WasmFunction(FT((), ()), (), (Const(I32, 1), GlobalSet(0), WUnreachable()),
                        name="boom", exports=("boom",))
    via_host = WasmFunction(FT((I32,), (I32,)), (), (LocalGet(0), WCall(0), Const(I32, 2), Binop(I32, "mul")),
                            name="via_host", exports=("via_host",))
    pair = WasmFunction(FT((I64, F64), (I64, F64)), (), (LocalGet(0), LocalGet(1)),
                        name="pair", exports=("pair",))
    narrow = WasmFunction(FT((F32,), (F32,)), (), (LocalGet(0),), name="narrow", exports=("narrow",))
    module = WasmModule(
        functions=(host, bump, read, spin, boom, via_host, pair, narrow),
        memory=WasmMemory(1, 1),
        globals=(WasmGlobal(I32, True, (Const(I32, 5),)),),
    )
    validate_module(module)
    return module


MODULE = _module()
HOSTS = {("env", "add1"): lambda x: [x + 1]}

# One session: (export, args), or the marker "patch" (swap ``read``'s slot).
SCRIPT = (
    ("read", ()),
    ("bump", (-3,)),  # an i32 -3 is 0xFFFFFFFD: 5 + that wraps to 2
    ("read", ()),
    "patch",
    ("read", ()),  # the patched slot: 2 + 1000
    ("spin", (9,)),
    ("pair", (-1, 3)),  # i64 -1 and an int for f64 arrive normalized
    ("narrow", (0.1,)),  # rounded to f32
    ("host_add1", (41,)),
    ("via_host", (4,)),
    ("nope", ()),
    ("bump", ()),
    ("bump", (1, 2)),
    ("host_add1", ()),
    ("boom", ()),
    ("read", ()),  # still patched; the trap's global write stays
)


def _attempt(call):
    try:
        return ("ok", call())
    except WasmTrap as trap:
        return ("trap", str(trap))
    except WasmError as error:
        return ("error", str(error))


def _transcript(invoke, instance, steps):
    observed = []
    for step in SCRIPT:
        if step == "patch":
            instance.funcs[_READ] = _READ_PATCHED
            continue
        export, args = step
        observed.append((export, _attempt(lambda: invoke(export, args)), steps()))
    return observed


def _fresh(engine):
    interp = WasmInterpreter(engine=engine)
    instance = interp.instantiate(MODULE, HOSTS)
    return _transcript(lambda export, args: interp.invoke(instance, export, args), instance, lambda: interp.steps)


def _pooled(engine):
    pool = InstancePool(MODULE, engine=engine, host_imports=HOSTS, max_size=1)
    entry = pool.acquire()
    observed = _transcript(entry.invoke, entry.instance, lambda: entry.steps - entry.image.steps)
    pool.release(entry)
    # The reset puts the original slot back: the recycled entry runs the
    # old code and starts from the image's state.
    again = pool.acquire()
    assert again is entry
    observed.append(("read", _attempt(lambda: again.invoke("read")), again.steps - again.image.steps))
    pool.release(again)
    return observed


def test_fresh_and_pooled_calls_agree_on_every_engine():
    oracle = _fresh("tree")
    outcomes = dict(oracle=oracle)
    assert [outcome for _, outcome, _ in oracle] == [
        ("ok", [5]), ("ok", [2]), ("ok", [2]), ("ok", [1002]), ("ok", [9]),
        ("ok", [2**64 - 1, 3.0]), ("ok", [0.10000000149011612]), ("ok", [42]), ("ok", [10]),
        ("error", "no export named 'nope'"),
        ("error", "function 'bump' takes 1 argument, called with 0"),
        ("error", "function 'bump' takes 1 argument, called with 2"),
        ("error", "function 'env.add1' takes 1 argument, called with 0"),
        ("trap", "unreachable executed"),
        ("ok", [1001]),
    ]
    for engine in ENGINES:
        outcomes[f"{engine} fresh"] = _fresh(engine)
        pooled = _pooled(engine)
        assert pooled[-1] == ("read", ("ok", [5]), 1), engine
        outcomes[f"{engine} pooled"] = pooled[:-1]
    for name, observed in outcomes.items():
        assert observed == oracle, name


def test_budgets_and_profiler_samples_agree_on_every_engine():
    def pooled(engine):
        pool = InstancePool(MODULE, engine=engine, host_imports=HOSTS)
        runner = BatchRunner(pool)
        budgeted = [
            runner.run_one(Request("spin", (50,), max_steps=40)),
            runner.run_one(Request("spin", (2,), max_steps=40)),
            runner.run_one(Session(calls=(("bump", (1,)), ("spin", (30,)), ("read", ())), max_steps=60)),
            runner.run_one(Session(calls=(("bump", (1,)), ("read", ())), max_steps=60)),
        ]
        summary = [(o.ok, o.values, o.trap, o.trap_kind, o.steps) for o in budgeted]
        with pool.instance() as entry:
            profiler = StepProfiler(interval=7, keep_trace=True).install(entry.engine)
            results = [entry.invoke("spin", (12,)), entry.invoke("via_host", (3,))]
            profiler.uninstall(entry.engine)
        return summary, results, profiler.trace

    def fresh(engine):
        # A fresh instance under the same 40-step budget traps at the same
        # step as the pooled request, and samples at the same steps.
        budgeted = WasmInterpreter(max_steps=40, engine=engine)
        trapped = _attempt(lambda: budgeted.invoke(budgeted.instantiate(MODULE, HOSTS), "spin", (50,)))
        trapped += (budgeted.steps,)
        interp = WasmInterpreter(engine=engine)
        instance = interp.instantiate(MODULE, HOSTS)
        profiler = StepProfiler(interval=7, keep_trace=True).install(interp)
        results = [interp.invoke(instance, "spin", (12,)), interp.invoke(instance, "via_host", (3,))]
        return trapped, results, profiler.trace

    observed = {engine: pooled(engine) for engine in ENGINES}
    summary, results, trace = observed["tree"]
    assert [kind for _, _, _, kind, _ in summary] == ["step_budget", None, "step_budget", None]
    assert [steps for *_, steps in summary] == [41, summary[1][4], 61, summary[3][4]]
    assert results == [[12], [8]]
    assert trace and {name for _, name in trace} <= {"spin", "via_host"}
    for engine in ENGINES:
        assert observed[engine] == observed["tree"], engine
        assert fresh(engine) == (("trap", "step budget exhausted", 41), results, trace), engine
