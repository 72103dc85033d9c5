"""Shared benchmark workloads: lowered Wasm modules plus call scripts.

Used by ``bench_interpreters.py`` (engine head-to-head) and ``run_all.py``
(the cross-PR perf tracker and the tree-vs-flat cross-check smoke gate), so
the numbers and the differential checks always talk about the same programs:

* ``sum_loop`` — a hand-written RichWasm counting loop (branch heavy);
* ``ml_pipeline`` — the §5 ML workload (closures, sums, GC'd refs);
* ``l3_churn`` — the §5 L3 workload (linear allocation churn);
* ``linked_counter`` — the Fig. 9 ML/L3 counter program statically linked
  into one Wasm module (cross-language calls, shared heap).

Each entry builds a ``(WasmModule, calls)`` pair where ``calls`` is a list of
``(export, args)`` invocations replayable on any execution engine or by
:func:`repro.opt.run_engine_cross_check`.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Callable

from repro import api
from repro.core.syntax import (
    Block,
    Br,
    BrIf,
    Function,
    GetLocal,
    IntBinop,
    LIN,
    Loop,
    MemUnpack,
    NumBinop,
    NumConst,
    NumTestop,
    NumType,
    Return,
    SetLocal,
    SizeConst,
    StructFree,
    StructGet,
    StructMalloc,
    arrow,
    funtype,
    i32,
    make_module,
)
from repro.core.typing import check_module
from repro.ffi import Program, counter_program
from repro.l3 import (
    L3Function,
    LBinOp,
    LFree,
    LInt,
    LIntLit,
    LLet,
    LLetPair,
    LNew,
    LSwap,
    LVar,
    compile_l3_module,
    l3_module,
)
from repro.lower import lower_module
from repro.ml import (
    App,
    BinOp,
    Case,
    If,
    Inl,
    Inr,
    IntLit,
    Lam,
    Let,
    MLFunction,
    MLImport,
    TInt,
    TSum,
    TUnit,
    Unit,
    Var,
    compile_ml_module,
    ml_module,
)
from repro.wasm import WasmInterpreter, validate_module

SUM_N = 2000
COUNTER_TICKS = 30


def _sum_loop():
    body = (
        NumConst(NumType.I32, 0), SetLocal(1),
        Block(arrow([], []), (), (
            Loop(arrow([], []), (
                GetLocal(0), NumTestop(NumType.I32), BrIf(1),
                GetLocal(1), GetLocal(0), NumBinop(NumType.I32, IntBinop.ADD), SetLocal(1),
                GetLocal(0), NumConst(NumType.I32, 1), NumBinop(NumType.I32, IntBinop.SUB), SetLocal(0),
                Br(0),
            )),
        )),
        GetLocal(1), Return(),
    )
    module = make_module(functions=[
        Function(funtype([i32()], [i32()]), (SizeConst(32),), body, ("sum",))
    ])
    check_module(module)
    wasm = lower_module(module).wasm
    validate_module(wasm)
    return wasm, [("sum", (SUM_N,))]


def ml_pipeline_module():
    """The §5 ML workload's surface module (shared with the compile bench)."""

    sum_ty = TSum(TUnit(), TInt())
    return ml_module("work", functions=[
        MLFunction("pipeline", "x", TInt(), TInt(),
                   Let("double", Lam("y", TInt(), BinOp("*", Var("y"), IntLit(2))),
                       Case(If(BinOp("<", Var("x"), IntLit(0)), Inl(Unit(), sum_ty), Inr(Var("x"), sum_ty)),
                            "n", IntLit(0),
                            "p", App(Var("double"), Var("p"))))),
    ])


def _ml_pipeline():
    module = ml_pipeline_module()
    wasm = api.lower(compile_ml_module(module), {"cache": "none"}).wasm
    validate_module(wasm)
    calls = [("pipeline", (value,)) for value in (21, -3, 0, 100, 7, -1, 55, 13)]
    return wasm, calls


def _l3_churn():
    module = l3_module("work", functions=[
        L3Function("churn", "x", LInt(), LInt(),
                   LLet("o", LNew(LVar("x")),
                        LLetPair("old", "o2", LSwap(LVar("o"), LIntLit(1)),
                                 LBinOp("+", LVar("old"), LFree(LVar("o2")))))),
    ])
    wasm = api.lower(compile_l3_module(module), {"cache": "none"}).wasm
    validate_module(wasm)
    calls = [("churn", (value,)) for value in (9, 1, 42, 0, 17, 3, 8, 26)]
    return wasm, calls


def _linked_counter():
    wasm = api.lower(Program(counter_program().modules()), {"cache": "none"}).wasm
    validate_module(wasm)
    calls = [(export, ()) for export in sorted(wasm.exported_functions()) if export.endswith("._init")]
    calls.append(("client.client_init", (0,)))
    calls.extend(("client.client_tick", ()) for _ in range(COUNTER_TICKS))
    calls.append(("client.client_total", ()))
    return wasm, calls


WORKLOADS: dict[str, Callable[[], tuple]] = {
    "sum_loop": _sum_loop,
    "ml_pipeline": _ml_pipeline,
    "l3_churn": _l3_churn,
    "linked_counter": _linked_counter,
}


def run_calls(interpreter: WasmInterpreter, instance, calls) -> list:
    """Replay a call script, returning the per-call results."""

    return [interpreter.invoke(instance, export, list(args)) for export, args in calls]


def timed_rate(fn: Callable[[], object], *, min_time: float = 0.15, max_rounds: int = 10000) -> float:
    """Executions/second of ``fn`` over at least ``min_time`` seconds."""

    fn()  # warm-up (fills caches, triggers lazy imports)
    rounds = 0
    start = time.perf_counter()
    while True:
        fn()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_time or rounds >= max_rounds:
            return rounds / elapsed


def measure_runtime_throughput(*, min_time: float = 0.15) -> dict:
    """Serving-layer throughput: compile-once/run-many vs the naive path.

    Three series over the Fig. 9 counter program (the cross-language
    workload):

    * ``uncached_instances_per_sec`` — the naive path: every round pays
      link + type-directed lowering + validation + instantiation + ``_init``
      from the source modules;
    * ``cached_instances_per_sec`` — instantiation from a
      :class:`repro.runtime.CompiledProgram` (pipeline memoized by the
      module cache, flat code decoded once at module level);
    * ``pooled_resets_per_sec`` — recycling one pooled instance
      (acquire → reset → release), the run-many hot path;

    plus ``requests_per_sec`` from a :class:`repro.runtime.BatchRunner`
    serving stateful init/tick*/total sessions off the pool.
    """

    from repro.runtime import BatchRunner, ModuleCache, Session, run_initializers_setup

    modules = counter_program().modules()

    uncached = timed_rate(
        lambda: Program(modules).instantiate_wasm(), min_time=min_time, max_rounds=200
    )

    compiled = api.compile(modules, cache=ModuleCache())

    def cached_instantiate():
        interpreter, instance = compiled.instantiate()
        run_initializers_setup(interpreter, instance)

    cached = timed_rate(cached_instantiate, min_time=min_time)

    pool = compiled.instance_pool(setup=run_initializers_setup, max_size=2)
    pooled = timed_rate(lambda: pool.release(pool.acquire()), min_time=min_time)

    runner = BatchRunner(pool)
    session = Session(
        calls=(("client.client_init", (0,)),)
        + tuple(("client.client_tick", ()) for _ in range(COUNTER_TICKS))
        + (("client.client_total", ()),)
    )
    report = runner.run([session] * 30)

    return {
        "workload": "linked_counter",
        "uncached_instances_per_sec": round(uncached, 1),
        "cached_instances_per_sec": round(cached, 1),
        "cached_speedup": round(cached / uncached, 1) if uncached else None,
        "pooled_resets_per_sec": round(pooled, 1),
        "requests": report.requests,
        "requests_ok": report.ok_count,
        "requests_trapped": report.trap_count,
        "requests_per_sec": round(report.requests_per_sec, 1) if report.requests_per_sec else None,
        "steps_per_request": report.total_steps // report.requests if report.requests else 0,
    }


def synthetic_body(blocks: int, seed: int = 1) -> tuple:
    """``blocks`` repeated allocate/read/free regions computing ``seed + 1``.

    ``seed`` is baked into the allocated struct's payload, so two bodies with
    different seeds are structurally distinct — which is what makes the
    ``functions=`` axis of :func:`synthetic_module` a real incremental
    workload instead of 1000 copies of one function sharing every
    per-function compile unit.
    """

    body = []
    for _ in range(blocks):
        body.extend([
            NumConst(NumType.I32, seed),
            StructMalloc((SizeConst(32),), LIN),
            MemUnpack(arrow([], [i32()]), (), (
                StructGet(0),
                SetLocal(0),
                StructFree(),
                GetLocal(0),
            )),
            NumConst(NumType.I32, 1),
            NumBinop(NumType.I32, IntBinop.ADD),
            SetLocal(0),
        ])
    body.append(GetLocal(0))
    body.append(Return())
    return tuple(body)


def synthetic_module(blocks: int, functions: int = 1):
    """``functions`` functions of ``blocks`` allocate/read/free regions each.

    The typechecker scaling workload (shared with ``bench_typechecker.py``):
    every region allocates a linear struct, opens its existential location,
    reads and frees it — exercising the checker's binder shifting, size
    entailment and linearity tracking.  Function ``i`` embeds seed ``i + 1``
    (so every body is structurally distinct) and exports ``main`` (``i = 0``)
    or ``f{i}``; the many-small-functions shape is the incremental-compile
    workload (:func:`measure_incremental_compile`).
    """

    return make_module(functions=[
        Function(
            funtype([], [i32()]),
            (SizeConst(32),),
            synthetic_body(blocks, seed=index + 1),
            ("main",) if index == 0 else (f"f{index}",),
        )
        for index in range(functions)
    ])


def edit_one_function(module, index: int, *, blocks: int = 1):
    """``module`` with function ``index``'s body rebuilt under a fresh seed.

    Every *other* ``Function`` object is reused as-is, so its memoized
    structural digest makes the edited module's per-function unit keys an
    O(1) lookup — the scenario the incremental pipeline is built for.
    """

    import dataclasses

    functions = list(module.functions)
    functions[index] = dataclasses.replace(
        functions[index], body=synthetic_body(blocks, seed=len(functions) + index + 1)
    )
    return make_module(functions=functions, name=module.name)


def measure_incremental_compile(*, functions: int = 1000, blocks: int = 1) -> dict:
    """Cold vs one-function-edit compile walls through the unit cache.

    Compiles a ``functions``-function synthetic module cold on a fresh
    :class:`repro.runtime.ModuleCache` (compiled engine, ``O1``), then edits
    exactly one function and recompiles on the *same* cache: every
    module-level stage misses (the content changed) but all unchanged
    functions reuse their typecheck/lower/optimize/validate/decode/translate
    units.  Returns both walls, the speedup, and the per-stage unit deltas
    of the incremental recompile.
    """

    from repro.api import CompileConfig
    from repro.runtime import ModuleCache

    config = CompileConfig(opt_level="O1", engine="compiled", cache="private")
    base = synthetic_module(blocks, functions=functions)
    cache = ModuleCache()

    # Collect before each timed compile, so the garbage of what ran before
    # is not collected (and timed) inside the short edit window.
    gc.collect()
    start = time.perf_counter()
    api.compile(base, config, cache=cache)
    cold_s = time.perf_counter() - start

    edited = edit_one_function(base, functions // 2, blocks=blocks)
    units_before = cache.units.snapshot()
    gc.collect()
    start = time.perf_counter()
    api.compile(edited, config, cache=cache)
    incremental_s = time.perf_counter() - start

    return {
        "functions": functions,
        "blocks": blocks,
        "cold_wall_s": round(cold_s, 4),
        "incremental_wall_s": round(incremental_s, 4),
        "speedup": round(cold_s / incremental_s, 1) if incremental_s else None,
        "units": cache.units.delta(units_before),
    }


def _mixed_ml_function(index: int, k: int) -> MLFunction:
    # p{i} x = let y = c{i} (x + k) in if y < 1000 then y * 2 else y - 1000
    return MLFunction(f"p{index}", "x", TInt(), TInt(), Let(
        "y", App(Var(f"c{index}"), BinOp("+", Var("x"), IntLit(k))),
        If(BinOp("<", Var("y"), IntLit(1000)),
           BinOp("*", Var("y"), IntLit(2)),
           BinOp("-", Var("y"), IntLit(1000))),
    ))


def mixed_sources(functions: int = 100) -> dict:
    """An ML module and an L3 module of ``functions`` functions each.

    ML function ``p{i}`` calls L3 function ``c{i}`` (``x * a + i``, through
    a linear cell swapped once) via an import, so ``repro.api.compile``
    runs both frontends and links the two languages into one program.
    Every function is structurally distinct.
    """

    lib = l3_module("lib", functions=[
        L3Function(f"c{i}", "x", LInt(), LInt(), LLet("o", LNew(LVar("x")), LLetPair(
            "old", "o2", LSwap(LVar("o"), LIntLit(i)),
            LBinOp("+", LBinOp("*", LVar("old"), LIntLit(i % 7 + 1)), LFree(LVar("o2"))),
        )))
        for i in range(functions)
    ])
    app = ml_module(
        "app",
        imports=[MLImport("lib", f"c{i}", TInt(), TInt()) for i in range(functions)],
        functions=[_mixed_ml_function(i, i % 50) for i in range(functions)],
    )
    return {"app": app, "lib": lib}


def edit_one_ml_function(sources: dict, index: int, k: int) -> dict:
    """``sources`` with ML function ``p{index}`` rebuilt with constant ``k``;
    every other source object is reused as is, as an editor would."""

    import dataclasses

    app = sources["app"]
    functions = list(app.functions)
    functions[index] = _mixed_ml_function(index, k)
    return {**sources, "app": dataclasses.replace(app, functions=tuple(functions))}


def measure_source_edit_compile(*, functions: int = 100, edits: int = 3) -> dict:
    """Cold vs one-ML-function-edit walls of ``repro.api.compile`` on
    :func:`mixed_sources` (``O2``, compiled engine).

    The edits reuse the cold compile's :class:`repro.runtime.ModuleCache`,
    so every unchanged function comes back from its frontend unit onwards.
    Returns the cold wall, the median edit wall, their ratio, the last
    edit's per-stage unit reuse, and whether that edit's program equals a
    cold compile of the edited sources (program key and Wasm).
    """

    from statistics import median

    from repro.api import CompileConfig
    from repro.runtime import ModuleCache
    from repro.runtime.cache import content_key

    config = CompileConfig(opt_level="O2", engine="compiled", cache="private")
    sources = mixed_sources(functions)
    cache = ModuleCache()
    start = time.perf_counter()
    api.compile(sources, config, cache=cache)
    cold_s = time.perf_counter() - start

    walls = []
    for edit in range(edits):
        sources = edit_one_ml_function(sources, (functions // 3 * (edit + 1)) % functions, 100 + edit)
        start = time.perf_counter()
        program = api.compile(sources, config, cache=cache)
        walls.append(time.perf_counter() - start)
    edit_s = median(walls)

    fresh = api.compile(sources, config, cache=ModuleCache())
    return {
        "functions": functions,
        "cold_wall_s": round(cold_s, 4),
        "edit_wall_s": round(edit_s, 4),
        "speedup": round(cold_s / edit_s, 1) if edit_s else None,
        "units": program.diagnostics.units,
        "identical": (
            program.key == fresh.key
            and program.wasm == fresh.wasm
            and content_key("wasm", program.wasm) == content_key("wasm", fresh.wasm)
        ),
    }


def best_of(fn: Callable[[], object], repeat: int) -> float:
    """Best wall time of ``repeat`` calls to ``fn`` (one warm-up first)."""

    fn()
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_compile_stages(*, sizes=(10, 50, 200), repeat: int = 3) -> dict:
    """Per-stage compile timings for the BENCH_results.json trajectory.

    Records, per synthetic module size: core typecheck, lower (typecheck-
    driven lowering) and flat-code decode wall times; plus the ML frontend's
    surface typecheck on the shared ``ml_pipeline`` module, and the
    interned-vs-structural checker speedup on the largest size (the PR 5
    tentpole metric — asserted as a CI floor in ``bench_typechecker.py``).
    """

    from repro.core.syntax import interning_disabled
    from repro.ml import check_module as check_ml_module
    from repro.wasm.decode import decode_module

    results: dict[str, object] = {}

    ml = ml_pipeline_module()
    results["frontend_typecheck"] = {
        "module": "ml_pipeline",
        "wall_s": round(best_of(lambda: check_ml_module(ml), repeat), 6),
    }

    for blocks in sizes:
        module = synthetic_module(blocks)
        instructions = module.functions[0].instruction_count()
        typecheck_s = best_of(lambda: check_module(module), repeat)
        lower_s = best_of(lambda: lower_module(module), repeat)

        # decode_module memoizes per WasmModule object, so decode a freshly
        # lowered module each round to time real work.
        def decode_fresh() -> float:
            wasm = lower_module(module).wasm
            start = time.perf_counter()
            decode_module(wasm)
            return time.perf_counter() - start

        decode_fresh()  # warm-up
        decode_s = min(decode_fresh() for _ in range(repeat))

        results[f"synthetic_{blocks}"] = {
            "instructions": instructions,
            "typecheck_wall_s": round(typecheck_s, 6),
            "typecheck_instrs_per_sec": round(instructions / typecheck_s) if typecheck_s else None,
            "lower_wall_s": round(lower_s, 6),
            "decode_wall_s": round(decode_s, 6),
        }

    largest = max(sizes)
    interned_module = synthetic_module(largest)
    interned_s = best_of(lambda: check_module(interned_module), repeat)
    with interning_disabled():
        baseline_module = synthetic_module(largest)
        baseline_s = best_of(lambda: check_module(baseline_module), repeat)
    results["checker_speedup_vs_structural"] = {
        "blocks": largest,
        "interned_wall_s": round(interned_s, 6),
        "structural_wall_s": round(baseline_s, 6),
        "speedup": round(baseline_s / interned_s, 2) if interned_s else None,
    }
    return results


def measure_engine(wasm, calls, engine: str, *, min_time: float = 0.3, max_rounds: int = 300):
    """Time repeated replays of ``calls`` on one engine.

    Returns ``(steps_per_call_script, best_seconds_per_call_script)`` using
    best-of timing over enough rounds to fill ``min_time`` seconds, so the
    steps/sec ratio between engines is stable under scheduler noise.
    """

    interpreter = WasmInterpreter(engine=engine)
    instance = interpreter.instantiate(wasm)
    run_calls(interpreter, instance, calls)  # warm-up
    before = interpreter.steps
    run_calls(interpreter, instance, calls)
    steps = interpreter.steps - before

    best = float("inf")
    elapsed_total = 0.0
    rounds = 0
    while elapsed_total < min_time and rounds < max_rounds:
        start = time.perf_counter()
        run_calls(interpreter, instance, calls)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        elapsed_total += elapsed
        rounds += 1
    return steps, best


# ---------------------------------------------------------------------------
# PR 9: cluster serving + disk-cache warm starts
# ---------------------------------------------------------------------------


def counter_sessions(count: int, *, ticks: int = COUNTER_TICKS) -> list:
    """``count`` independent init/tick*/total sessions, ids spread so the
    cluster's sticky router distributes them across workers."""

    from repro.runtime import Session

    calls = (
        (("client.client_init", (0,)),)
        + tuple(("client.client_tick", ()) for _ in range(ticks))
        + (("client.client_total", ()),)
    )
    return [Session(calls=calls, session_id=f"bench-{i}") for i in range(count)]


def measure_cluster_throughput(*, workers: int = 4, sessions: int = 60,
                               rounds: int = 5) -> dict:
    """Aggregate cluster rps vs the single-process serving baseline.

    Serves the same batch of sticky counter sessions through an in-process
    :class:`repro.api.Service` and through ``api.serve(..., workers=N)``
    (the :class:`repro.cluster.ClusterService` fan-out).  After one untimed
    batch on each side, every round times one batch on each, the first of
    the two alternating from round to round, so a host whose speed drifts
    slows both sides of a round alike; ``speedup`` is the median of the
    per-round cluster/single ratios (all of them are in ``speedups``).
    Records ``cpu_count`` alongside: the dispatcher ships a batch to each
    worker in a few chunks, so the parent's wire cost is small and the
    speedup tracks the cores the workers actually get — on a single-CPU
    host N workers time-slice one core and the honest figure is about 1x,
    which is why the scale-out gate in ``bench_cluster.py`` sizes its worker
    count and floor to ``cpu_count``.
    """

    import statistics


    scenario = counter_program()
    rps: dict[str, list[float]] = {"single": [], "cluster": []}
    ok = {"single": 0, "cluster": 0}
    with api.serve(scenario, {"cache": "private"}) as single, \
            api.serve(scenario, {"cache": "private", "workers": workers}) as cluster:
        sides = (("single", single), ("cluster", cluster))
        for _side, service in sides:
            service.run(counter_sessions(sessions))
        for turn in range(rounds):
            for side, service in sides[::-1] if turn % 2 else sides:
                report = service.run(counter_sessions(sessions))
                ok[side] = report.ok_count
                rps[side].append(report.requests_per_sec or 0.0)
        cluster_workers = cluster.workers

    ratios = [
        cluster_rps / single_rps
        for single_rps, cluster_rps in zip(rps["single"], rps["cluster"])
        if single_rps
    ]
    return {
        "workload": "linked_counter",
        "workers": cluster_workers,
        "sessions": sessions,
        "rounds": rounds,
        "cpu_count": os.cpu_count(),
        "single_ok": ok["single"],
        "cluster_ok": ok["cluster"],
        "single_requests_per_sec": round(statistics.median(rps["single"]), 1),
        "cluster_requests_per_sec": round(statistics.median(rps["cluster"]), 1),
        "speedup": round(statistics.median(ratios), 2) if ratios else None,
        "speedups": [round(ratio, 2) for ratio in ratios],
    }


_WARM_START_CHILD = """
import json, sys, time
sys.path[:0] = {paths!r}
from workload_builders import synthetic_module
from repro import api
from repro.cluster.diskcache import shared_disk_module_cache
module = synthetic_module(1, functions={functions})
start = time.perf_counter()
compiled = api.compile(module, {{"opt_level": "O2", "cache_dir": {cache_dir!r}}})
wall = time.perf_counter() - start
disk = {{stage: [stats.hits, stats.misses]
        for stage, stats in shared_disk_module_cache({cache_dir!r}).disk.stats.items()}}
print(json.dumps({{"wall": wall, "program": compiled.diagnostics.cache["program"], "disk": disk}}))
"""


def _warm_start_child(cache_dir: str, functions: int) -> dict:
    """One cold-process compile against ``cache_dir``, timed in the child."""

    import json
    import os
    import subprocess
    import sys

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(os.path.dirname(bench_dir), "src")
    script = _WARM_START_CHILD.format(
        paths=[src_dir, bench_dir], functions=functions, cache_dir=cache_dir
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_disk_warm_start(*, functions: int = 600, warm_repeats: int = 2) -> dict:
    """Cold-compile vs disk-warm-start walls, each in a fresh process.

    Every sample is a genuinely cold *process* (``subprocess`` — no
    inherited memo, no forked caches): the first child compiles a
    ``functions``-function module into an empty cache directory (full
    pipeline + disk write), the next children start cold against the now
    warm directory and load the program from disk (fingerprint key lookup +
    unpickle + decode adoption).  The warm wall is the best of
    ``warm_repeats`` children; both walls exclude interpreter startup (the
    child times only ``api.compile``).  ``disk_warm`` is the last warm
    child's ``{disk stage: [hits, misses]}``; ``disk_bytes`` is the cache
    directory's entry bytes per stage (``program``, ``link``, ``key``) after
    the cold child wrote it.
    """

    import shutil
    import tempfile

    from repro.cluster import DiskCache

    cache_dir = tempfile.mkdtemp(prefix="repro-warmstart-")
    try:
        cold = _warm_start_child(cache_dir, functions)
        disk_bytes = dict.fromkeys(("key", "link", "program"), 0)
        for entry in DiskCache(cache_dir).entries():
            disk_bytes[entry.stage] = disk_bytes.get(entry.stage, 0) + entry.size
        warm_walls = []
        warm_diag = warm_disk = None
        for _ in range(max(1, warm_repeats)):
            record = _warm_start_child(cache_dir, functions)
            warm_walls.append(record["wall"])
            warm_diag, warm_disk = record["program"], record["disk"]
        warm_wall = min(warm_walls)
        return {
            "functions": functions,
            "cold_wall_s": round(cold["wall"], 4),
            "warm_wall_s": round(warm_wall, 4),
            "speedup": round(cold["wall"] / warm_wall, 1) if warm_wall else None,
            "program_cold": cold["program"],
            "program_warm": warm_diag,
            "disk_warm": warm_disk,
            "disk_bytes": dict(sorted(disk_bytes.items())),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
