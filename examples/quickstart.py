"""Quickstart: build, type-check, run and lower a RichWasm module by hand.

This walks the whole public API surface on a tiny module:

1. construct RichWasm functions from the instruction/type constructors in
   ``repro.core.syntax``;
2. type-check the module (``repro.core.typing.check_module``);
3. execute it on the RichWasm interpreter (two-memory store, GC rule);
4. compile and serve it through the stable facade —
   ``repro.api.compile``/``serve`` with a ``CompileConfig`` (optimization
   level, engine, cache policy) — and read the structured diagnostics;
5. re-run it under observability — a ``repro.obs`` tracer exporting
   schema-versioned JSONL spans, summarized by ``repro.obs.report``;
6. serve the same program from two worker processes —
   ``serve(..., workers=2)`` returns a ``repro.cluster.ClusterService``
   with the same surface;
7. print the lowered module as WAT-style text.

Run with ``python examples/quickstart.py``.
"""

from repro.api import CompileConfig, serve

from repro.core.syntax import (
    Block,
    Br,
    BrIf,
    Drop,
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
    StructSet,
    arrow,
    funtype,
    i32,
    make_module,
)
from repro.core.semantics import Interpreter
from repro.core.syntax import NumV
from repro.core.typing import check_module
from repro.wasm import module_to_wat


def build_module():
    """A module with two exports: `fact` (loops) and `cell` (linear memory)."""

    fact = Function(
        funtype=funtype([i32()], [i32()]),
        locals_sizes=(SizeConst(32),),
        body=(
            NumConst(NumType.I32, 1),
            SetLocal(1),
            Block(arrow([], []), (), (
                Loop(arrow([], []), (
                    GetLocal(0), NumTestop(NumType.I32), BrIf(1),
                    GetLocal(0), GetLocal(1), NumBinop(NumType.I32, IntBinop.MUL), SetLocal(1),
                    GetLocal(0), NumConst(NumType.I32, 1), NumBinop(NumType.I32, IntBinop.SUB), SetLocal(0),
                    Br(0),
                )),
            )),
            GetLocal(1),
            Return(),
        ),
        exports=("fact",),
        name="fact",
    )

    # Allocate a struct in the *linear* (manually managed) memory, strongly
    # update it, read it back, and free it — the checker enforces that the
    # linear reference is used exactly once on every path.
    cell = Function(
        funtype=funtype([i32()], [i32()]),
        locals_sizes=(SizeConst(32),),
        body=(
            GetLocal(0),
            StructMalloc((SizeConst(32),), LIN),
            MemUnpack(arrow([], [i32()]), (), (
                NumConst(NumType.I32, 100), StructSet(0),
                StructGet(0), SetLocal(1),
                StructFree(),
                GetLocal(1),
            )),
            Return(),
        ),
        exports=("cell",),
        name="cell",
    )
    return make_module(functions=[fact, cell], name="quickstart")


def main() -> None:
    module = build_module()

    result = check_module(module)
    print(f"type checked {result.functions_checked} functions,"
          f" {result.instructions_checked} instructions")

    interpreter = Interpreter()
    instance = interpreter.instantiate(module)
    print("richwasm fact(6)  =", interpreter.invoke_export(instance, "fact", [NumV(NumType.I32, 6)]).values)
    print("richwasm cell(7)  =", interpreter.invoke_export(instance, "cell", [NumV(NumType.I32, 7)]).values)
    print("store after run   :", interpreter.store.stats())

    # The stable facade: one config drives optimization level, engine and
    # cache policy; the compiled program is served from an instance pool.
    service = serve(module, CompileConfig(opt_level="O2"))
    print("wasm fact(6)      =", service.call("fact", [6]))
    print("wasm cell(7)      =", service.call("cell", [7]))
    lowered = service.compiled.lowered
    print("lowering stats    :", lowered.stats)

    # The compiled execution tier: same artifact, same answers (the engines
    # are held to bit-identical results/traps/steps), but the flat code is
    # translated once to Python source — 3-5x the flat VM on hot paths.
    compiled_service = serve(module, CompileConfig(opt_level="O2", engine="compiled"))
    print("compiled fact(6)  =", compiled_service.call("fact", [6]))
    assert compiled_service.call("cell", [7]) == service.call("cell", [7])

    print("\n--- compile diagnostics ---")
    print(service.diagnostics.format_report())

    # Observability: install a tracer exporting schema-versioned JSONL, run
    # some traffic, and summarize the trace with the bundled aggregator.
    # The default tracer is a shared no-op, so everything above ran untraced
    # at zero cost; restoring it afterwards is part of the contract.
    print("\n--- traced run (repro.obs) ---")
    import tempfile

    from repro.obs import NOOP_TRACER, JsonlSink, Tracer, set_tracer
    from repro.obs.report import format_summary, summarize
    from repro.obs.export import read_records

    with tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False) as handle:
        trace_path = handle.name
    sink = JsonlSink(trace_path)
    set_tracer(Tracer(sink=sink))
    try:
        traced = serve(module, CompileConfig(opt_level="O2"))
        traced.call("fact", [6])
        traced.run([("fact", (5,)), ("cell", (7,))])
    finally:
        set_tracer(NOOP_TRACER)
        sink.close()
    records = list(read_records(trace_path))  # validates every line
    print(f"exported {len(records)} schema-valid record(s) to {trace_path}")
    print(format_summary(summarize(records)))

    # Scale out: workers=2 builds a ClusterService — the same surface as
    # the in-process service, but every request is executed by one of two
    # worker processes (round-robin requests, sticky sessions by id).
    print("\n--- two-worker cluster (repro.cluster) ---")
    from repro.runtime import Session

    with serve(module, CompileConfig(opt_level="O2", workers=2)) as cluster:
        print("cluster fact(6)   =", cluster.call("fact", [6]))
        report = cluster.run([
            Session(calls=(("fact", (5,)), ("cell", (7,))), session_id=f"user-{i}")
            for i in range(4)
        ])
        print("cluster batch     :", f"{report.ok_count}/{len(report.outcomes)} ok")
        stats = cluster.stats()
        print("cluster workers   :", sorted(stats.workers))

    print("\n--- lowered module (WAT excerpt) ---")
    print("\n".join(module_to_wat(lowered.wasm).splitlines()[:25]))


if __name__ == "__main__":
    main()
