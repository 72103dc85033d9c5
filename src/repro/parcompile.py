"""Parallel per-function compilation: fan compile units across a worker pool.

A cold compile of a large module runs every per-function unit (lower →
optimize → validate → decode → translate; the stages
:class:`repro.compilepipe.FunctionUnitCache` keys per function) serially on
one core.  This module fans those units across N forked workers and feeds
the results back — *without* owning the pipeline:

**The parallel layer only pre-seeds the unit cache.**  Workers compute
units for their assigned function indices and ship them to the parent,
which files them via :meth:`FunctionUnitCache.seed`.  The unchanged serial
pipeline then recomposes the module and finds every unit already present —
so the parallel-compiled :class:`~repro.wasm.ast.WasmModule` is dataclass-
and content-key-identical to a serial compile *by construction*, and any
parallel failure (a dead worker, an unpicklable unit, fork unavailable)
simply means fewer seeds: the serial recompose recomputes the gaps.  There
is no parallel-only code path that could produce a different module.

Two phases hang off :meth:`repro.runtime.ModuleCache.lower`'s miss path:

* **Phase A** (:func:`precompute_function_units`), before ``lower_module``:
  workers lower each assigned RichWasm function, run the function-pass
  segments on it to a local fixpoint (caching every (segment, version)
  round, including the zero-rewrite confirms the parent's global fixpoint
  will look up), validate it against a *signature skeleton*
  (:meth:`repro.lower.compiler.ModuleLowering.signature_skeleton` — same
  ``wasm_signature_digest`` as the final module, so the unit keys match),
  and flat-decode it.  ``ModulePass``es (dead-function stubbing) stay
  serial in the parent: they need the whole module.
* **Phase B** (:func:`precompute_translate_units`), after lower/validate
  when the engine is ``compiled``: workers emit each function's Python
  source chunk and ``compile()`` it (the dominant cost of translation),
  shipping ``(chunk, mode, pool_values, marshal(code))``; the parent
  rebuilds the callable with an ``exec`` (nearly free).

Workers read units through a tiered view (:class:`_TieredUnits`): their own
local memo → the fork-inherited parent cache → the shared
:class:`repro.cluster.DiskCache` (under ``unit.<stage>`` stage names, so
concurrent and future compiles warm-read each other's function-granular
work) → compute.  Units a worker *compiled* are seeded ``fresh=True`` so
the parent's first lookup counts a miss, units it warm-read from disk seed
``fresh=False`` — reproducing exactly the ``Diagnostics.units``
reused/compiled counts a serial compile records, with no double counting
(satellite: stats exactness).  Worker-side metrics snapshots (taken after
:func:`repro.cluster.worker.reset_inherited_telemetry`) fold through
:func:`repro.obs.merge_snapshots` into the :class:`ParcompileReport`.

Scheduling is work-stealing-style: tasks are batched largest-first by
instruction count onto one shared queue; fast workers steal the tail, so a
straggler function cannot serialize the pool.  Worker death is detected
with the PR 9 dispatcher idiom (``exitcode`` checks inside the drain
loop's ``Empty`` timeouts), counted on the ``compile.worker_died``
counter, and loses only the dead worker's in-flight batch — which the
serial recompose then computes.  ``CRASH_AFTER_BATCHES`` is the
deterministic fault-injection hook (fork-inherited) the tests use.
"""

from __future__ import annotations

import math
import marshal
import multiprocessing as mp
import os
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Optional

from .compilepipe import FunctionUnitCache
from .obs.metrics import default_registry, merge_snapshots

__all__ = [
    "ParcompileReport",
    "precompute_function_units",
    "precompute_translate_units",
    "UNIT_STAGE_PREFIX",
    "CRASH_AFTER_BATCHES",
]

#: DiskCache stage-name prefix for function-granular units (e.g.
#: ``unit.translate``) — a namespace apart from the module-level stages
#: :class:`repro.runtime.ModuleCache` writes, so the determinism tests can
#: compare both groups independently.
UNIT_STAGE_PREFIX = "unit."

#: Wall-clock budget for one pool phase before the parent gives up and
#: falls back to serial for whatever was not seeded yet.
_DRAIN_TIMEOUT = float(os.environ.get("REPRO_PARCOMPILE_TIMEOUT", "120"))

#: Batches-per-worker granularity: more batches = better stealing, more
#: queue overhead.  4 keeps the tail short without drowning tiny modules.
_BATCHES_PER_WORKER = 4

# Deterministic fault injection (fork-inherited): ``{worker_id: n}`` makes
# that worker hard-exit (``os._exit(1)``, the cluster crash idiom) after
# completing ``n`` batches.  Tests set it in the parent before compiling.
CRASH_AFTER_BATCHES: dict[int, int] = {}

# Set in the parent immediately before forking a pool; children read it on
# entry.  Fork inheritance ships the (unpicklable, digest-warmed) module
# graph for free; ``None`` outside a pool run.
_FORK_PAYLOAD: Optional[dict] = None

_PAR_EVENTS = default_registry().counter(
    "compile.parcompile.events", "Parallel-compile pool lifecycle events by phase/outcome"
)
_WORKER_DIED = default_registry().counter(
    "compile.worker_died", "Compile workers lost mid-parallel-compile"
)


@dataclass
class ParcompileReport:
    """What one parallel compile did, for ``Diagnostics``/span attributes.

    ``units_seeded``/``units_warm`` count units the pool computed fresh vs
    warm-read from the shared disk tier, per stage; ``per_worker`` maps
    worker id → function/unit counts; ``merged_metrics`` is the
    :func:`repro.obs.merge_snapshots` fold of every worker's registry
    snapshot.  ``fallbacks`` lists the reasons any part of the compile
    stayed serial — an empty list means the pool covered everything it was
    asked to.
    """

    workers: int
    phases: list[str] = field(default_factory=list)
    worker_deaths: int = 0
    units_seeded: dict[str, int] = field(default_factory=dict)
    units_warm: dict[str, int] = field(default_factory=dict)
    per_worker: dict[int, dict[str, int]] = field(default_factory=dict)
    fallbacks: list[str] = field(default_factory=list)
    merged_metrics: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        """A JSON-able view (``Diagnostics.parcompile``)."""

        return {
            "workers": self.workers,
            "phases": list(self.phases),
            "worker_deaths": self.worker_deaths,
            "units_seeded": dict(self.units_seeded),
            "units_warm": dict(self.units_warm),
            "per_worker": {
                worker: dict(counts) for worker, counts in sorted(self.per_worker.items())
            },
            "fallbacks": list(self.fallbacks),
        }

    def _count(self, stage: str, fresh: bool) -> None:
        bucket = self.units_seeded if fresh else self.units_warm
        bucket[stage] = bucket.get(stage, 0) + 1

    def _credit(self, worker: int, *, functions: int = 0, units: int = 0) -> None:
        counts = self.per_worker.setdefault(worker, {"functions": 0, "units": 0})
        counts["functions"] += functions
        counts["units"] += units


# ---------------------------------------------------------------------------
# Worker-side unit view
# ---------------------------------------------------------------------------


class _TieredUnits:
    """A worker's ``unit_cache``: local memo → inherited parent cache →
    shared disk → compute, collecting everything the parent must seed.

    Duck-types the :class:`FunctionUnitCache` surface the pipeline layers
    call (``*_key``/``get``/``put``).  No statistics are recorded here —
    the parent replays hit/miss outcomes through
    :meth:`FunctionUnitCache.seed`'s ``fresh`` flag, keeping
    ``Diagnostics.units`` exact — but disk lookups do count on the disk
    tier's own ``disk.unit.<stage>`` stats (zeroed at worker start, merged
    back via the metrics snapshot).
    """

    def __init__(self, inherited: Optional[FunctionUnitCache], disk=None) -> None:
        self.local = FunctionUnitCache()
        self.inherited = inherited
        self.disk = disk
        #: ``(stage, key, value, fresh)`` tuples since the last :meth:`drain`.
        self.collected: list[tuple[str, str, object, bool]] = []

    def get(self, stage: str, key: str):
        value = self.local.peek(stage, key)
        if value is not None:
            return value
        if self.inherited is not None:
            # The parent already holds this unit; nothing to ship or count.
            value = self.inherited.peek(stage, key)
            if value is not None:
                return value
        if self.disk is not None:
            value = self.disk.get(UNIT_STAGE_PREFIX + stage, key)
            if value is not None:
                self.local.seed(stage, key, value, fresh=False)
                self.collected.append((stage, key, value, False))
                return value
        return None

    def put(self, stage: str, key: str, value: object) -> None:
        self.local.seed(stage, key, value)
        self.collected.append((stage, key, value, True))
        if self.disk is not None:
            try:
                self.disk.put(UNIT_STAGE_PREFIX + stage, key, value)
            except Exception:
                pass  # a failed publish only costs sharing, never correctness

    def drain(self) -> list[tuple[str, str, object, bool]]:
        units, self.collected = self.collected, []
        return units

    # -- key builders (delegated, so worker and parent keys always agree) --

    def typecheck_key(self, function, module, *, allow_caps: bool = True) -> str:
        from .compilepipe import typecheck_unit_key

        return typecheck_unit_key(function, module, allow_caps=allow_caps)

    def lower_key(self, function, module) -> str:
        from .compilepipe import lower_unit_key

        return lower_unit_key(function, module)

    def optimize_key(self, function, segment) -> str:
        from .compilepipe import optimize_unit_key

        return optimize_unit_key(function, segment)

    def validate_key(self, function, module) -> str:
        from .compilepipe import validate_unit_key

        return validate_unit_key(function, module)

    def decode_key(self, function) -> str:
        from .compilepipe import decode_unit_key

        return decode_unit_key(function)

    def translate_key(self, function, module, index: int, *, force_list: bool = False) -> str:
        from .compilepipe import translate_unit_key

        return translate_unit_key(function, module, index, force_list=force_list)


# ---------------------------------------------------------------------------
# Worker mains
# ---------------------------------------------------------------------------


def _function_unit_state(payload: dict) -> dict:
    """Phase A per-worker state from the fork-inherited payload."""

    from .lower.compiler import ModuleLowering

    tiered = _TieredUnits(payload.get("units"), payload.get("disk"))
    lowering = ModuleLowering(
        payload["richwasm"], memory_pages=payload["memory_pages"], unit_cache=tiered
    )
    return {
        "tiered": tiered,
        "lowering": lowering,
        "skeleton": lowering.signature_skeleton(),
        "segments": payload["segments"],
        "max_iterations": payload["max_iterations"],
        "validate": payload["validate"],
    }


def _process_function_unit(state: dict, index: int) -> None:
    """Lower → optimize-chain → validate → decode one RichWasm function."""

    from .wasm.decode import decode_function
    from .wasm.validation import validate_function

    tiered: _TieredUnits = state["tiered"]
    lowering = state["lowering"]
    skeleton = state["skeleton"]
    function = lowering._lower_function_cached(lowering.module.functions[index])

    # The function-pass segments to a local fixpoint, caching every
    # (segment, version) round — *including* the zero-rewrite confirms at
    # the final version, which the parent's global fixpoint iterations look
    # up.
    segments = state["segments"]
    if segments:
        for _ in range(state["max_iterations"]):
            rewrites = 0
            for segment in segments:
                function, counts = segment.run(function, skeleton, tiered)
                rewrites += sum(counts)
            if rewrites == 0:
                break

    if state["validate"]:
        vkey = tiered.validate_key(function, skeleton)
        if tiered.get("validate", vkey) is None:
            validate_function(skeleton, function)
            tiered.put("validate", vkey, True)

    dkey = tiered.decode_key(function)
    if tiered.get("decode", dkey) is None:
        tiered.put("decode", dkey, decode_function(function))


def _translate_state(payload: dict) -> dict:
    """Phase B per-worker state from the fork-inherited payload."""

    return {
        "tiered": _TieredUnits(payload.get("units"), payload.get("disk")),
        "wasm": payload["wasm"],
        "slots": payload["slots"],
    }


def _process_translate_unit(state: dict, index: int) -> None:
    """Emit + ``compile()`` one function's translation, shipped as wire.

    The unit value that travels (and is published to disk) is
    ``(chunk, mode, pool_values, marshal(code))`` — the parent rebuilds the
    exec'd callable with :func:`repro.wasm.pygen.build_translation_unit`.
    """

    from .wasm.pygen import emit_function_chunk

    tiered: _TieredUnits = state["tiered"]
    wasm = state["wasm"]
    key = tiered.translate_key(wasm.functions[index], wasm, index)
    if tiered.get("translate", key) is not None:
        return
    chunk, mode, pool_values = emit_function_chunk(index, state["slots"], wasm)
    code = compile(chunk, f"<pygen:{wasm.name or 'module'}:f{index}>", "exec")
    tiered.put("translate", key, (index, chunk, mode, pool_values, marshal.dumps(code)))


_PHASES = {
    "function_units": (_function_unit_state, _process_function_unit),
    "translate_units": (_translate_state, _process_translate_unit),
}


def _worker_entry(worker_id: int, phase: str, task_queue, result_queue) -> None:
    """``multiprocessing`` target: steal batches until the sentinel.

    Protocol (plain picklable records, the cluster-worker idiom):
    ``{"op": "units", "worker", "units": [(stage, key, value, fresh)...],
    "functions": n}`` per batch, ``{"op": "error", "worker", "message"}``
    on failure, ``{"op": "done", "worker", "metrics": [...]}`` on exit.
    """

    from .cluster.worker import reset_inherited_telemetry

    try:
        reset_inherited_telemetry()
        build_state, process = _PHASES[phase]
        state = build_state(_FORK_PAYLOAD)
        tiered: _TieredUnits = state["tiered"]
        crash_after = CRASH_AFTER_BATCHES.get(worker_id)
        batches = 0
        while True:
            batch = task_queue.get()
            if batch is None:
                break
            for index in batch:
                process(state, index)
            result_queue.put(
                {
                    "op": "units",
                    "worker": worker_id,
                    "units": tiered.drain(),
                    "functions": len(batch),
                }
            )
            batches += 1
            if crash_after is not None and batches >= crash_after:
                os._exit(1)
        result_queue.put(
            {"op": "done", "worker": worker_id, "metrics": default_registry().snapshot()}
        )
    except BaseException as exc:  # ship the failure; the parent falls back
        try:
            result_queue.put({"op": "error", "worker": worker_id, "message": repr(exc)})
        except Exception:
            os._exit(1)


# ---------------------------------------------------------------------------
# Parent-side pool driver
# ---------------------------------------------------------------------------


def _chunk_largest_first(tasks: list[tuple[int, int]], workers: int) -> list[list[int]]:
    """Batch ``(index, weight)`` tasks largest-first for the shared queue.

    Largest-first ordering puts the expensive functions at the front of the
    steal queue, so the tail of the schedule is made of cheap batches and no
    single straggler serializes the pool.
    """

    ordered = [index for index, _ in sorted(tasks, key=lambda t: (-t[1], t[0]))]
    batch_size = max(1, math.ceil(len(ordered) / (workers * _BATCHES_PER_WORKER)))
    return [ordered[i : i + batch_size] for i in range(0, len(ordered), batch_size)]


def _seed_units(units: FunctionUnitCache, record: dict, report: ParcompileReport) -> None:
    """File one worker batch into the parent cache (phase-aware)."""

    from .wasm.pygen import build_translation_unit

    seeded = 0
    for stage, key, value, fresh in record["units"]:
        if stage == "translate":
            # Wire form — rebuild the exec'd callable parent-side; a bad
            # blob only skips the seed (serial recompose recomputes it).
            try:
                index, chunk, mode, pool_values, blob = value
                unit = build_translation_unit(
                    index, chunk, mode, pool_values, code=marshal.loads(blob)
                )
            except Exception:
                continue
            units.seed(stage, key, unit, fresh=fresh)
        else:
            units.seed(stage, key, value, fresh=fresh)
        report._count(stage, fresh)
        seeded += 1
    report._credit(record["worker"], functions=record.get("functions", 0), units=seeded)


def _run_pool(
    phase: str,
    payload: dict,
    tasks: list[tuple[int, int]],
    workers: int,
    units: FunctionUnitCache,
    report: ParcompileReport,
) -> None:
    """Fork ``workers`` processes over ``tasks`` and seed their results.

    Every failure mode — fork unavailable, worker death, drain timeout —
    degrades to "fewer units seeded" and is recorded on ``report``; the
    caller's serial pipeline computes whatever is missing.
    """

    global _FORK_PAYLOAD

    if "fork" not in mp.get_all_start_methods():
        report.fallbacks.append(f"{phase}: fork start method unavailable")
        _PAR_EVENTS.inc(phase=phase, event="fallback")
        return
    ctx = mp.get_context("fork")
    batches = _chunk_largest_first(tasks, workers)
    task_queue = ctx.Queue()
    result_queue = ctx.Queue()
    for batch in batches:
        task_queue.put(batch)
    for _ in range(workers):
        task_queue.put(None)

    _FORK_PAYLOAD = payload
    try:
        procs = [
            ctx.Process(
                target=_worker_entry,
                args=(worker_id, phase, task_queue, result_queue),
                daemon=True,
                name=f"repro-parcompile-{phase}-{worker_id}",
            )
            for worker_id in range(workers)
        ]
        for proc in procs:
            proc.start()
    finally:
        _FORK_PAYLOAD = None

    report.phases.append(phase)
    _PAR_EVENTS.inc(phase=phase, event="pool_started")
    finished: set[int] = set()
    deadline = time.monotonic() + _DRAIN_TIMEOUT
    while len(finished) < workers and time.monotonic() < deadline:
        try:
            record = result_queue.get(timeout=0.25)
        except queue_mod.Empty:
            # The dispatcher death-detection idiom: inside every idle
            # window, sweep for workers that exited without a done record.
            for worker_id, proc in enumerate(procs):
                if worker_id not in finished and proc.exitcode is not None:
                    finished.add(worker_id)
                    report.worker_deaths += 1
                    _WORKER_DIED.inc(phase=phase)
                    _PAR_EVENTS.inc(phase=phase, event="worker_died")
            continue
        op = record.get("op")
        if op == "units":
            _seed_units(units, record, report)
        elif op == "done":
            finished.add(record["worker"])
            report.merged_metrics = merge_snapshots(
                report.merged_metrics, record.get("metrics", [])
            )
        elif op == "error":
            finished.add(record["worker"])
            report.fallbacks.append(f"{phase}: worker {record['worker']}: {record['message']}")
            _PAR_EVENTS.inc(phase=phase, event="worker_error")
    if len(finished) < workers:
        report.fallbacks.append(f"{phase}: drain timeout after {_DRAIN_TIMEOUT:.0f}s")
        _PAR_EVENTS.inc(phase=phase, event="drain_timeout")

    for proc in procs:
        proc.join(timeout=0.5)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=0.5)
    for q in (task_queue, result_queue):
        q.cancel_join_thread()
        q.close()
    _PAR_EVENTS.inc(phase=phase, event="pool_finished")


# ---------------------------------------------------------------------------
# Public entry points (called from ModuleCache.lower's miss path)
# ---------------------------------------------------------------------------


def _function_segments(passes) -> list:
    from .opt.manager import FunctionPassSegment, split_segments

    return [s for s in split_segments(passes or ()) if isinstance(s, FunctionPassSegment)]


def precompute_function_units(
    richwasm,
    config,
    units: FunctionUnitCache,
    *,
    disk=None,
    passes=None,
    report: Optional[ParcompileReport] = None,
) -> Optional[ParcompileReport]:
    """Phase A: pre-seed lower/optimize/validate/decode units in parallel.

    Plans the fan-out (which defined functions still miss their lower unit,
    or — when only the pass pipeline changed — their first optimize round),
    pre-warms the digests the keys hash (so forked children inherit them
    cached), and runs the pool.  Returns the report (``None`` only when
    ``config.compile_workers <= 1``); the caller then runs the unchanged
    serial ``lower_module``/``validate_module``, which recomposes from the
    seeds.
    """

    workers = getattr(config, "compile_workers", 1) or 1
    if workers <= 1:
        return report
    if report is None:
        report = ParcompileReport(workers=workers)
    try:
        from .compilepipe import lower_unit_key
        from .core.syntax.modules import Function, signature_env_digest

        pipeline = passes if passes is not None else config.passes()
        segments = _function_segments(pipeline)
        signature_env_digest(richwasm)  # digest pre-warm, inherited by children

        tasks: list[tuple[int, int]] = []
        for index, decl in enumerate(richwasm.functions):
            if not isinstance(decl, Function):
                continue
            cached = units.peek("lower", lower_unit_key(decl, richwasm))
            if cached is None:
                tasks.append((index, decl.instruction_count()))
            elif segments and (
                units.peek("optimize", segments[0].unit_key(units, cached[0])) is None
            ):
                # Lowering is warm but the (new) pipeline's chain is not —
                # the opt-level-change recompile still fans out.
                tasks.append((index, decl.instruction_count()))
        if not tasks:
            return report

        payload = {
            "richwasm": richwasm,
            "memory_pages": config.memory_pages,
            "segments": segments,
            "max_iterations": 8,
            "validate": bool(getattr(config, "validate_wasm", True)),
            "units": units,
            "disk": disk,
        }
        _run_pool("function_units", payload, tasks, workers, units, report)
    except Exception as exc:  # never let the accelerator break a compile
        report.fallbacks.append(f"function_units: {exc!r}")
        _PAR_EVENTS.inc(phase="function_units", event="fallback")
    return report


def precompute_translate_units(
    wasm,
    config,
    units: FunctionUnitCache,
    *,
    disk=None,
    report: Optional[ParcompileReport] = None,
) -> Optional[ParcompileReport]:
    """Phase B: pre-seed compiled-tier translate units in parallel.

    Runs on the lowered, validated ``wasm`` when the engine is ``compiled``.
    The parent decodes first (all units hit after phase A, and decode stats
    land exactly once because :func:`repro.wasm.decode.decode_module`
    memoizes per object), then fans the emit + ``compile()`` work out.
    Warm disk wire units are rebuilt parent-side without forking at all.
    """

    workers = getattr(config, "compile_workers", 1) or 1
    if workers <= 1:
        return report
    if report is None:
        report = ParcompileReport(workers=workers)
    try:
        from .compilepipe import translate_unit_key, wasm_signature_digest
        from .wasm.ast import WasmFunction
        from .wasm.decode import decode_module
        from .wasm.pygen import build_translation_unit

        wasm_signature_digest(wasm)  # digest pre-warm, inherited by children
        slots = decode_module(wasm, unit_cache=units).flat

        tasks: list[tuple[int, int]] = []
        for index, function in enumerate(wasm.functions):
            if not isinstance(function, WasmFunction):
                continue
            key = translate_unit_key(function, wasm, index)
            if units.peek("translate", key) is not None:
                continue
            if disk is not None:
                wire = disk.get(UNIT_STAGE_PREFIX + "translate", key)
                if wire is not None:
                    try:
                        windex, chunk, mode, pool_values, blob = wire
                        unit = build_translation_unit(
                            windex, chunk, mode, pool_values, code=marshal.loads(blob)
                        )
                    except Exception:
                        pass
                    else:
                        units.seed("translate", key, unit, fresh=False)
                        report._count("translate", False)
                        continue
            flat = slots[index]
            weight = len(getattr(flat, "code", ()) or ()) or 1
            tasks.append((index, weight))
        if not tasks:
            return report

        payload = {"wasm": wasm, "slots": slots, "units": units, "disk": disk}
        _run_pool("translate_units", payload, tasks, workers, units, report)
    except Exception as exc:  # never let the accelerator break a compile
        report.fallbacks.append(f"translate_units: {exc!r}")
        _PAR_EVENTS.inc(phase="translate_units", event="fallback")
    return report
