"""The observability overhead contract (``repro.obs``).

Observability is only free if nobody pays for it when it is off — these
benchmarks pin that down as CI gates on the ``sum_loop`` workload:

* **disabled**: running under the default :data:`~repro.obs.NOOP_TRACER`
  (spans opened and discarded per call script, no profiler attached) must
  sustain >= 98% of the uninstrumented baseline's steps/sec;
* **tracing**: a real :class:`~repro.obs.Tracer` buffering every span must
  sustain >= 90%;
* **profiling**: a :class:`~repro.obs.StepProfiler` sampling every 1024
  steps must sustain >= 90%.

The schema tests at the bottom are cheap and run in the non-perf lane; the
overhead gates are ``perf``-marked for the dedicated CI perf job.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import NOOP_TRACER, StepProfiler, Tracer, get_tracer, set_tracer
from repro.obs.export import span_record, validate_record
from repro.wasm import WasmInterpreter

from workload_builders import WORKLOADS, run_calls

DISABLED_FLOOR = 0.98
TRACED_FLOOR = 0.90
PROFILED_FLOOR = 0.90

MIN_TIME = 0.4
MAX_ROUNDS = 400


def _script_runner(wasm, calls, *, traced: bool = False, profiler: StepProfiler | None = None):
    """Build a zero-argument call-script replayer and count its steps.

    ``traced`` opens a span around every call script through the *global*
    tracer — exactly how the serving tier is instrumented — so the disabled
    measurement exercises the no-op path and the enabled one the real path.
    """

    interpreter = WasmInterpreter(engine="flat")
    instance = interpreter.instantiate(wasm)
    if profiler is not None:
        profiler.install(interpreter)
    run_calls(interpreter, instance, calls)  # warm-up
    before = interpreter.steps
    run_calls(interpreter, instance, calls)
    steps = interpreter.steps - before

    if traced:
        def run():
            with get_tracer().span("bench.script", workload="sum_loop"):
                run_calls(interpreter, instance, calls)
    else:
        def run():
            run_calls(interpreter, instance, calls)
    return run, steps


def _interleaved_steps_per_sec(baseline, candidate):
    """Best-of steps/sec for two ``(runner, steps)`` pairs, rounds alternated.

    Alternating round-robin (instead of timing one runner to completion and
    then the other) cancels clock-speed drift between the two measurement
    windows — without it, turbo/thermal variance alone shows up as several
    percent and drowns the <=2% contract this file exists to check.
    """

    runners = (baseline, candidate)
    best = [float("inf"), float("inf")]
    elapsed_total = 0.0
    rounds = 0
    while elapsed_total < MIN_TIME * 2 and rounds < MAX_ROUNDS:
        for index, (run, _steps) in enumerate(runners):
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            best[index] = min(best[index], elapsed)
            elapsed_total += elapsed
        rounds += 1
    return baseline[1] / best[0], candidate[1] / best[1]


@pytest.mark.perf
def test_noop_tracer_within_2pct_of_baseline():
    """Instrumented-but-disabled must cost <= 2% on the hot loop."""

    wasm, calls = WORKLOADS["sum_loop"]()
    set_tracer(NOOP_TRACER)
    baseline, disabled = _interleaved_steps_per_sec(
        _script_runner(wasm, calls), _script_runner(wasm, calls, traced=True)
    )
    ratio = disabled / baseline
    print(f"\nsum_loop: baseline {baseline:,.0f} steps/s, obs-disabled {disabled:,.0f} "
          f"({ratio:.3f}x)")
    assert ratio >= DISABLED_FLOOR, (
        f"obs-disabled path at {ratio:.3f}x of baseline (floor {DISABLED_FLOOR})"
    )


@pytest.mark.perf
def test_tracing_enabled_within_10pct_of_baseline():
    """A live buffering tracer must cost <= 10% on the hot loop."""

    wasm, calls = WORKLOADS["sum_loop"]()
    tracer = Tracer()
    set_tracer(tracer)
    try:
        # The baseline runner never opens a span, so sharing the live global
        # tracer keeps both sides of the interleaving identical otherwise.
        baseline, traced = _interleaved_steps_per_sec(
            _script_runner(wasm, calls), _script_runner(wasm, calls, traced=True)
        )
    finally:
        set_tracer(NOOP_TRACER)
    ratio = traced / baseline
    spans = tracer.drain()
    print(f"\nsum_loop: baseline {baseline:,.0f} steps/s, traced {traced:,.0f} "
          f"({ratio:.3f}x, {len(spans)} spans)")
    assert spans, "tracing produced no spans"
    assert ratio >= TRACED_FLOOR, (
        f"tracing-enabled path at {ratio:.3f}x of baseline (floor {TRACED_FLOOR})"
    )


@pytest.mark.perf
def test_profiler_enabled_within_10pct_of_baseline():
    """A sampling profiler (interval 1024) must cost <= 10% on the hot loop."""

    wasm, calls = WORKLOADS["sum_loop"]()
    set_tracer(NOOP_TRACER)
    profiler = StepProfiler(interval=1024)
    baseline, profiled = _interleaved_steps_per_sec(
        _script_runner(wasm, calls), _script_runner(wasm, calls, profiler=profiler)
    )
    ratio = profiled / baseline
    print(f"\nsum_loop: baseline {baseline:,.0f} steps/s, profiled {profiled:,.0f} "
          f"({ratio:.3f}x, {profiler.total_samples} samples)")
    assert profiler.total_samples > 0, "profiler took no samples"
    assert ratio >= PROFILED_FLOOR, (
        f"profiler-enabled path at {ratio:.3f}x of baseline (floor {PROFILED_FLOOR})"
    )


# -- non-perf: the emitted telemetry is schema-valid -------------------------


def test_traced_run_emits_schema_valid_spans():
    wasm, calls = WORKLOADS["sum_loop"]()
    tracer = Tracer()
    set_tracer(tracer)
    try:
        interpreter = WasmInterpreter(engine="flat")
        instance = interpreter.instantiate(wasm)
        with get_tracer().span("bench.script", workload="sum_loop"):
            run_calls(interpreter, instance, calls)
    finally:
        set_tracer(NOOP_TRACER)
    spans = tracer.drain()
    assert len(spans) == 1
    record = validate_record(span_record(spans[0]))
    assert record["name"] == "bench.script"
    assert record["attrs"]["workload"] == "sum_loop"


def test_profiler_record_dict_is_schema_valid():
    from repro.obs.export import _base

    wasm, calls = WORKLOADS["sum_loop"]()
    interpreter = WasmInterpreter(engine="flat")
    instance = interpreter.instantiate(wasm)
    profiler = StepProfiler(interval=64).install(interpreter)
    run_calls(interpreter, instance, calls)
    profiler.uninstall(interpreter)
    record = _base("profile")
    record.update(profiler.record_dict())
    validate_record(record)
    assert record["samples"] > 0
