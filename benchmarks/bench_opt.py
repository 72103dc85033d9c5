"""OPT — the Wasm optimizer: instruction-count reduction and speedup.

Measures what :mod:`repro.opt` buys on the ML and L3 pipeline workloads of
``bench_pipelines.py``: static instruction-count reduction (the acceptance
target is >= 20% on both), dynamic interpreter step-count reduction, and
wall-clock execution time of optimized vs. unoptimized modules on the Wasm
interpreter.  Differential agreement is asserted along the way, so the
benchmark doubles as an end-to-end translation-validation check.
"""

import pytest

from repro.analysis import format_optimization_report, optimization_delta
from repro.l3 import compile_l3_module
from repro.lower import lower_module
from repro.ml import compile_ml_module
from repro.opt import optimize_module, run_differential
from repro.wasm import WasmInterpreter, validate_module

from bench_pipelines import l3_workload, ml_workload

WORKLOADS = {
    "ml-pipeline": (lambda: compile_ml_module(ml_workload()), "pipeline", 21),
    "l3-churn": (lambda: compile_l3_module(l3_workload()), "churn", 9),
}


def lowered_pair(name):
    compile_fn, export, arg = WORKLOADS[name]
    plain = lower_module(compile_fn())
    result = optimize_module(plain.wasm)
    return plain.wasm, result, export, arg


def invoke(module, export, arg):
    interp = WasmInterpreter()
    instance = interp.instantiate(module)
    result = interp.invoke(instance, export, [arg])
    return result, interp.steps


# -- static instruction-count reduction --------------------------------------


def test_instruction_count_reduction_report():
    deltas = []
    results = {}
    for name in WORKLOADS:
        plain, result, export, arg = lowered_pair(name)
        deltas.append(optimization_delta(plain, result.module, name=name))
        results[name] = result
        assert result.reduction >= 0.20, f"{name}: {result.format_report()}"
    print()
    print(format_optimization_report(deltas))
    # The per-pass census: each pass's rewrites and seconds per workload.
    for name, result in results.items():
        print(f"\n{name}\n{result.format_report()}")


def test_optimized_modules_validate_and_agree():
    for name in WORKLOADS:
        plain, result, export, arg = lowered_pair(name)
        validate_module(result.module)
        report = run_differential(plain, result.module, [(export, (arg,)), (export, (0,))])
        assert report.ok, report.format_report()


# -- dynamic step-count reduction --------------------------------------------


def test_interpreter_steps_reduced():
    print()
    for name in WORKLOADS:
        plain, result, export, arg = lowered_pair(name)
        baseline_result, baseline_steps = invoke(plain, export, arg)
        optimized_result, optimized_steps = invoke(result.module, export, arg)
        assert baseline_result == optimized_result
        assert optimized_steps < baseline_steps
        print(
            f"{name}: {baseline_steps} -> {optimized_steps} interpreter steps "
            f"({1 - optimized_steps / baseline_steps:.1%} fewer)"
        )


# -- wall-clock execution ------------------------------------------------------


@pytest.mark.benchmark(group="opt-ml")
def test_bench_ml_unoptimized(benchmark):
    plain, _result, export, arg = lowered_pair("ml-pipeline")
    assert benchmark(lambda: invoke(plain, export, arg)[0]) == [42]


@pytest.mark.benchmark(group="opt-ml")
def test_bench_ml_optimized(benchmark):
    _plain, result, export, arg = lowered_pair("ml-pipeline")
    assert benchmark(lambda: invoke(result.module, export, arg)[0]) == [42]


@pytest.mark.benchmark(group="opt-l3")
def test_bench_l3_unoptimized(benchmark):
    plain, _result, export, arg = lowered_pair("l3-churn")
    assert benchmark(lambda: invoke(plain, export, arg)[0]) == [10]


@pytest.mark.benchmark(group="opt-l3")
def test_bench_l3_optimized(benchmark):
    _plain, result, export, arg = lowered_pair("l3-churn")
    assert benchmark(lambda: invoke(result.module, export, arg)[0]) == [10]


@pytest.mark.benchmark(group="opt-pass-pipeline")
def test_bench_optimizer_throughput(benchmark):
    """Cost of running the pass pipeline itself over the linked ML module."""

    plain = lower_module(compile_ml_module(ml_workload()))
    result = benchmark(lambda: optimize_module(plain.wasm))
    assert result.reduction >= 0.20
