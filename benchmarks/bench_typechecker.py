"""CHECK — type-checker throughput and the strict/relaxed capability ablation.

Measures how the RichWasm type checker scales with program size (synthetic
modules with growing instruction counts) and compares the strict rule (no
capabilities anywhere on the heap) with the relaxed §5 rule (capabilities
allowed in the linear memory) — the ablation called out in DESIGN.md.

Since PR 5 it is also the measuring stick for the hash-consing layer: the
``perf``-marked head-to-head checks the interned checker against the
pre-refactor structural baseline (the same checker with interning disabled,
which reverts equality/shift/substitution/entailment to their structural
slow paths) and asserts a >= 2x throughput floor on the largest synthetic
module — mirroring how ``bench_interpreters.py`` gates the flat VM.
"""

import contextlib
import statistics
import time

import pytest

from repro.core.syntax import interning_disabled
from repro.core.typing import check_module

from workload_builders import synthetic_module

#: Required interned-over-structural-baseline throughput ratio (CI floor).
CHECKER_SPEEDUP_FLOOR = 2.0

#: Interned/baseline pairs the gate takes the median ratio of.
CHECKER_PAIRS = 7


@pytest.mark.parametrize("blocks", [1, 10, 50])
def test_scaling_corpus_is_well_typed(blocks):
    result = check_module(synthetic_module(blocks))
    assert result.instructions_checked > blocks * 8


def test_strict_and_relaxed_rules_agree_on_cap_free_code():
    module = synthetic_module(5)
    check_module(module, allow_caps_in_linear_memory=True)
    check_module(module, allow_caps_in_linear_memory=False)


def _check_seconds(module, *, interned: bool) -> float:
    """Wall time of one ``check_module`` call, interning on or off."""

    with contextlib.nullcontext() if interned else interning_disabled():
        start = time.perf_counter()
        check_module(module)
        return time.perf_counter() - start


def paired_speedups(blocks: int, *, pairs: int = CHECKER_PAIRS) -> list[float]:
    """Interned-over-baseline throughput ratios, one per pair.

    Each pair times the interned check and the structural baseline back to
    back, the first of the two alternating from pair to pair, so a host
    whose speed drifts slows both sides of a pair alike.  One warm-up check
    of each side comes first.
    """

    interned_module = synthetic_module(blocks)
    with interning_disabled():
        baseline_module = synthetic_module(blocks)
    _check_seconds(interned_module, interned=True)
    _check_seconds(baseline_module, interned=False)
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            baseline = _check_seconds(baseline_module, interned=False)
            interned = _check_seconds(interned_module, interned=True)
        else:
            interned = _check_seconds(interned_module, interned=True)
            baseline = _check_seconds(baseline_module, interned=False)
        ratios.append(baseline / interned)
    return ratios


@pytest.mark.perf
@pytest.mark.parametrize("blocks", [200])
def test_interned_checker_is_at_least_2x(blocks):
    """Hash-consing sustains >= 2x the structural checker's throughput.

    The baseline builds the same module with interning disabled, so its
    types carry no canonical forms / free-variable summaries and the checker
    takes its structural equality, full shift/substitution, and memo-free
    entailment paths — the pre-refactor behaviour.  Both modules hold the
    same instructions, so the ratio of check times is the throughput ratio;
    the gate reads the median of the per-pair ratios.
    """

    ratios = paired_speedups(blocks)
    speedup = statistics.median(ratios)
    print(
        f"\nblocks={blocks}: interned/baseline speedup median {speedup:.2f}x over "
        f"{len(ratios)} pairs ({min(ratios):.2f}-{max(ratios):.2f}x)"
    )
    assert speedup >= CHECKER_SPEEDUP_FLOOR, (
        f"interned checker only {speedup:.2f}x over the structural baseline "
        f"(median of per-pair ratios {', '.join(f'{r:.2f}' for r in ratios)})"
    )


def test_interned_and_baseline_checker_agree():
    """Interning must not change any verdict: both modes accept the corpus
    and report identical statistics."""

    module = synthetic_module(25)
    interned = check_module(module)
    with interning_disabled():
        baseline = check_module(synthetic_module(25))
    assert interned.functions_checked == baseline.functions_checked
    assert interned.globals_checked == baseline.globals_checked
    assert interned.instructions_checked == baseline.instructions_checked


@pytest.mark.benchmark(group="typechecker")
@pytest.mark.parametrize("blocks", [10, 50, 200])
def test_bench_typechecker_scaling(benchmark, blocks):
    module = synthetic_module(blocks)
    result = benchmark(check_module, module)
    assert result.functions_checked == 1


@pytest.mark.benchmark(group="typechecker-ablation")
@pytest.mark.parametrize("relaxed", [True, False])
def test_bench_capability_rule_ablation(benchmark, relaxed):
    module = synthetic_module(50)
    result = benchmark(check_module, module, allow_caps_in_linear_memory=relaxed)
    assert result.functions_checked == 1
