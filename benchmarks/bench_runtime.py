"""RUNTIME — the compile-once/run-many serving layer.

Three claims, enforced as assertions:

* **Throughput** (``perf``-marked): instantiating from a cached
  :class:`repro.runtime.CompiledProgram` is at least 5x faster than the
  naive full-pipeline path, and pooled resets are faster still.
* **Correctness**: a pooled-reset instance is *bit-identical* — results,
  trap messages, final memory, globals, cumulative steps — to a freshly
  instantiated one, on both engines, for every shared workload
  (:func:`repro.opt.run_pool_reset_cross_check`).
* **Isolation**: a trapped request (including a blown per-request
  ``max_steps`` budget) leaves no trace observable by later requests.
"""

import os

import pytest

from repro.ffi import counter_program
from repro.opt import run_pool_reset_cross_check
from repro.runtime import ModuleCache, Request, Session, scenario_service

from workload_builders import COUNTER_TICKS, WORKLOADS, measure_runtime_throughput

# The acceptance floor; measured headroom is orders of magnitude (the naive
# path re-runs linking and type-directed lowering per instantiation).
CACHE_SPEEDUP_FLOOR = float(os.environ.get("REPRO_CACHE_SPEEDUP_FLOOR", "5.0"))


@pytest.mark.perf
def test_cached_instantiation_at_least_5x():
    runtime = measure_runtime_throughput()
    print(
        f"\n  instantiations/s: {runtime['uncached_instances_per_sec']:,} uncached -> "
        f"{runtime['cached_instances_per_sec']:,} cached ({runtime['cached_speedup']}x), "
        f"{runtime['pooled_resets_per_sec']:,} pooled resets/s, "
        f"{runtime['requests_per_sec']:,} requests/s"
    )
    assert runtime["cached_speedup"] >= CACHE_SPEEDUP_FLOOR, (
        f"cached instantiation only {runtime['cached_speedup']}x the uncached path "
        f"(floor {CACHE_SPEEDUP_FLOOR}x)"
    )
    # Recycling an instance must beat even the cached cold instantiation.
    assert runtime["pooled_resets_per_sec"] >= runtime["cached_instances_per_sec"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pooled_reset_bit_identical_to_fresh(workload):
    wasm, calls = WORKLOADS[workload]()
    reports = run_pool_reset_cross_check(wasm, calls)
    assert set(reports) == {"tree", "flat", "compiled"}
    for engine, report in reports.items():
        assert report.ok, f"{workload} on {engine}:\n{report.format_report()}"


def test_batch_requests_are_isolated():
    runner = scenario_service(counter_program, cache=ModuleCache())
    ticks = tuple(("client.client_tick", ()) for _ in range(COUNTER_TICKS))
    session = Session(calls=(("client.client_init", (7,)),) + ticks + (("client.client_total", ()),))
    report = runner.run([
        session,
        Request("client.client_init", (1,), 3),  # blown budget: traps
        session,                                  # must be unaffected
    ])
    assert report.outcomes[0].ok and report.outcomes[2].ok
    assert report.outcomes[0].values[-1] == report.outcomes[2].values[-1] == [7 + COUNTER_TICKS]
    assert not report.outcomes[1].ok and report.outcomes[1].trap == "step budget exhausted"
    assert report.outcomes[0].steps == report.outcomes[2].steps
