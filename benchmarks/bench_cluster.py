"""CLUSTER — sharded multi-process serving + the durable on-disk cache.

Three claims, enforced as assertions:

* **Scale-out throughput** (``perf``-marked): ``min(REPRO_CLUSTER_WORKERS,
  cpu_count)`` workers sustain at least ``0.75 x workers`` the
  single-process aggregate request rate on 600-session batches of the
  counter-session workload — 1.5x on 2 CPUs, 3x on 4 — read as the median
  of per-round ratios, the sides alternating first.  It skips only on a
  single CPU, where N workers time-slice one core and no speedup is
  possible.
* **Disk warm start** (``perf``-marked): a cold *process* against a warm
  cache directory starts at least 10x faster than a cold compile — the
  fingerprint key shortcut + pickled program/flat-code artifacts skip the
  whole pipeline.
* **Correctness** (always on): the cluster returns the same session
  results as the in-process service on every engine, and a warm disk start
  reports a ``program`` cache hit with identical execution behaviour.

Floors are environment-overridable: ``REPRO_CLUSTER_SPEEDUP_FLOOR``
(default ``0.75 x workers``) and ``REPRO_DISK_WARM_FLOOR`` (default 10.0).
"""

import os

import pytest

from repro import api
from repro.ffi import counter_program

from workloads import (
    counter_sessions,
    measure_cluster_throughput,
    measure_disk_warm_start,
)

DISK_WARM_FLOOR = float(os.environ.get("REPRO_DISK_WARM_FLOOR", "10.0"))
CLUSTER_WORKERS = int(os.environ.get("REPRO_CLUSTER_WORKERS", "4"))
SCALE_OUT_SESSIONS = 600
SCALE_OUT_SHARE = 0.75  # of linear scaling the gate asks for

ENGINES = ("tree", "flat", "compiled")


@pytest.mark.perf
def test_cluster_throughput_scales_with_cpus():
    workers = min(CLUSTER_WORKERS, os.cpu_count() or 1)
    if workers < 2:
        pytest.skip(
            f"scale-out needs 2+ workers on 2+ CPUs (host has {os.cpu_count()} "
            f"CPU(s), REPRO_CLUSTER_WORKERS={CLUSTER_WORKERS})"
        )
    floor = float(os.environ.get("REPRO_CLUSTER_SPEEDUP_FLOOR", SCALE_OUT_SHARE * workers))
    result = measure_cluster_throughput(workers=workers, sessions=SCALE_OUT_SESSIONS)
    print(
        f"\n  cluster rps: {result['single_requests_per_sec']:,} single -> "
        f"{result['cluster_requests_per_sec']:,} x{result['workers']} workers "
        f"(median {result['speedup']}x of rounds {result['speedups']}, floor {floor}x, "
        f"{result['cpu_count']} CPUs)"
    )
    assert result["single_ok"] == result["cluster_ok"] == result["sessions"]
    assert result["speedup"] >= floor, (
        f"{result['workers']}-worker cluster only {result['speedup']}x the "
        f"single process (floor {floor}x)"
    )


@pytest.mark.perf
def test_disk_warm_start_at_least_10x():
    result = measure_disk_warm_start()
    print(
        f"\n  disk warm start: cold {result['cold_wall_s']}s -> warm "
        f"{result['warm_wall_s']}s ({result['speedup']}x, "
        f"{result['functions']} functions)"
    )
    assert result["program_cold"] == "miss"
    assert result["program_warm"] == "hit", (
        "warm child recompiled instead of loading from disk"
    )
    assert result["speedup"] >= DISK_WARM_FLOOR, (
        f"disk warm start only {result['speedup']}x the cold compile "
        f"(floor {DISK_WARM_FLOOR}x)"
    )


def test_disk_warm_start_hits_without_recompiling():
    # The non-perf half of the warm-start claim: a fresh process against a
    # warm directory must report a program hit (no floor on the wall time),
    # reading exactly the fingerprint's key and the one program entry (a
    # bare module links nothing) and missing nothing.
    result = measure_disk_warm_start(functions=40, warm_repeats=1)
    assert result["program_cold"] == "miss"
    assert result["program_warm"] == "hit"
    assert result["disk_warm"] == {"disk.key": [1, 0], "disk.program": [1, 0]}


@pytest.mark.parametrize("engine", ENGINES)
def test_cluster_matches_single_process_results(engine):
    scenario = counter_program()
    sessions = counter_sessions(6, ticks=5)
    with api.serve(scenario, {"cache": "private", "engine": engine}) as single:
        baseline = single.run(sessions)
    with api.serve(
        scenario, {"cache": "private", "engine": engine, "workers": 2}
    ) as cluster:
        assert cluster.workers == 2
        report = cluster.run(counter_sessions(6, ticks=5))
    assert baseline.ok_count == report.ok_count == 6
    assert [o.values for o in baseline.outcomes] == [o.values for o in report.outcomes]
    assert [o.steps for o in baseline.outcomes] == [o.steps for o in report.outcomes]


def test_cluster_stats_aggregate_metrics():
    with api.serve(counter_program(), {"cache": "private", "workers": 2}) as cluster:
        cluster.run(counter_sessions(4, ticks=3))
        stats = cluster.stats()
    assert set(stats.workers) == {0, 1}
    assert stats.respawns == 0
    names = {record["name"] for record in stats.metrics}
    assert "runtime.requests" in names
