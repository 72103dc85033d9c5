#!/usr/bin/env python3
"""Run the benchmark suite and write a machine-readable BENCH_results.json.

Tracks the perf trajectory across PRs: every run records, per workload, the
step count, best wall time, steps/sec, and static instruction count (on the
``--engine`` engine, plus a per-engine steps/sec breakdown across all
registered engines); the per-stage compile timings (frontend typecheck,
core typecheck, lower, decode) with the interned-vs-structural checker
speedup; and the three-engine (tree/flat/compiled) differential cross-check
verdicts.  In full mode
every ``bench_*.py`` file is additionally executed under pytest and its wall
time and exit status recorded.

Usage::

    python benchmarks/run_all.py            # full run (pytest over bench_*)
    python benchmarks/run_all.py --smoke    # workloads + cross-check only
    python benchmarks/run_all.py --engine tree --output /tmp/results.json

The process exits non-zero if any engine cross-check reports a divergence or
any benchmark file fails — the CI smoke job is gated on exactly this.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

for path in (REPO_ROOT / "src", REPO_ROOT / "benchmarks"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.obs import (  # noqa: E402
    NOOP_TRACER,
    JsonlSink,
    Tracer,
    default_registry,
    get_tracer,
    set_tracer,
)
from repro.opt import run_engine_cross_check, run_pool_reset_cross_check  # noqa: E402
from repro.wasm import available_engines  # noqa: E402

from workloads import (  # noqa: E402
    WORKLOADS,
    measure_cluster_throughput,
    measure_compile_stages,
    measure_disk_warm_start,
    measure_engine,
    measure_incremental_compile,
    measure_runtime_throughput,
)


#: Rounds of steps/sec samples per workload behind the regression gate.
GATE_SAMPLES = 9


def measure_workloads(engine: str, *, rounds: int = 1) -> dict:
    """Per-workload timings on ``engine``, plus an all-engines breakdown.

    The top-level numbers stay keyed to the requested ``--engine`` (that is
    what the regression gate compares), while ``engines`` records steps/sec
    for every registered engine so one results file shows the whole
    tree → flat → compiled trajectory.

    ``engine`` is timed first, in ``rounds`` rounds that each take one
    fresh sample of every workload in turn, so the samples of one round
    share the host's state; ``samples`` lists them per workload, and the
    recorded figures are the median round's.  The other engines follow,
    one sample each.
    """

    built = {name: build() for name, build in sorted(WORKLOADS.items())}
    timed: dict[str, list[tuple[int, float]]] = {name: [] for name in built}
    for _ in range(rounds):
        for name, (wasm, calls) in built.items():
            timed[name].append(measure_engine(wasm, calls, engine))

    results: dict[str, dict] = {}
    for name, (wasm, calls) in built.items():
        per_engine: dict[str, dict] = {}
        for candidate in available_engines():
            if candidate == engine:
                steps, best = sorted(timed[name], key=lambda sample: sample[1])[rounds // 2]
            else:
                steps, best = measure_engine(wasm, calls, candidate)
            per_engine[candidate] = {
                "steps": steps,
                "wall_s": round(best, 6),
                "steps_per_sec": round(steps / best) if best else None,
            }
        primary = per_engine[engine]
        results[name] = {
            "engine": engine,
            "calls": len(calls),
            "steps": primary["steps"],
            "instructions": wasm.instruction_count(),
            "wall_s": primary["wall_s"],
            "steps_per_sec": primary["steps_per_sec"],
            "samples": [round(steps / best) if best else None for steps, best in timed[name]],
            "engines": per_engine,
        }
    return results


def cross_check_workloads() -> tuple[dict, bool]:
    results: dict[str, dict] = {}
    all_ok = True
    for name, build in sorted(WORKLOADS.items()):
        wasm, calls = build()
        report = run_engine_cross_check(wasm, calls)
        pool_reports = run_pool_reset_cross_check(wasm, calls)
        pool_ok = all(entry.ok for entry in pool_reports.values())
        results[name] = {
            "ok": report.ok and pool_ok,
            "calls": len(calls),
            "outcomes": len(report.outcomes),
            "steps": report.baseline_steps,
            "pool_reset_ok": pool_ok,
            "detail": None
            if report.ok and pool_ok
            else "\n".join(
                [report.format_report()]
                + [f"pool-reset[{engine}]: {entry.format_report()}"
                   for engine, entry in pool_reports.items() if not entry.ok]
            ),
        }
        all_ok = all_ok and report.ok and pool_ok
    return results, all_ok


def check_regression(fresh: dict, baseline_path: Path, *, threshold: float = 0.25) -> tuple[dict, bool]:
    """Compare fresh steps/sec samples against the committed baseline.

    ``fresh`` maps each workload to its ``engine`` and round-aligned
    ``samples`` (:func:`measure_workloads`); a workload missing a sample is
    left out, like one the baseline lacks.  The verdict uses *normalized*
    ratios: in each round, every workload's sample/baseline ratio is divided
    by that round's median ratio across workloads, and a workload's verdict
    is the median of its normalized ratios over the rounds.  That makes the
    gate machine-speed independent — a uniformly slower runner, or a round
    the host slowed down as a whole, shifts every raw ratio but leaves the
    normalized ones at ~1.0 — while a regression that hits some workload
    harder than the rest drops its median normalized ratio below
    ``1 - threshold`` and fails.  One sample per workload was not enough: on
    a loaded 2-vCPU host the same code passed and failed from run to run.
    Median raw ratios are recorded alongside for same-machine comparisons
    (where a uniform drop *is* a finding).
    """

    if not baseline_path.exists():
        return {"checked": False, "reason": f"no baseline at {baseline_path}"}, True
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return {"checked": False, "reason": f"unreadable baseline: {exc}"}, True

    base_workloads = baseline.get("workloads") or {}
    ratios: dict[str, list[float]] = {}
    for name, entry in fresh.items():
        base = base_workloads.get(name, {})
        samples = entry.get("samples")
        if base.get("steps_per_sec") and samples and all(samples) and base.get("engine") == entry.get("engine"):
            ratios[name] = [sample / base["steps_per_sec"] for sample in samples]
    if not ratios:
        return {"checked": False, "reason": "no comparable workloads in baseline"}, True

    normalized: dict[str, list[float]] = {name: [] for name in ratios}
    round_medians = []
    for round_ratios in zip(*ratios.values()):
        ordered = sorted(round_ratios)
        median = ordered[len(ordered) // 2]
        round_medians.append(median)
        for name, ratio in zip(ratios, round_ratios):
            normalized[name].append(ratio / median if median else 1.0)
    detail: dict[str, dict] = {}
    all_ok = True
    for name in sorted(ratios):
        verdict = statistics.median(normalized[name])
        ok = verdict >= 1.0 - threshold
        detail[name] = {
            "ratio": round(statistics.median(ratios[name]), 3),
            "normalized": round(verdict, 3),
            "samples": fresh[name]["samples"],
            "ok": ok,
        }
        all_ok = all_ok and ok
    return {
        "checked": True,
        "threshold": threshold,
        "rounds": len(round_medians),
        "median_ratio": round(statistics.median(round_medians), 3),
        "workloads": detail,
    }, all_ok


def run_bench_files() -> tuple[dict, bool]:
    results: dict[str, dict] = {}
    all_ok = True
    for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(bench), "-q", "--benchmark-disable"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        wall = time.perf_counter() - start
        ok = proc.returncode == 0
        results[bench.name] = {
            "ok": ok,
            "wall_s": round(wall, 3),
            "returncode": proc.returncode,
        }
        if not ok:
            results[bench.name]["tail"] = proc.stdout.splitlines()[-15:]
            all_ok = False
        print(f"  {bench.name}: {'ok' if ok else 'FAIL'} ({wall:.1f}s)")
    return results, all_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="workload timings + engine cross-check only (skip the pytest benchmark files)")
    parser.add_argument("--engine", default="flat", choices=available_engines(),
                        help="engine used for the workload timings (default: flat)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_results.json"),
                        help="where to write the JSON results")
    parser.add_argument("--baseline", default=str(REPO_ROOT / "BENCH_results.json"),
                        help="committed results the regression gate compares against (smoke mode)")
    parser.add_argument("--no-regression-gate", action="store_true",
                        help="skip the steps/sec regression gate (e.g. on a machine unlike the baseline's)")
    parser.add_argument("--obs-jsonl", metavar="PATH", default=None,
                        help="export repro.obs telemetry (per-phase spans, request spans, "
                             "metrics snapshot) as schema-versioned JSONL to PATH")
    args = parser.parse_args(argv)

    sink = None
    if args.obs_jsonl:
        sink = JsonlSink(args.obs_jsonl)
        set_tracer(Tracer(sink=sink))
    try:
        return _run(args, sink)
    finally:
        if sink is not None:
            set_tracer(NOOP_TRACER)
            sink.close()
            print(f"wrote {sink.records_written} obs record(s) to {args.obs_jsonl}")


def _run(args, sink) -> int:

    results = {
        "schema": 1,
        "mode": "smoke" if args.smoke else "full",
        "python": sys.version.split()[0],
    }

    gated = args.smoke and not args.no_regression_gate
    print(f"workload timings on the {args.engine!r} engine ...")
    with get_tracer().span("bench.workloads", engine=args.engine):
        results["workloads"] = measure_workloads(args.engine, rounds=GATE_SAMPLES if gated else 1)
    for name, entry in results["workloads"].items():
        breakdown = ", ".join(
            f"{engine} {stats['steps_per_sec']:,}" for engine, stats in entry["engines"].items()
        )
        print(f"  {name}: {entry['steps_per_sec']:,} steps/s ({entry['steps']} steps, "
              f"{entry['calls']} calls; {breakdown})")

    regression_ok = True
    if gated:
        print(f"steps/sec regression gate vs committed baseline ({GATE_SAMPLES} rounds of "
              "samples per workload) ...")
        results["regression_gate"], regression_ok = check_regression(results["workloads"], Path(args.baseline))
        gate = results["regression_gate"]
        if not gate["checked"]:
            print(f"  skipped: {gate['reason']}")
        else:
            for name, entry in gate["workloads"].items():
                print(f"  {name}: {'ok' if entry['ok'] else 'REGRESSION'} "
                      f"(x{entry['ratio']} of baseline, x{entry['normalized']} normalized)")

    print("compile-stage timings (frontend typecheck / core typecheck / lower / decode) ...")
    with get_tracer().span("bench.compile_stages"):
        results["compile"] = measure_compile_stages()
    for name, entry in results["compile"].items():
        if name.startswith("synthetic_"):
            print(f"  {name}: typecheck {entry['typecheck_instrs_per_sec']:,} instrs/s, "
                  f"lower {entry['lower_wall_s']}s, decode {entry['decode_wall_s']}s")
    speedup = results["compile"]["checker_speedup_vs_structural"]
    print(f"  interned checker vs structural baseline: {speedup['speedup']}x "
          f"on {speedup['blocks']} blocks")

    print("incremental compile (one-function edit vs cold, per-function units) ...")
    with get_tracer().span("bench.incremental_compile"):
        results["compile"]["incremental"] = measure_incremental_compile()
    incremental = results["compile"]["incremental"]
    print(f"  {incremental['functions']} functions: cold {incremental['cold_wall_s']}s -> "
          f"edit {incremental['incremental_wall_s']}s ({incremental['speedup']}x)")

    print("runtime throughput (compile-once/run-many vs naive path) ...")
    with get_tracer().span("bench.runtime_throughput"):
        results["runtime"] = measure_runtime_throughput()
    runtime = results["runtime"]
    print(f"  instantiations/s: {runtime['uncached_instances_per_sec']:,} uncached -> "
          f"{runtime['cached_instances_per_sec']:,} cached ({runtime['cached_speedup']}x), "
          f"{runtime['pooled_resets_per_sec']:,} pooled resets/s")
    print(f"  requests/s: {runtime['requests_per_sec']:,} "
          f"({runtime['requests_ok']}/{runtime['requests']} ok, "
          f"{runtime['steps_per_request']} steps/request)")

    print("cluster serving (multi-process fan-out) + disk-cache warm start ...")
    with get_tracer().span("bench.cluster"):
        cluster_workers = 2 if args.smoke else 4
        results["cluster"] = {
            "throughput": measure_cluster_throughput(
                workers=cluster_workers,
                sessions=20 if args.smoke else 60,
                rounds=1 if args.smoke else 3,
            ),
            "disk_warm_start": measure_disk_warm_start(
                functions=100 if args.smoke else 600,
                warm_repeats=1 if args.smoke else 2,
            ),
        }
    throughput = results["cluster"]["throughput"]
    print(f"  {throughput['workers']} workers: {throughput['single_requests_per_sec']:,} rps single -> "
          f"{throughput['cluster_requests_per_sec']:,} rps cluster "
          f"({throughput['speedup']}x on {throughput['cpu_count']} CPUs)")
    warm = results["cluster"]["disk_warm_start"]
    print(f"  disk warm start: cold {warm['cold_wall_s']}s -> warm {warm['warm_wall_s']}s "
          f"({warm['speedup']}x, program {warm['program_cold']} -> {warm['program_warm']})")
    warm_ok = warm["program_cold"] == "miss" and warm["program_warm"] == "hit"
    if not warm_ok:
        print("  DISK WARM START FAILED: warm child did not hit the program cache")

    print("three-engine (tree/flat/compiled) differential + pool-reset cross-check ...")
    with get_tracer().span("bench.cross_check"):
        results["cross_check"], cross_ok = cross_check_workloads()
    for name, entry in results["cross_check"].items():
        print(f"  {name}: {'ok' if entry['ok'] else 'DIVERGENCE'}")
        if not entry["ok"]:
            print(entry["detail"])

    bench_ok = True
    if not args.smoke:
        print("benchmark files ...")
        results["benchmarks"], bench_ok = run_bench_files()

    results["ok"] = cross_ok and bench_ok and regression_ok and warm_ok
    if sink is not None:
        sink.emit_event("bench.done", mode=results["mode"], ok=results["ok"])
        sink.emit_metrics(default_registry())
    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output} (ok={results['ok']})")
    return 0 if results["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
