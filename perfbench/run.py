"""The repository benchmark: compile and serving, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 10 --trace 0

Workloads (see :mod:`workloads`): ``compile_cold``, ``compile_edit``,
``serve_sessions``, ``serve_cluster``.  The seed picks
the generated inputs; every output is checked against a plain-Python
oracle.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics, their times (``setup_s``, ``latency_ms``,
``throughput_per_s``) scaled to a reference host speed by the probes of
:mod:`hostspeed`; with ``--trace 1`` the run repeats its
timed phase with the layer wrappers of :mod:`layers` installed and reports
the per-layer metrics instead.  Each run also appends one row, with its
host (``cpu_count``, Python version, git commit or source digest, seed,
worker count), to ``--out`` for ``perfbench/compare.py``.

``--tiny`` shrinks every input so all workloads finish in seconds; the
benchmark's own test (``python3 -m pytest perfbench``) uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import hostspeed  # noqa: E402  (this directory is on sys.path when run as a script)

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "frontends.self_s": ("s", "lower"),
    "frontends.functions": ("count", "lower"),
    "link.self_s": ("s", "lower"),
    "typing.self_s": ("s", "lower"),
    "typing.calls": ("count", "lower"),
    "lower.self_s": ("s", "lower"),
    "opt.self_s": ("s", "lower"),
    "opt.instructions_removed": ("count", "higher"),
    "validation.self_s": ("s", "lower"),
    "decode.self_s": ("s", "lower"),
    "pygen.emit_s": ("s", "lower"),
    "pygen.pycompile_s": ("s", "lower"),
    "pygen.pycompile_calls": ("count", "lower"),
    "keying.self_s": ("s", "lower"),
    "keying.unit_key_calls_per_function": ("count", "lower"),
    "keying.content_key_calls": ("count", "lower"),
    "units.reuse_ratio": ("ratio", "higher"),
    "diskcache.get_s": ("s", "lower"),
    "diskcache.put_s": ("s", "lower"),
    "diskcache.hit_ratio": ("ratio", "higher"),
    "diskcache.bytes": ("bytes", "lower"),
    "wasm.functions": ("count", "lower"),
    "wasm.instructions": ("count", "lower"),
    "compile.wall_s": ("s", "lower"),
    "compile.unattributed_s": ("s", "lower"),
    "compile.attributed_share": ("ratio", "higher"),
    "pool.acquire_us": ("us", "lower"),
    "pool.release_us": ("us", "lower"),
    "pool.created": ("count", "lower"),
    "engine.invoke_us": ("us", "lower"),
    "engine.steps": ("count", "lower"),
    "engine.steps_per_s": ("1/s", "higher"),
    "batch.self_us": ("us", "lower"),
    "api.self_us": ("us", "lower"),
    "serve.unattributed_us": ("us", "lower"),
    "dispatcher.submit_us": ("us", "lower"),
    "cluster.ipc_overhead_ms": ("ms", "lower"),
    "cluster.backlog_max": ("count", "lower"),
    "cluster.worker_share_max": ("ratio", "lower"),
    "loadgen.lateness_p99_ms": ("ms", "lower"),
    "cluster.open_loop_p50_ms": ("ms", "lower"),
    "cluster.open_loop_p99_ms": ("ms", "lower"),
    "cluster.open_loop_samples": ("count", "higher"),
    "latency.tail_ms": ("ms", "lower"),
    "latency.tail_percentile": ("pct", "higher"),
    "latency.samples": ("count", "higher"),
    "trace.overhead_ms": ("ms", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench", "runs.jsonl"),
                        help="JSONL file each run appends its result row to")
    # Internal: print one setup sample and exit, see fresh_setup.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_benchmark():
    """Import the program from this checkout's ``src``, and only from there,
    then the workloads; returns the ``workloads`` module."""

    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program at {os.path.join(SRC, 'repro')}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import workloads

    return workloads


def fresh_setup(args) -> float:
    """One setup sample taken in a fresh interpreter: importing the program
    and the benchmark, then the workload's setup, scaled to the reference
    host.  A fresh interpreter pays every one-time cost again, so work moved
    out of the timed phase into first use shows here."""

    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(command, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def host_record(seed: int, workers: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + b"\0" + handle.read())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": os.uname().machine,
        "git_commit": commit,
        "source_digest": digest.hexdigest()[:16],
        "seed": seed,
        "workers": workers,
    }


def peak_rss_mb() -> float:
    """This process's peak RSS: the whole workload, except the cluster
    workers.

    Their peaks cannot be told apart: Linux charges a child spawned from a
    large parent with the parent's high-water mark (``ru_maxrss`` of
    ``RUSAGE_CHILDREN`` read twice this process's own peak).
    """

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, imported, factor = hostspeed.timed(import_benchmark)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tmp_parent = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=tmp_parent)
    run = workloads.Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                        tiny=args.tiny, tmp_root=tmp_root)
    try:
        if args.setup_only:
            workloads.timed_setup(run, lambda: workloads.SETUP_FACTORIES[args.workload](run)).close()
        else:
            workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    setup_s = [imported / factor + run.setup_s[0]]
    if args.setup_only:
        print(setup_s[0])
        return 0
    if not args.trace:
        setup_s += [fresh_setup(args) for _ in range(run.setups - 1)]

    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "latency_ms": run.latency_s * 1e3,
        "throughput_per_s": run.throughput,
    }
    if args.trace:
        metrics = {name: {"value": run.layer[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    host = host_record(args.seed, run.info.get("workers", 1))
    row = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds, "time": time.time(),
        "tiny": args.tiny, "host": host, "samples": len(run.latencies),
        "attempted": run.attempted, "failed": len(run.errors),
        "setup_samples_s": setup_s,
        "end_to_end": end_to_end, "per_layer": run.layer, "info": run.info,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as handle:
        handle.write(json.dumps(row) + "\n")

    for message in run.errors[:10]:
        print(f"error: {message}")
    print(f"host: {json.dumps(host)}")
    if args.trace:
        for name, metric in metrics.items():
            print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload}: {len(run.latencies)} samples, error_rate "
          f"{len(run.errors) / max(run.attempted, 1):.4f} ({len(run.errors)}/{run.attempted})")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": max(run.attempted, 1),
        "failed": len(run.errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
