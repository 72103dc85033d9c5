"""The benchmark's own tests: every workload in tiny mode, traced and not.

Run from the repository root with ``python3 -m pytest perfbench -q``.  Each
run must be correct and must emit exactly the metric names and units
``BENCHMARK.json`` declares; the compare command must read the rows back.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCH = json.load(_handle)


def run_bench(workload: str, trace: int, out: str, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny", "--out", out],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_declared_workloads_match_the_implemented_ones():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_the_declared_metrics(workload, trace, tmp_path):
    out = str(tmp_path / "runs.jsonl")
    proc = run_bench(workload, trace, out)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name

    row = json.loads(open(out).read().splitlines()[-1])
    for field in ("cpu_count", "python", "git_commit", "source_digest", "seed", "workers"):
        assert field in row["host"]


def test_compare_reads_two_result_sets(tmp_path):
    rows = []
    for seed in (1, 2):
        row = {"workload": "serve_sessions", "trace": 0, "tiny": False,
               "end_to_end": {"latency_ms": 1.0 + seed / 100}}
        rows.append(json.dumps(row))
    before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
    before.write_text("\n".join(rows) + "\n")
    after.write_text(json.dumps({**json.loads(rows[0]), "end_to_end": {"latency_ms": 2.0}}) + "\n")
    proc = subprocess.run(
        [sys.executable, "perfbench/compare.py", str(before), str(after), "--jsonl"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    (result,) = [json.loads(line) for line in proc.stdout.splitlines()]
    assert result["verdict"] == "regressed" and proc.returncode == 1
    assert "no partner" in proc.stderr


def _judge(before: list[float], after: list[float], paired: bool = True) -> dict:
    sys.path.insert(0, HERE)
    import compare

    def rows(values):
        return [{"workload": "serve_sessions", "trace": 0, "time": float(i),
                 "host": {"seed": i if paired else None},
                 "end_to_end": {"latency_ms": value}} for i, value in enumerate(values)]

    (result,) = compare.compare(rows(before), rows(after), BENCH)
    return result


def test_compare_judges_pairs_by_seed():
    # The host drifts between the halves of the run: the pairs see the same
    # drift, so only the unpaired sets' spread hides the answer.
    before = [1.0] * 5 + [1.5] * 5
    assert _judge(before, before)["verdict"] == "same"
    assert _judge(before, before, paired=False)["verdict"] == "unresolved"
    faster = _judge(before, [value * 0.9 for value in before])
    assert (faster["wins"], faster["pairs"]) == (10, 10)
    steady = [1.0 + i / 1000 for i in range(10)]
    assert _judge(steady, [value * 0.9 for value in steady])["verdict"] == "improved"
    assert _judge(steady, [value * 1.3 for value in steady])["verdict"] == "regressed"


def test_blocks_scale_times_by_the_probes_around_them(monkeypatch):
    sys.path.insert(0, HERE)
    import hostspeed

    factors = iter([1.0, 3.0, 2.0])  # before block 0, after it, after block 1
    monkeypatch.setattr(hostspeed, "probe", lambda units=0: next(factors))
    blocks = hostspeed.Blocks()
    for latency in (0.02, 0.06, 0.04):  # block 0 closes at 0.12 s busy
        blocks.add(latency)
    blocks.add(0.05, ops=5, busy=0.1)
    blocks.close()
    assert blocks.samples() == [0.02, 0.06, 0.04, 0.05]
    # Block 0: median 0.04 s at factor 2; block 1: 0.05 s at factor 2.5.
    assert blocks.latency_s() == pytest.approx((0.04 / 2 + 0.05 / 2.5) / 2)
    assert blocks.rate() == pytest.approx((3 / 0.12 * 2 + 5 / 0.1 * 2.5) / 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("compile_cold", 0, str(tmp_path / "runs.jsonl"), cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
