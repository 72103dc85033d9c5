"""Compare two result sets of ``perfbench/run.py`` (the pm-diff idiom).

Usage, from the repository root::

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl [--jsonl]
    python3 perfbench/compare.py --run BEFORE_DIR AFTER_DIR --workload W [--pairs 10]

The first form reads the rows ``run.py --out FILE`` appended, one per run.
The second makes them: it runs the benchmark in two checkouts in
alternating pairs, one seed per pair, the first side swapping from pair to
pair, and writes ``before.jsonl`` and ``after.jsonl`` to ``--dir`` before
comparing them.  Each side runs its own ``perfbench/run.py``, so both
checkouts must hold the same benchmark code.

Rows of the two sets with the same workload, trace flag and seed form a
pair.  Pairs run alternately see the same host: on a shared machine whose
speed drifts for minutes at a time, the per-pair change cancels the drift
that the difference of two set medians keeps.  For every workload and
metric the command prints both sets' medians and quartiles, the change (the
median per-pair change, or the change of medians when nothing pairs), the
pairs the after side won, and a verdict.  End-to-end metrics (rows with
``trace`` 0) are judged against their bound in ``BENCHMARK.json``:

* ``regressed`` -- the change is worse than the bound;
* ``improved`` -- the after side won at least nine tenths of the pairs
  (ties count for neither) and the medians differ by more than the before
  set's quartile distance;
* ``unresolved`` -- the per-pair changes (or, unpaired, the before set)
  spread wider than the bound, unless every after run beats every before
  run;
* ``same`` -- otherwise.

Per-layer metrics (rows with ``trace`` 1) have no bound; they print with
their change and the verdict ``-``.  Warnings go to standard error when the
two sets' hosts differ, when rows do not pair, or when the sets were
collected one after the other instead of interleaved.  ``--jsonl`` prints
one JSON object per line instead of the table.  The exit code is 1 when a
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_FIELDS = ("cpu_count", "python", "machine")
WIN_SHARE = 0.9


def load_rows(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _kind(row: dict) -> str:
    return "per_layer" if row["trace"] else "end_to_end"


def collect(rows: list[dict], side: str) -> dict:
    """``{(workload, kind, metric): {seed: value}}``, kind ``end_to_end``
    or ``per_layer``; tiny-mode rows are skipped.  A row without a seed, or
    a seed seen before, is keyed by ``side`` and its position instead, so
    it pairs with nothing."""

    values: dict = {}
    for position, row in enumerate(rows):
        if row.get("tiny"):
            continue
        kind = _kind(row)
        for metric, value in row[kind].items():
            by_seed = values.setdefault((row["workload"], kind, metric), {})
            seed = row.get("host", {}).get("seed")
            by_seed[seed if seed is not None and seed not in by_seed else (side, position)] = value
    return values


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread}


def _worse(before: float, after: float, better: str):
    """How much worse ``after`` is than ``before``, as a share of
    ``before``; ``None`` when ``before`` is 0."""

    if not before:
        return None
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def judge(before: dict, after: dict, better: str, bound) -> dict:
    """Pairs, change, wins and verdict of one metric; ``before`` and
    ``after`` map seed to value."""

    b, a = summary(list(before.values())), summary(list(after.values()))
    pairs = [(before[seed], after[seed]) for seed in before if seed in after]
    changes = [w for w in (_worse(x, y, better) for x, y in pairs) if w is not None]
    wins = sum(1 for x, y in pairs if (y < x if better == "lower" else y > x))
    losses = sum(1 for x, y in pairs if (y > x if better == "lower" else y < x))
    if changes:
        worse = statistics.median(changes)
        spread = summary(changes)["q3"] - summary(changes)["q1"]
    else:
        worse = _worse(b["median"], a["median"], better)
        spread = b["spread"]
    out = {"before": b, "after": a, "pairs": len(pairs), "wins": wins, "losses": losses,
           "change": None if worse is None else (worse if better == "lower" else -worse),
           "pair_spread": spread if changes else None, "bound": bound}
    if bound is None:
        verdict = "-"
    elif worse is None:
        verdict = "same" if a["median"] == b["median"] else "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif (pairs and wins >= WIN_SHARE * len(pairs)
          and abs(a["median"] - b["median"]) > b["q3"] - b["q1"]):
        verdict = "improved"
    elif spread > bound and not _all_better(before.values(), after.values(), better):
        verdict = "unresolved"
    else:
        verdict = "same"
    out["verdict"] = verdict
    return out


def _all_better(before, after, better: str) -> bool:
    if better == "lower":
        return max(after) < min(before)
    return min(after) > max(before)


def compare(before_rows, after_rows, bench: dict) -> list[dict]:
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    before, after = collect(before_rows, "before"), collect(after_rows, "after")
    results = []
    for key in sorted(set(before) & set(after)):
        workload, kind, metric = key
        spec = specs.get(metric, {"better": "lower"})
        bound = spec.get("bound") if kind == "end_to_end" else None
        results.append({"workload": workload, "kind": kind, "metric": metric,
                        **judge(before[key], after[key], spec["better"], bound)})
    return results


def caveats(before_rows, after_rows, results) -> list[str]:
    """What makes the two sets, compared into ``results``, hard to compare."""

    found = []
    for field in HOST_FIELDS:
        b = {row.get("host", {}).get(field) for row in before_rows}
        a = {row.get("host", {}).get(field) for row in after_rows}
        if b != a:
            found.append(f"host {field} differs: before {sorted(map(str, b))}, after {sorted(map(str, a))}")
    times_b = [row["time"] for row in before_rows if "time" in row]
    times_a = [row["time"] for row in after_rows if "time" in row]
    if times_b and times_a and (max(times_b) < min(times_a) or max(times_a) < min(times_b)):
        found.append("the sets were collected one after the other, not interleaved: "
                     "a drift of the host's speed between them reads as a change")
    partial = {r["workload"] for r in results if r["pairs"] < max(r["before"]["n"], r["after"]["n"])}
    if partial:
        found.append(f"runs of {', '.join(sorted(partial))} have no partner with their seed in "
                     "the other set; the change is judged on the pairs, or on set medians without any")
    return found


def run_pairs(before_dir: str, after_dir: str, *, workload: str, pairs: int, seconds: float,
              first_seed: int, trace: int, out_dir: str) -> tuple[str, str]:
    """Runs the benchmark ``pairs`` times in each checkout, alternating
    which side goes first; returns the two row files."""

    os.makedirs(out_dir, exist_ok=True)
    files = {side: os.path.abspath(os.path.join(out_dir, f"{side}.jsonl")) for side in ("before", "after")}
    for path in files.values():
        open(path, "w").close()
    dirs = {"before": before_dir, "after": after_dir}
    for index in range(pairs):
        seed = first_seed + index
        order = ("before", "after") if index % 2 == 0 else ("after", "before")
        for side in order:
            command = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                       "--out", files[side]]
            proc = subprocess.run(command, cwd=dirs[side], capture_output=True, text=True)
            if proc.returncode:
                raise SystemExit(f"compare: {side} run failed (seed {seed}):\n{proc.stderr[-2000:]}")
            print(f"pair {index + 1}/{pairs} seed {seed}: {side} done", file=sys.stderr)
    return files["before"], files["after"]


def _cell(stats: dict) -> str:
    return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"


def format_table(results: list[dict]) -> str:
    lines = [f"{'workload':<15} {'metric':<36} {'before median [q1, q3]':>34} "
             f"{'after median [q1, q3]':>34} {'change':>8} {'won':>6} {'bound':>6}  verdict"]
    for r in results:
        change = f"{r['change']:+.1%}" if r["change"] is not None else "n/a"
        won = f"{r['wins']}/{r['pairs']}" if r["pairs"] else "-"
        bound = f"{r['bound']:.0%}" if r["bound"] is not None else "-"
        lines.append(
            f"{r['workload']:<15} {r['metric']:<36} {_cell(r['before']):>34} "
            f"{_cell(r['after']):>34} {change:>8} {won:>6} {bound:>6}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="BEFORE.jsonl, or with --run the before checkout")
    parser.add_argument("after", help="AFTER.jsonl, or with --run the after checkout")
    parser.add_argument("--bench", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--jsonl", action="store_true", help="one JSON object per line")
    parser.add_argument("--run", action="store_true", help="run alternating pairs first")
    parser.add_argument("--workload", help="with --run: the workload to run")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, help="with --run: default run_seconds")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", default=os.path.join(ROOT, ".perfbench", "pairs"),
                        help="with --run: where the two row files go")
    args = parser.parse_args(argv)
    with open(args.bench) as handle:
        bench = json.load(handle)
    before, after = args.before, args.after
    if args.run:
        if not args.workload:
            parser.error("--run needs --workload")
        before, after = run_pairs(
            before, after, workload=args.workload, pairs=args.pairs,
            seconds=args.seconds or bench["run_seconds"], first_seed=args.first_seed,
            trace=args.trace, out_dir=args.dir,
        )
    before_rows, after_rows = load_rows(before), load_rows(after)
    results = compare(before_rows, after_rows, bench)
    for message in caveats(before_rows, after_rows, results):
        print(f"warning: {message}", file=sys.stderr)
    if args.jsonl:
        for result in results:
            print(json.dumps(result))
    else:
        print(format_table(results))
    return 1 if any(r["verdict"] == "regressed" for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
