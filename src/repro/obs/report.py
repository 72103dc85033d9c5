"""Aggregate obs JSONL files into per-stage / per-request summary tables.

The interchange idiom is the one the ROADMAP's CLI item commits to: tools
emit schema-versioned JSONL (:mod:`repro.obs.export`), and downstream
consumers pipe the files through small aggregators.  This module is the
first such consumer::

    python -m repro.obs.report trace.jsonl            # summary tables
    python -m repro.obs.report w0.jsonl w1.jsonl      # cluster-wide merge
    python -m repro.obs.report --validate trace.jsonl # schema check only

Spans aggregate by name (count, total/mean/max duration, error and trap
counts); spans named ``request`` additionally break down per export (the
``Service``/``BatchRunner`` serving tier), with trap kinds; ``metric``
records fold through :func:`repro.obs.merge_snapshots` (so the per-worker
files a :class:`repro.cluster.ClusterService` exports sum instead of
overwriting each other), ``profile`` records print their hot-function
tables.  Every line is validated against the schema on the way in — the CLI
exits non-zero on the first bad record, which is exactly the gate the CI
obs smoke job needs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .export import SchemaError, read_records
from .metrics import merge_snapshots

__all__ = ["Summary", "summarize", "format_summary", "main"]


@dataclass
class _SpanAgg:
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    errors: int = 0
    traps: int = 0

    def add(self, record: dict) -> None:
        self.count += 1
        self.total_s += record["duration_s"]
        self.max_s = max(self.max_s, record["duration_s"])
        if record["status"] == "error":
            self.errors += 1
        elif record["status"] == "trap":
            self.traps += 1

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class Summary:
    """The aggregate view of one record stream."""

    records: int = 0
    spans: dict[str, _SpanAgg] = field(default_factory=dict)
    requests: dict[str, _SpanAgg] = field(default_factory=dict)
    trap_kinds: dict[str, int] = field(default_factory=dict)
    traces: set = field(default_factory=set)
    counters: dict[str, object] = field(default_factory=dict)
    gauges: dict[str, object] = field(default_factory=dict)
    histograms: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    profiles: list[dict] = field(default_factory=list)
    #: Per-function compile units by stage: ``{stage: {event: count}}``,
    #: aggregated from the ``compile.units.events`` counter labels.
    unit_events: dict[str, dict[str, int]] = field(default_factory=dict)


def summarize(records: Iterable[dict]) -> Summary:
    summary = Summary()
    metric_records: list[dict] = []
    for record in records:
        summary.records += 1
        kind = record["kind"]
        if kind == "span":
            summary.spans.setdefault(record["name"], _SpanAgg()).add(record)
            summary.traces.add(record["trace_id"])
            if record["name"] == "request":
                export = record["attrs"].get("export", "?")
                summary.requests.setdefault(export, _SpanAgg()).add(record)
                trap_kind = record["attrs"].get("trap_kind")
                if trap_kind:
                    summary.trap_kinds[trap_kind] = summary.trap_kinds.get(trap_kind, 0) + 1
        elif kind == "metric":
            metric_records.append(record)
        elif kind == "event":
            summary.events.append(record)
        else:  # profile
            summary.profiles.append(record)
    # Fold every metric record through merge_snapshots: a single file keeps
    # its values verbatim, while the per-worker exports of a cluster (one
    # JSONL per process, same metric names) sum into cluster-wide totals.
    for record in merge_snapshots(*([record] for record in metric_records)):
        if record["type"] == "counter":
            summary.counters[record["name"]] = record
            if record["name"] == "compile.units.events":
                summary.unit_events = _aggregate_unit_events(record)
        elif record["type"] == "gauge":
            summary.gauges[record["name"]] = record
        else:
            summary.histograms.append(record)
    return summary


def _aggregate_unit_events(record: dict) -> dict[str, dict[str, int]]:
    """``compile.units.events`` labels → ``{stage: {event: count}}``."""

    stages: dict[str, dict[str, int]] = {}
    for entry in record.get("labels") or []:
        labels = entry.get("labels") or {}
        stage = labels.get("stage", "?")
        event = labels.get("event", "?")
        per_stage = stages.setdefault(stage, {})
        per_stage[event] = per_stage.get(event, 0) + entry["value"]
    return stages


def format_summary(summary: Summary) -> str:
    lines = [f"{summary.records} record(s), {len(summary.traces)} trace(s)"]

    if summary.spans:
        lines.append("")
        lines.append(f"{'span':<24} {'count':>7} {'total s':>10} {'mean s':>10} {'max s':>10} {'err':>4} {'trap':>5}")
        for name, agg in sorted(summary.spans.items(), key=lambda item: -item[1].total_s):
            lines.append(
                f"{name:<24} {agg.count:>7} {agg.total_s:>10.4f} {agg.mean_s:>10.6f} "
                f"{agg.max_s:>10.6f} {agg.errors:>4} {agg.traps:>5}"
            )

    if summary.requests:
        lines.append("")
        lines.append(f"{'request export':<24} {'count':>7} {'total s':>10} {'mean s':>10} {'err':>4} {'trap':>5}")
        for export, agg in sorted(summary.requests.items(), key=lambda item: -item[1].count):
            lines.append(
                f"{export:<24} {agg.count:>7} {agg.total_s:>10.4f} {agg.mean_s:>10.6f} "
                f"{agg.errors:>4} {agg.traps:>5}"
            )
        if summary.trap_kinds:
            kinds = ", ".join(f"{kind}={count}" for kind, count in sorted(summary.trap_kinds.items()))
            lines.append(f"trap kinds: {kinds}")

    if summary.counters or summary.gauges:
        lines.append("")
        lines.append(f"{'metric':<40} {'value':>12}")
        for name, record in sorted(summary.counters.items()):
            lines.append(f"{name:<40} {record['value']:>12}")
            for entry in record.get("labels") or []:
                label = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
                lines.append(f"  {label:<38} {entry['value']:>12}")
        for name, record in sorted(summary.gauges.items()):
            lines.append(f"{name:<40} {record['value']:>12} (gauge)")

    if summary.unit_events:
        lines.append("")
        lines.append(f"{'compile units':<12} {'reused':>9} {'compiled':>9}")
        for stage, events in sorted(summary.unit_events.items()):
            lines.append(f"{stage:<12} {events.get('hit', 0):>9} {events.get('miss', 0):>9}")

    for record in summary.histograms:
        lines.append("")
        lines.append(
            f"histogram {record['name']}: count={record['count']} sum={record['sum']:.4f} "
            f"min={record['min']} max={record['max']}"
        )

    for record in summary.profiles:
        lines.append("")
        engine = record.get("engine") or "?"
        lines.append(
            f"profile ({engine}, interval {record['interval']}): {record['samples']} sample(s)"
        )
        lines.append(f"  {'function':<28} {'samples':>8} {'share':>7}")
        for entry in record["functions"]:
            lines.append(f"  {entry['function']:<28} {entry['samples']:>8} {entry['share']:>6.1%}")

    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize (or just validate) a repro.obs JSONL export.",
    )
    parser.add_argument("paths", nargs="+", metavar="path",
                        help="JSONL file(s) to read; several files (e.g. one "
                             "per cluster worker) aggregate into one summary")
    parser.add_argument("--validate", action="store_true",
                        help="validate every record against the schema and exit (no tables)")
    args = parser.parse_args(argv)

    records: list[dict] = []
    for path in args.paths:
        try:
            file_records = list(read_records(path))
        except (OSError, SchemaError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 1
        if args.validate:
            print(f"{path}: {len(file_records)} record(s), all valid "
                  f"(schema {_schema_of(file_records)})")
        records.extend(file_records)

    if args.validate:
        return 0

    summary = summarize(records)
    if len(args.paths) > 1:
        print(f"aggregated {len(args.paths)} file(s)")
    print(format_summary(summary))
    return 0


def _schema_of(records: list[dict]) -> object:
    return records[0]["schema"] if records else "n/a"


if __name__ == "__main__":
    raise SystemExit(main())
