"""Process-local runtime metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` names and owns instruments; the wired layers
(:mod:`repro.runtime.cache`, :mod:`repro.runtime.pool`,
:mod:`repro.runtime.batch`) record into the process-wide
:func:`default_registry`, and :meth:`MetricsRegistry.snapshot` renders
everything as plain JSON-able dicts — the form the
:class:`repro.obs.export.JsonlSink` emits and ``repro.obs.report``
aggregates.

Instruments are always on (there is no disabled mode to check): recording is
a dict update guarded by the GIL, cheap enough for the per-request and
per-cache-lookup call sites that use it — nothing here sits on the
per-instruction hot path, which is the :mod:`repro.obs.profile` sampler's
territory.  Counters support label breakdowns
(``counter.inc(stage="lower", event="hit")``): the unlabeled ``value`` is
always the total, with per-label-set counts kept alongside.

Naming note: this module is ``repro.obs.metrics`` — *runtime telemetry*.
The similarly named :mod:`repro.analysis.metrics` is the paper-statistics
module reproducing the Coq-development size table (§4.1); the two are
unrelated.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "label_key",
    "merge_snapshots",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (values in arbitrary units —
#: seconds for durations, steps for budgets); the last bucket is +inf.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
    500.0, 1000.0, 5000.0, 10000.0, 50000.0, 100000.0, 500000.0, 1000000.0,
)


def label_key(labels: dict) -> tuple:
    """The key :class:`Counter` files a label set under (prebuilt once by
    :meth:`Counter.inc_key` call sites that increment one label set often)."""

    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count, optionally broken down by labels."""

    kind = "counter"
    __slots__ = ("name", "help", "value", "_children")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0
        self._children: dict[tuple, int] = {}

    def inc(self, amount: int = 1, **labels) -> None:
        if labels:
            self.inc_key(label_key(labels), amount)
        else:
            self.value += amount

    def inc_key(self, key: tuple, amount: int = 1) -> None:
        """:meth:`inc` under a prebuilt :func:`label_key` (no per-call sort)."""

        self.value += amount
        self._children[key] = self._children.get(key, 0) + amount

    def labeled(self, **labels) -> int:
        """The count recorded under exactly this label set (0 if none)."""

        return self._children.get(label_key(labels), 0)

    def snapshot(self) -> dict:
        record = {"type": self.kind, "name": self.name, "value": self.value}
        if self._children:
            record["labels"] = [
                {"labels": dict(key), "value": count}
                for key, count in sorted(self._children.items())
            ]
        return record

    def reset(self) -> None:
        self.value = 0
        self._children.clear()


class Gauge:
    """A value that goes up and down (pool sizes, buffer depths)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "name": self.name, "value": self.value}

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """Fixed-bucket histogram: cumulative-style bucket counts + sum/min/max.

    ``buckets`` are the finite upper bounds, in increasing order; an implicit
    ``+inf`` bucket catches the rest.  ``observe`` is a bisect plus three
    attribute updates — no per-observation allocation.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram buckets must be non-empty and increasing, got {bounds!r}")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "name": self.name,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            # The catch-all bucket's bound is the string "+Inf" (not the
            # float) so snapshots stay strict JSON.
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(self.buckets + ("+Inf",), self.counts)
            ],
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = self.max = None


class MetricsRegistry:
    """A named set of instruments with get-or-create registration.

    Registration is lock-protected (threads may race to create the same
    instrument); recording on an instrument is not (a single bytecode-level
    dict/attr update under the GIL).  Re-registering a name with a different
    instrument type raises ``ValueError`` — one name, one meaning.
    """

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def _get_or_create(self, cls, name: str, *args, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = cls(name, *args, **kwargs)
                    self._instruments[name] = instrument
        if not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} is already registered as a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets)

    def get(self, name: str):
        return self._instruments.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._instruments))

    def snapshot(self) -> list[dict]:
        """Every instrument as a plain dict, sorted by name."""

        with self._lock:
            instruments = sorted(self._instruments.items())
        return [instrument.snapshot() for _, instrument in instruments]

    def reset(self) -> None:
        """Zero every instrument (tests; instruments stay registered)."""

        with self._lock:
            for instrument in self._instruments.values():
                instrument.reset()


_DEFAULT = MetricsRegistry("repro")


def default_registry() -> MetricsRegistry:
    """The process-wide registry the wired layers record into."""

    return _DEFAULT


# ---------------------------------------------------------------------------
# cross-process merging
# ---------------------------------------------------------------------------


def merge_snapshots(*snapshots: Sequence[dict]) -> list[dict]:
    """Combine per-process :meth:`MetricsRegistry.snapshot` lists into one.

    Registries are process-local, so a cluster run produces one snapshot per
    worker; this folds them into a single dispatcher-side view without
    double-counting: each input instrument contributes its value exactly
    once.  Counters sum (total and per-label-set breakdowns), gauges sum
    (each worker's level is an independent contribution — e.g. pool sizes
    add up across workers), histograms merge bucket-by-bucket (identical
    bounds required) with ``sum``/``count`` added and ``min``/``max``
    combined.  The same name appearing with two different instrument types
    raises ``ValueError``.
    """

    merged: dict[str, dict] = {}
    for snapshot in snapshots:
        for record in snapshot:
            name = record["name"]
            existing = merged.get(name)
            if existing is None:
                merged[name] = _copy_record(record)
            else:
                _merge_record(existing, record)
    return [merged[name] for name in sorted(merged)]


def _copy_record(record: dict) -> dict:
    copied = dict(record)
    if "labels" in copied:
        copied["labels"] = [
            {"labels": dict(entry["labels"]), "value": entry["value"]}
            for entry in copied["labels"]
        ]
    if "buckets" in copied:
        copied["buckets"] = [dict(bucket) for bucket in copied["buckets"]]
    return copied


def _merge_record(existing: dict, record: dict) -> None:
    if existing["type"] != record["type"]:
        raise ValueError(
            f"cannot merge metric {record['name']!r}: "
            f"{existing['type']} vs {record['type']}"
        )
    kind = record["type"]
    if kind in ("counter", "gauge"):
        existing["value"] += record["value"]
        if kind == "counter" and record.get("labels"):
            by_key = {label_key(entry["labels"]): entry for entry in existing.setdefault("labels", [])}
            for entry in record["labels"]:
                key = label_key(entry["labels"])
                target = by_key.get(key)
                if target is None:
                    target = {"labels": dict(entry["labels"]), "value": 0}
                    existing["labels"].append(target)
                    by_key[key] = target
                target["value"] += entry["value"]
            existing["labels"].sort(key=lambda entry: label_key(entry["labels"]))
        return
    if kind == "histogram":
        bounds = [bucket["le"] for bucket in existing["buckets"]]
        if bounds != [bucket["le"] for bucket in record["buckets"]]:
            raise ValueError(
                f"cannot merge histogram {record['name']!r}: bucket bounds differ"
            )
        for target, source in zip(existing["buckets"], record["buckets"]):
            target["count"] += source["count"]
        existing["count"] += record["count"]
        existing["sum"] += record["sum"]
        for field, pick in (("min", min), ("max", max)):
            values = [v for v in (existing[field], record[field]) if v is not None]
            existing[field] = pick(values) if values else None
        return
    raise ValueError(f"cannot merge metric {record['name']!r}: unknown type {kind!r}")
