"""The host's speed, probed between timed samples, and times scaled by it.

The benchmark runs on shared machines whose speed changes while it runs.
On the 2-vCPU x86_64 virtual machine it was tuned on, a fixed Python loop
switched every few tens of milliseconds between a fast state and one up to
twice as slow, and the share of time spent slow drifted over seconds and
minutes: the medians of 6 s windows of the same loop ranged over 1.7x.  A
20 s run then lands in one such stretch, and its median moves with it (over
ten runs, the quartile distance of a compile time reached half its median).
CPU time moves too, so the slowdown is not time the process was descheduled.

So the workloads time their samples in *blocks* and run :func:`probe`, a
fixed piece of pure-Python work that is not part of the program, before and
after each block.  The probe time around a block, against the probe's time
on the reference host, is the host's speed factor for that block, and a
block's times are divided by it (its rates multiplied).  A reported time is
therefore the time the sample would take on the reference host, at
:data:`REFERENCE_UNIT_S` per probe unit.  The program's own speed still
moves it one to one; the host's drift cancels, as far as the program and
the probe slow down alike.

They do not slow down exactly alike.  Over five runs on that machine, the
raw cold-compile median ranged 1.78-2.22 s while the probe factor ranged
0.78-1.07: the probe swings further than a compile, and the scaled figure
ranged 2.00-2.24 s.  A cluster round trip, mostly wake-ups across
processes, swung further than the probe in one run of six (raw +45%,
probe +19%) and less in the others.  The scaled figures still spread about
half as much as the raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

#: One probe unit's time on the reference host (the machine above, the
#: median over a minute).
REFERENCE_UNIT_S = 0.00075
#: The probe after a block runs about this share of the block's time, so a
#: long sample is judged by a long probe.
PROBE_SHARE = 0.15
#: A block closes after at least this much timed work.
BLOCK_S = 0.1
#: Probe length bounds, in units.
MIN_UNITS = 20
MAX_UNITS = 600


class _Node:
    __slots__ = ("key", "label", "children")

    def __init__(self, key: int, label: str, children: tuple) -> None:
        self.key = key
        self.label = label
        self.children = children


def _build(depth: int, seed: int) -> _Node:
    if depth == 0:
        return _Node(seed, f"leaf{seed % 97}", ())
    return _Node(seed, "node", tuple(_build(depth - 1, seed * 3 + i) for i in range(3)))


def _walk(node: _Node, memo: dict) -> int:
    total = memo.get(node.label, 0) + node.key % 13
    memo[node.label] = total
    for child in node.children:
        total += _walk(child, memo)
    return total


def _unit() -> int:
    """One probe unit: build a small tree of objects and walk it with a dict
    memo, the shape of a compiler pass, then format and hash some strings."""

    memo: dict = {}
    total = _walk(_build(5, 1), memo)
    parts = [f"{key}:{value}" for key, value in memo.items()]
    return total + len(",".join(parts)) + sum(hash(part) & 7 for part in parts)


def probe(units: int = MIN_UNITS) -> float:
    """The speed factor now: the time of ``units`` probe units over their
    time on the reference host (above 1 means slower)."""

    start = time.perf_counter()
    for _ in range(units):
        _unit()
    return (time.perf_counter() - start) / (units * REFERENCE_UNIT_S)


def probe_after(busy_s: float) -> float:
    """:func:`probe` sized to follow ``busy_s`` seconds of timed work."""

    units = math.ceil(busy_s * PROBE_SHARE / REFERENCE_UNIT_S)
    return probe(min(MAX_UNITS, max(MIN_UNITS, units)))


def timed(function) -> tuple:
    """``(result, wall, factor)``: ``function()``'s result, its wall time,
    and the speed factor probed before and after it."""

    before = probe(2 * MIN_UNITS)
    start = time.perf_counter()
    result = function()
    wall = time.perf_counter() - start
    return result, wall, (before + probe_after(wall)) / 2


class Blocks:
    """Timed samples grouped into blocks, each between two probes.

    Creating one probes before the first block.  :meth:`add` records one
    sample: its latency, the operations it did and the busy time they took
    (the latency, unless the caller's loop did more around it).  Once a
    block holds :data:`BLOCK_S` of busy time, a probe closes it and opens
    the next.  When the timed work pauses, :meth:`close` ends the open block
    and :meth:`resume` probes again before it restarts.
    """

    def __init__(self) -> None:
        self.count = 0
        #: Closed blocks: (latencies, operations, busy seconds, factor).
        self.blocks: list[tuple[list[float], int, float, float]] = []
        self._latencies: list[float] = []
        self._ops = 0
        self._busy = 0.0
        self._before = probe()  # the factor probed before the open block

    def add(self, latency: float, ops: int = 1, busy: float | None = None) -> None:
        self.count += 1
        self._latencies.append(latency)
        self._ops += ops
        self._busy += latency if busy is None else busy
        if self._busy >= BLOCK_S:
            self._close_block()

    def _close_block(self) -> None:
        after = probe_after(self._busy)
        self.blocks.append((self._latencies, self._ops, self._busy, (self._before + after) / 2))
        self._before = after
        self._latencies, self._ops, self._busy = [], 0, 0.0

    def close(self) -> "Blocks":
        if self._latencies:
            self._close_block()
        return self

    def resume(self) -> None:
        self._before = probe()

    def samples(self) -> list[float]:
        """Every latency as measured, unscaled."""

        return [value for latencies, _, _, _ in self.blocks for value in latencies]

    def latency_s(self) -> float:
        """The median over blocks of each block's median latency, scaled
        to the reference host."""

        return statistics.median(
            statistics.median(latencies) / factor for latencies, _, _, factor in self.blocks
        )

    def raw_latency_s(self) -> float:
        """:meth:`latency_s` unscaled, for the result row."""

        return statistics.median(statistics.median(latencies) for latencies, _, _, _ in self.blocks)

    def median_factor(self) -> float:
        return statistics.median(factor for _, _, _, factor in self.blocks)

    def rate(self) -> float:
        """The median over blocks of each block's operations per busy
        second, scaled to the reference host."""

        return statistics.median(ops / busy * factor for _, ops, busy, factor in self.blocks)
