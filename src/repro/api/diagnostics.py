"""Structured diagnostics for every compiled artifact.

Every :func:`repro.api.compile`/:func:`repro.api.lower` call records what the
pipeline actually did — wall time per stage (``frontend``, ``link``,
``program`` for the program store's lookup and filing, ``typecheck``,
``lower``, ``decode``, and ``translate`` when the compiled engine is
selected), which stages were served from the
:class:`~repro.runtime.ModuleCache` (hit/miss/bypass), which frontend
compiled each source module, and the optimizer's per-pass statistics — into
one :class:`Diagnostics` value attached to the artifact
(``CompiledProgram.diagnostics`` / ``LoweredModule.diagnostics``).  This
replaces the previous mix of prints and ad-hoc dicts with a structure that
benchmarks, services and tests can assert on; :meth:`Diagnostics.format_report`
renders the human-readable view on demand.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from ..obs.trace import get_tracer

#: Values of ``Diagnostics.cache[stage]``.
CACHE_EVENTS = ("hit", "miss", "bypass")

#: Canonical stage order, for reporting stages that recorded a cache event
#: but never ran under a timer (e.g. a ``typecheck`` bypass).
PIPELINE_STAGES = ("frontend", "link", "program", "typecheck", "lower", "decode", "translate")


@dataclass(frozen=True)
class StageTiming:
    """Wall time of one pipeline stage, in execution order."""

    stage: str
    seconds: float


@dataclass
class Diagnostics:
    """What one facade call did, stage by stage."""

    #: The validated config the call ran under.
    config: Optional[object] = None
    #: The artifact's canonical cache key (program content + config content).
    key: Optional[str] = None
    #: Resolved engine preference recorded on the artifact (``None`` = default).
    engine: Optional[str] = None
    #: Per-source-module frontend names (``{module name: frontend name}``).
    frontends: dict = field(default_factory=dict)
    #: Stage wall times, in execution order.
    stages: list = field(default_factory=list)
    #: Per-stage cache outcome: ``"hit"`` / ``"miss"`` / ``"bypass"``.
    cache: dict = field(default_factory=dict)
    #: Function-granular reuse per stage:
    #: ``{stage: {"reused": n, "compiled": m}}`` — how many of the module's
    #: functions were served from the per-function unit cache versus actually
    #: compiled when a module-level stage missed.
    units: dict = field(default_factory=dict)
    #: The :class:`repro.opt.OptimizationResult` (``None`` when ``O0`` or the
    #: artifact was a cache hit carrying its original stats).
    optimization: Optional[object] = None

    @contextmanager
    def stage(self, name: str):
        """Time a stage: ``with diagnostics.stage("lower") as span: ...``.

        Each stage also runs under a ``compile.<name>`` tracing span (yielded
        so callers can attach attributes, e.g. per-function unit counts), so
        an installed :class:`repro.obs.Tracer` sees the same boundaries the
        timings record (free when tracing is disabled).
        """

        with get_tracer().span(f"compile.{name}") as span:
            started = time.perf_counter()
            try:
                yield span
            finally:
                self.stages.append(StageTiming(name, time.perf_counter() - started))

    # -- derived views -----------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(timing.seconds for timing in self.stages)

    def seconds(self, stage: str) -> float:
        """Cumulative wall time of every timing recorded for ``stage``."""

        return sum(timing.seconds for timing in self.stages if timing.stage == stage)

    @property
    def cache_hit(self) -> bool:
        """Whether the compiled payload came entirely from the cache."""

        return self.cache.get("program") == "hit" or (
            bool(self.cache) and all(event == "hit" for event in self.cache.values())
        )

    @property
    def pass_stats(self) -> list:
        """Per-pass :class:`repro.opt.PassStats` (empty without optimization)."""

        return list(self.optimization.stats) if self.optimization is not None else []

    def format_report(self) -> str:
        lines = [f"compile: {self.total_seconds:.4f}s total"]
        if self.key is not None:
            lines[0] += f", key {self.key[:12]}…"
        if self.frontends:
            lines.append(
                "frontends: "
                + ", ".join(f"{name}<-{frontend}" for name, frontend in self.frontends.items())
            )
        timed = set()
        for timing in self.stages:
            timed.add(timing.stage)
            event = self.cache.get(timing.stage)
            suffix = f" [{event}]" if event else ""
            lines.append(f"  {timing.stage:<10} {timing.seconds:>9.4f}s{suffix}")
        # Stages that recorded a cache outcome without running under a timer
        # (a typecheck subsumed by lowering, an off-cache decode) still show,
        # so the report always accounts for the whole pipeline.
        for stage in sorted(self.cache, key=_stage_order):
            if stage not in timed and stage != "program":
                lines.append(f"  {stage:<10} {'—':>10} [{self.cache[stage]}]")
        for stage in sorted(self.units, key=_stage_order):
            counts = self.units[stage]
            lines.append(
                f"  {stage} units: {counts.get('reused', 0)} reused"
                f" / {counts.get('compiled', 0)} compiled"
            )
        if self.optimization is not None:
            lines.append(self.optimization.format_report())
        return "\n".join(lines)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-ready view of everything recorded on this object.

        Round-trips through :meth:`from_dict` at the dict level
        (``Diagnostics.from_dict(d).to_dict() == d``); the optimization
        entry keeps per-pass stats but drops the module reference.
        """

        optimization = None
        if self.optimization is not None:
            optimization = {
                "instructions_before": self.optimization.instructions_before,
                "instructions_after": self.optimization.instructions_after,
                "iterations": self.optimization.iterations,
                "stats": [
                    {"name": s.name, "runs": s.runs, "rewrites": s.rewrites, "seconds": s.seconds}
                    for s in self.optimization.stats
                ],
            }
        return {
            "config": dataclasses.asdict(self.config) if self.config is not None else None,
            "key": self.key,
            "engine": self.engine,
            "frontends": dict(self.frontends),
            "stages": [{"stage": t.stage, "seconds": t.seconds} for t in self.stages],
            "cache": dict(self.cache),
            "units": {stage: dict(counts) for stage, counts in self.units.items()},
            "optimization": optimization,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Diagnostics":
        """Rebuild a :class:`Diagnostics` from :meth:`to_dict` output."""

        config = data.get("config")
        if config is not None:
            from .config import CompileConfig

            config = CompileConfig(**config)
        optimization = data.get("optimization")
        if optimization is not None:
            from ..opt.manager import OptimizationResult, PassStats

            optimization = OptimizationResult(
                module=None,
                stats=[PassStats(**s) for s in optimization.get("stats", [])],
                iterations=optimization["iterations"],
                instructions_before=optimization["instructions_before"],
                instructions_after=optimization["instructions_after"],
            )
        return cls(
            config=config,
            key=data.get("key"),
            engine=data.get("engine"),
            frontends=dict(data.get("frontends") or {}),
            stages=[StageTiming(s["stage"], s["seconds"]) for s in data.get("stages") or []],
            cache=dict(data.get("cache") or {}),
            units={
                stage: dict(counts) for stage, counts in (data.get("units") or {}).items()
            },
            optimization=optimization,
        )


def _stage_order(stage: str) -> tuple:
    try:
        return (PIPELINE_STAGES.index(stage), stage)
    except ValueError:
        return (len(PIPELINE_STAGES), stage)
