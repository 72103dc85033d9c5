"""The compile-once / run-many execution service (the serving layer).

The ROADMAP's north star is heavy traffic; the naive path re-pays the whole
pipeline — link, type-directed lowering, optimization, flat decode,
instantiation — on *every* run.  This package is the standard serving
architecture for that shape of workload:

* :class:`ModuleCache` (:mod:`repro.runtime.cache`) — content-hash-keyed
  memoization of the pipeline (typecheck, link and program stores over
  per-function units), so a program compiles once and its
  :class:`CompiledProgram` artifacts are shared by every instance;
* :class:`InstancePool` (:mod:`repro.runtime.pool`) — recycles instances by
  resetting memory/globals/tables/steps to their post-initialization image
  instead of re-instantiating, bit-identically to a fresh instance (enforced
  by :func:`repro.opt.run_pool_reset_cross_check`);
* :class:`BatchRunner` (:mod:`repro.runtime.batch`) — drives request streams
  (single invocations or stateful :class:`Session` call scripts) over the
  pool with per-request ``max_steps`` budgets and per-request trap
  isolation.

:func:`scenario_service` wires all three up for an
:class:`repro.ffi.InteropScenario` (or one of the ``ffi.scenarios``
builders), running the linked program's ``_init`` exports as the pooled
baseline.
"""

from __future__ import annotations

from typing import Optional

from .batch import BatchReport, BatchRunner, Request, RequestOutcome, Session
from .cache import CacheStats, CompiledProgram, ModuleCache, content_key
from .pool import InstanceImage, InstancePool, PooledInstance, PoolStats

_DEFAULT_CACHE: Optional[ModuleCache] = None


def default_cache() -> ModuleCache:
    """The process-wide :class:`ModuleCache` (created on first use)."""

    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = ModuleCache()
    return _DEFAULT_CACHE


def run_initializers_setup(interpreter, instance) -> None:
    """Pool ``setup`` hook running every ``<module>._init`` export, mirroring
    :meth:`repro.ffi.WasmProgramInstance.run_initializers`."""

    for export in instance.exports:
        if export.endswith("._init"):
            interpreter.invoke(instance, export)


def scenario_service(
    scenario,
    *,
    config=None,
    cache: Optional[ModuleCache] = None,
) -> BatchRunner:
    """A ready-to-serve :class:`BatchRunner` for an FFI interop scenario.

    ``scenario`` is an :class:`repro.ffi.InteropScenario`, one of the
    ``repro.ffi.scenarios`` builders (called with no arguments), or anything
    :func:`repro.api.compile` accepts.  The scenario is compiled and pooled
    via :func:`repro.api.serve` under ``config`` (a
    :class:`repro.api.CompileConfig`; the default policy is the process-wide
    shared cache, and ``cache=`` pins an explicit one); the pool's baseline
    image includes the program's ``_init`` exports.
    """

    from ..api import serve

    return serve(scenario, config, cache=cache).runner


__all__ = [
    "BatchReport",
    "BatchRunner",
    "CacheStats",
    "CompiledProgram",
    "InstanceImage",
    "InstancePool",
    "ModuleCache",
    "PoolStats",
    "PooledInstance",
    "Request",
    "RequestOutcome",
    "Session",
    "content_key",
    "default_cache",
    "run_initializers_setup",
    "scenario_service",
]
