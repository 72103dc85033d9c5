"""The configuration-driven compile/run facade (the stable public surface).

One configuration object and three functions replace the per-entry-point
keyword sprawl of the lower layers:

* :class:`CompileConfig` — a frozen, validated description of a compile
  (named ``O0``/``O1``/``O2`` optimization levels expanding to
  :mod:`repro.opt.pipelines`, engine preference, memory pages, cache policy,
  step budgets, validation toggles).  Its :meth:`~CompileConfig.content_key`
  is the canonical content hash the :class:`repro.runtime.ModuleCache` keys
  on.
* :func:`compile` — any mix of registered frontends (``ml``, ``l3``,
  ``richwasm``; see :mod:`repro.api.frontends`) in, one shareable
  :class:`~repro.runtime.CompiledProgram` out, with structured
  :class:`Diagnostics` attached.  :func:`lower` runs the same pipeline and
  stops before decoding, returning the program's ``LoweredModule``.
* :func:`serve` — wrap a compiled program (or raw sources) in a
  :class:`Service`: instance pool + batch runner + lenient-but-checked
  export resolution.

These are the only entry points that lower a program; the ml/l3 codegen
functions return RichWasm, and ``lower_module`` and ``ModuleCache`` are the
stages the pipeline runs, taking their settings as one ``config=``
:class:`CompileConfig`.
"""

from .config import CACHE_POLICIES, CompileConfig, ConfigError
from .diagnostics import CACHE_EVENTS, Diagnostics, StageTiming
from .facade import compile, lower, serve
from .frontends import (
    Frontend,
    L3Frontend,
    MLFrontend,
    RichWasmFrontend,
    available_frontends,
    detect_frontend,
    register_frontend,
    resolve_frontend,
)
from .service import Service, ServiceStats, resolve_export

__all__ = [
    "CACHE_EVENTS",
    "CACHE_POLICIES",
    "CompileConfig",
    "ConfigError",
    "Diagnostics",
    "Frontend",
    "L3Frontend",
    "MLFrontend",
    "RichWasmFrontend",
    "Service",
    "ServiceStats",
    "StageTiming",
    "available_frontends",
    "compile",
    "detect_frontend",
    "lower",
    "register_frontend",
    "resolve_frontend",
    "resolve_export",
    "serve",
]
