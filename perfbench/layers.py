"""Per-layer timing for the traced run, from outside the program.

:class:`LayerTracer` replaces public functions of the program with timing
wrappers, at the place where their callers look them up (a module global,
or a method on its class), and puts the originals back on
:meth:`LayerTracer.uninstall`.  Nothing under ``src/`` changes.

Each wrapper is a span: its duration minus the duration of the wrapped
calls made inside it is the layer's *self* time.  Spans nest on one stack,
so the tracer assumes the traced code runs on one thread, which holds for
the compile pipeline (``compile_workers=1``) and for in-process serving.
"""

from __future__ import annotations

import builtins
import functools
import time
from collections import Counter, defaultdict

_MISSING = object()


class LayerTracer:
    """Self time and call counts per layer, plus free-form counters."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, name: str, layer: str, *, label: str = "", after=None,
             fallback=_MISSING) -> None:
        """Time every call of ``owner.name`` as ``layer``.

        ``label`` additionally counts calls under that name; ``after(tracer,
        args, result)`` runs after a successful call to record counters.
        ``fallback`` is the callable a missing module global resolves to
        (a builtin); uninstalling deletes the wrapper again.
        """

        saved = vars(owner).get(name, _MISSING)
        original = saved if saved is not _MISSING else getattr(owner, name, fallback)
        stack, self_s, total_s, calls = self._stack, self.self_s, self.total_s, self.calls
        perf = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_s[layer] += elapsed - stack.pop()
                total_s[layer] += elapsed
                calls[layer] += 1
                if label:
                    calls[label] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, name, wrapper)
        self._patches.append((owner, name, saved))

    def uninstall(self) -> None:
        for owner, name, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, saved)
        self._patches.clear()

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s), "total_s": dict(self.total_s),
            "calls": dict(self.calls), "counts": dict(self.counts),
        }

    def since(self, before: dict) -> dict:
        """Totals accumulated after ``before`` (a :meth:`snapshot`)."""

        now = self.snapshot()
        return {
            part: {key: value - before[part].get(key, 0) for key, value in now[part].items()}
            for part in now
        }


#: Compile layers, in pipeline order (self-time keys of the tracer).
COMPILE_LAYERS = (
    "frontends", "link", "typing", "lower", "opt", "validation", "decode",
    "pygen", "pycompile", "keying", "diskcache.get", "diskcache.put",
)
#: In-process serving layers.
SERVE_LAYERS = ("api", "batch", "pool.acquire", "pool.release", "engine")


def _count_source_functions(tracer, args, result) -> None:
    # ``Frontend.compile_source(self, source, config)``
    tracer.counts["frontends.functions"] += len(args[1].functions)


def _count_module_functions(tracer, args, result) -> None:
    # ``compile_ml_module(module)`` / ``compile_l3_module(module)``
    tracer.counts["frontends.functions"] += len(args[0].functions)


def _count_removed(tracer, args, result) -> None:
    tracer.counts["opt.instructions_removed"] += result.instructions_removed


def _count_disk_get(tracer, args, result) -> None:
    tracer.counts["diskcache.hits" if result is not None else "diskcache.misses"] += 1


def install_compile(tracer: LayerTracer) -> None:
    """Wrap the compile pipeline's layer entry points."""

    from repro.api import facade, frontends
    from repro.cluster.diskcache import DiskCache
    import repro.compilepipe as compilepipe
    import repro.core.typing as core_typing
    import repro.ffi.scenarios as scenarios
    import repro.runtime.cache as runtime_cache
    import repro.wasm.pygen as pygen
    import repro.wasm.validation as validation
    from repro.opt.manager import PassManager

    wrap = tracer.wrap
    # ``api.serve`` compiles through the facade's module global; its span
    # is the compile wall of the serving workloads' setup.
    wrap(facade, "compile", "api.compile")
    wrap(frontends.MLFrontend, "compile_source", "frontends", after=_count_source_functions)
    wrap(frontends.L3Frontend, "compile_source", "frontends", after=_count_source_functions)
    # The Fig. 9 scenario builder runs the frontends itself.
    wrap(scenarios, "compile_ml_module", "frontends", after=_count_module_functions)
    wrap(scenarios, "compile_l3_module", "frontends", after=_count_module_functions)
    wrap(runtime_cache.ModuleCache, "link", "link")
    wrap(core_typing, "check_module", "typing")
    wrap(runtime_cache, "lower_module", "lower")
    wrap(PassManager, "run", "opt", after=_count_removed)
    wrap(runtime_cache, "validate_module", "validation")
    wrap(validation, "validate_module", "validation")
    wrap(runtime_cache, "decode_module", "decode")
    wrap(runtime_cache, "adopt_decode", "decode")
    wrap(pygen, "decode_module", "decode")
    wrap(pygen, "translate_module", "pygen")
    # pygen calls the builtin ``compile``; a module global shadows it.
    wrap(pygen, "compile", "pycompile", fallback=builtins.compile)
    for name in ("typecheck_key", "lower_key", "optimize_key", "validate_key",
                 "decode_key", "translate_key"):
        wrap(compilepipe.FunctionUnitCache, name, "keying")
    wrap(compilepipe, "unit_key", "keying", label="keying.unit_key")
    wrap(runtime_cache, "content_key", "keying", label="keying.content_key")
    wrap(runtime_cache.ModuleCache, "program_key", "keying")
    wrap(DiskCache, "get", "diskcache.get", after=_count_disk_get)
    wrap(DiskCache, "put", "diskcache.put")


def install_serve(tracer: LayerTracer) -> None:
    """Wrap the in-process serving layers."""

    from repro.api.service import Service
    from repro.runtime.batch import BatchRunner
    from repro.runtime.pool import InstancePool, PooledInstance

    tracer.wrap(Service, "run_one", "api")
    tracer.wrap(BatchRunner, "run_one", "batch")
    tracer.wrap(InstancePool, "acquire", "pool.acquire")
    tracer.wrap(InstancePool, "release", "pool.release")
    tracer.wrap(PooledInstance, "invoke", "engine")


def install_dispatcher(tracer: LayerTracer) -> None:
    """Wrap the cluster dispatcher's parent-side submit."""

    from repro.cluster.dispatcher import Dispatcher

    tracer.wrap(Dispatcher, "submit", "dispatcher.submit")
