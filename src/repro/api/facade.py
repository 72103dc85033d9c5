"""``repro.api.compile`` / ``repro.api.lower`` / ``repro.api.serve``.

The single configuration-driven entry surface over the whole stack: sources
(any mix of registered frontends, or pre-built scenario/program objects) plus
one :class:`CompileConfig` in; a shareable
:class:`~repro.runtime.CompiledProgram` (or a :class:`Service` ready to take
traffic) with :class:`Diagnostics` attached out.  :func:`compile` and
:func:`lower` run one pipeline (:func:`_pipeline`) and share its program
store; ``Program.instantiate_wasm`` and ``scenario_service`` are thin
wrappers over these functions.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import Optional, Union

from ..lower import AnnotationStreams, LoweredModule, lower_module, rechecked_functions
from ..obs.metrics import default_registry
from ..obs.trace import get_tracer
from ..runtime.cache import CompiledProgram, ModuleCache
from .config import CompileConfig, ConfigError
from .diagnostics import Diagnostics
from .frontends import detect_frontend, resolve_frontend
from .service import Service

# Same instrument the ModuleCache stages record hits/misses into; the facade
# owns the bypass decisions, so it records them.
_CACHE_EVENTS = default_registry().counter(
    "runtime.cache.events", "ModuleCache stage lookups by stage/outcome"
)


def _bypass(diagnostics: Diagnostics, *stages: str) -> None:
    for stage in stages:
        diagnostics.cache[stage] = "bypass"
        _CACHE_EVENTS.inc(stage=stage, event="bypass")


def _record_units(diagnostics: Diagnostics, cache: ModuleCache, before: dict, span=None) -> int:
    """Fold the per-function unit reuse since ``before`` (a
    ``cache.units.snapshot()``) into ``diagnostics.units``, attach the
    aggregate counts to the stage's tracing span, and return how many units
    were compiled."""

    reused = compiled = 0
    for stage, counts in cache.units.delta(before).items():
        merged = diagnostics.units.setdefault(stage, {"reused": 0, "compiled": 0})
        merged["reused"] += counts["reused"]
        merged["compiled"] += counts["compiled"]
        reused += counts["reused"]
        compiled += counts["compiled"]
    if span is not None and (reused or compiled):
        span.set_attr(units_reused=reused, units_compiled=compiled)
    return compiled


def compile(sources, config: Union[CompileConfig, str, int, dict, None] = None, *,
            cache: Optional[ModuleCache] = None, **overrides) -> CompiledProgram:
    """Compile any mix of sources into one shareable :class:`CompiledProgram`.

    ``sources`` may be:

    * a ``{name: source}`` dict, where each source is an
      :class:`~repro.ml.MLModule`, an :class:`~repro.l3.L3Module`, a RichWasm
      :class:`~repro.core.syntax.Module`, or an explicit
      ``(frontend_name, source)`` pair — frontends may be freely mixed; the
      compiled modules are statically linked into one program;
    * a single source module (dispatched by type; a bare RichWasm ``Module``
      is treated as already linked and passed through un-namespaced);
    * an :class:`repro.ffi.InteropScenario`, a :class:`repro.ffi.Program`,
      or a zero-argument builder returning any of the above.

    ``config`` is coerced via :meth:`CompileConfig.of` (``None``, a config,
    an opt level like ``"O2"``, or a field dict) and merged with keyword
    ``overrides``; ``cache`` optionally pins an explicit
    :class:`~repro.runtime.ModuleCache`, overriding the config's cache
    policy.  The returned program carries :class:`Diagnostics` (stage
    timings, per-stage cache events, per-pass optimizer stats) and is keyed
    by the canonical content hash of the linked program plus
    :meth:`CompileConfig.content_key`.
    """

    config = CompileConfig.of(config, **overrides)
    with get_tracer().span(
        "api.compile", opt_level=config.opt_level, cache_policy=config.cache
    ) as span:
        program = _pipeline(sources, config, cache, decode=True)
        # Read the stored key, not the lazy property: off the cache paths the
        # program hash is computed only if someone actually asks for it.
        if program.cached_key is not None:
            span.set_attr(key=program.cached_key)
        span.set_attr(cache_hit=program.diagnostics.cache.get("program") == "hit")
        return program


def lower(sources, config: Union[CompileConfig, str, int, dict, None] = None, *,
          cache: Optional[ModuleCache] = None, **overrides) -> LoweredModule:
    """Like :func:`compile`, but stop before decoding: a ``LoweredModule``.

    The same pipeline and the same program-store entry as :func:`compile`
    (a lowering filed here is a program hit there, and the reverse); the
    result is a copy of the program's lowered module carrying this call's
    :class:`Diagnostics`.  To lower one unlinked module, pass its RichWasm,
    e.g. ``lower(compile_ml_module(m), config)``.
    """

    config = CompileConfig.of(config, **overrides)
    with get_tracer().span(
        "api.lower", opt_level=config.opt_level, cache_policy=config.cache
    ):
        program = _pipeline(sources, config, cache, decode=False)
        return replace(program.lowered, engine=program.engine, diagnostics=program.diagnostics)


def serve(compiled, config: Union[CompileConfig, str, int, dict, None] = None, *,
          cache: Optional[ModuleCache] = None, **overrides) -> Service:
    """Wrap a compiled program (or raw sources) in a ready-to-run service.

    Accepts a :class:`CompiledProgram` (its recorded config is the default)
    or anything :func:`compile` accepts.  The service pools instances
    (``config.pool_size``), runs every ``<module>._init`` export as the
    pooled baseline, and serves requests with per-request budgets and trap
    isolation (see :class:`Service`).
    """

    from ..runtime import run_initializers_setup

    with get_tracer().span("api.serve"):
        return _serve(compiled, config, cache, overrides, run_initializers_setup)


def _serve(compiled, config, cache, overrides, run_initializers_setup) -> Service:
    cache_obj: Optional[ModuleCache]
    if isinstance(compiled, CompiledProgram):
        base = config if config is not None else compiled.config
        config = CompileConfig.of(base, **overrides)
        if (
            compiled.config is not None
            and config.content_key() != compiled.config.content_key()
        ):
            raise ConfigError(
                "serve: the config's compile-relevant fields (opt_level, memory_pages, "
                f"link_name) conflict with the compiled program's "
                f"({config.opt_level}/{config.memory_pages}/{config.link_name!r} vs "
                f"{compiled.config.opt_level}/{compiled.config.memory_pages}/"
                f"{compiled.config.link_name!r}); recompile with repro.api.compile "
                "instead of serving a mismatched artifact"
            )
        cache_obj = _check_cache(cache)
    else:
        config = CompileConfig.of(config, **overrides)
        cache_obj = _resolve_cache(config, cache)
        compiled = compile(compiled, config, cache=cache_obj)
    if config.workers > 1:
        # Multi-process serving: the parent has already compiled (populating
        # the shared DiskCache when cache_dir is set); the cluster ships the
        # linked program to each worker and dispatches across them.
        from ..cluster import ClusterService

        return ClusterService(compiled, config, cache=cache_obj)
    pool_kwargs = dict(
        max_steps=config.max_steps, setup=run_initializers_setup, max_size=config.pool_size
    )
    if config.engine is not None:
        pool_kwargs["engine"] = config.engine
    pool = compiled.instance_pool(**pool_kwargs)
    return Service(compiled, config, pool, cache=cache_obj)


# ---------------------------------------------------------------------------
# internals
# ---------------------------------------------------------------------------


def _frontend_stage(sources, config: CompileConfig, cache: Optional[ModuleCache],
                    diagnostics: Diagnostics):
    """The timed frontend stage: :func:`_compile_sources` under ``cache``'s
    unit cache, its reuse folded into ``diagnostics.units``."""

    with diagnostics.stage("frontend") as span:
        if cache is None:
            modules, diagnostics.frontends = _compile_sources(sources, config, None)
            return modules
        units_before = cache.units.snapshot()
        modules, diagnostics.frontends = _compile_sources(sources, config, cache.units)
        _record_units(diagnostics, cache, units_before, span)
        return modules


def _compile_sources(sources, config: CompileConfig, unit_cache):
    """Normalize ``sources`` to RichWasm: a ``{name: Module}`` dict (to be
    linked) or a single already-linked ``Module``, plus the per-module
    frontend names for diagnostics."""

    from ..core.syntax import Module

    if callable(sources) and not hasattr(sources, "modules") and not isinstance(sources, (dict, Module)):
        sources = sources()
    if hasattr(sources, "modules") and not isinstance(sources, dict):
        modules = sources.modules  # repro.ffi.Program / InteropScenario
        if callable(modules):
            modules = modules()
        return dict(modules), {name: "richwasm" for name in modules}
    if isinstance(sources, Module):
        return sources, {sources.name or config.link_name: "richwasm"}
    if not isinstance(sources, dict):
        name, richwasm, frontend = _compile_one(sources, config, unit_cache, default_name=None)
        return {name: richwasm}, {name: frontend}
    compiled: dict = {}
    frontends: dict = {}
    for name, source in sources.items():
        _, richwasm, frontend = _compile_one(source, config, unit_cache, default_name=name)
        compiled[name] = richwasm
        frontends[name] = frontend
    return compiled, frontends


def _compile_one(source, config: CompileConfig, unit_cache, *, default_name: Optional[str]):
    if isinstance(source, tuple) and len(source) == 2 and isinstance(source[0], str):
        frontend, source = resolve_frontend(source[0]), source[1]
    else:
        frontend = detect_frontend(source)
    richwasm = frontend.compile_source(source, config, unit_cache=unit_cache)
    name = default_name or getattr(source, "name", None) or getattr(richwasm, "name", None)
    if not name:
        raise ConfigError(
            f"cannot derive a module name for an anonymous {frontend.name!r} source; "
            "pass sources as a {name: source} dict"
        )
    return name, richwasm, frontend.name


def _check_cache(cache) -> Optional[ModuleCache]:
    if cache is not None and not isinstance(cache, ModuleCache):
        raise ConfigError(
            f"cache must be a repro.runtime.ModuleCache or None, got {type(cache).__name__}"
        )
    return cache


def _resolve_cache(config: CompileConfig, cache: Optional[ModuleCache]) -> Optional[ModuleCache]:
    if _check_cache(cache) is not None:
        return cache
    if config.cache == "none":
        return None
    if config.cache_dir is not None:
        # Durable tier requested: a disk-backed ModuleCache (memory → disk →
        # compile).  Policy "shared" reuses one cache per resolved directory
        # so repeated facade calls share the memory tier too; "private" gets
        # a fresh memory tier over the same durable store.
        from ..cluster.diskcache import DiskCache, shared_disk_module_cache

        if config.cache == "shared":
            return shared_disk_module_cache(
                config.cache_dir, max_bytes=config.disk_cache_bytes
            )
        return ModuleCache(
            disk=DiskCache(config.cache_dir, max_bytes=config.disk_cache_bytes)
        )
    if config.cache == "shared":
        from ..runtime import default_cache

        return default_cache()
    return ModuleCache()  # policy "private"


def _link_direct(modules, config: CompileConfig, diagnostics: Diagnostics):
    """The linked module plus the annotation streams its check recorded
    (``None`` for a bare pre-linked ``Module``, which nothing checks here)."""

    _bypass(diagnostics, "link")
    if not isinstance(modules, dict):
        return modules, None
    from ..ffi.link import link_modules

    annotations = AnnotationStreams()
    linked = link_modules(
        modules, name=config.link_name, check=config.check_links, annotations=annotations
    )
    return linked, annotations


def _link_cached(modules, config: CompileConfig, cache: ModuleCache, diagnostics: Diagnostics):
    if not isinstance(modules, dict):
        _bypass(diagnostics, "link")
        return modules
    before = cache.stats["link"].hits
    units_before = cache.units.snapshot()
    richwasm = cache.link(modules, name=config.link_name, check=config.check_links)
    diagnostics.cache["link"] = "hit" if cache.stats["link"].hits > before else "miss"
    # Linking type-checks its inputs through the memoized typecheck stage,
    # so per-function typecheck units may have moved here.
    _record_units(diagnostics, cache, units_before)
    return richwasm


def _typecheck_cached(richwasm, cache: ModuleCache, diagnostics: Diagnostics) -> None:
    """The memoized core-typecheck stage of the cached pipeline.

    Linking already routes its per-module and linked-result checks through
    ``cache.typecheck``, so for dict sources this lookup is a hit; the
    linked check also recorded the annotation streams the lowering replays.
    A pre-linked ``Module`` the cache has never seen is *not* checked
    standalone: the lowering type-checks every function that has no stream,
    which is all of them here, and checking twice would double the
    compile-side hot path this layer exists to speed up.  So the stage
    records a ``bypass`` instead, mirroring the off-cache pipeline.
    """

    with diagnostics.stage("typecheck") as span:
        if cache.typecheck_known(richwasm):
            units_before = cache.units.snapshot()
            cache.typecheck(richwasm)
            diagnostics.cache["typecheck"] = "hit"
            _record_units(diagnostics, cache, units_before, span)
        else:
            _bypass(diagnostics, "typecheck")


def _decode_and_translate(diagnostics: Diagnostics, cache: ModuleCache,
                          program: CompiledProgram) -> None:
    """The ``decode`` stage, then (compiled engine) the ``translate`` stage.

    Both run through the per-object memos and the function units; a
    disk-loaded program adopts the flat code filed with it.  A stage is a
    ``hit`` when it compiled no function.  Translation emits every
    function's source; Python's ``compile()`` runs for each function at its
    first call, after this stage.  The translate span carries the characters
    of source emitted, the seconds spent emitting it (``emit_s``) and the
    seconds of ``compile()`` inside the stage (``pycompile_s``, 0 unless
    something ran generated code during it); first-call compiles still add
    to the process-wide ``compile.translate.pycompile_seconds`` counter.
    """

    from ..wasm.pygen import translate_module, translate_work

    with diagnostics.stage("decode") as span:
        units_before = cache.units.snapshot()
        program.decode(cache.units)
        compiled = _record_units(diagnostics, cache, units_before, span)
        diagnostics.cache["decode"] = "miss" if compiled else "hit"
    if program.engine != "compiled":
        return
    with diagnostics.stage("translate") as span:
        units_before = cache.units.snapshot()
        work_before = translate_work()
        translate_module(program.wasm, unit_cache=cache.units)
        compiled = _record_units(diagnostics, cache, units_before, span)
        diagnostics.cache["translate"] = "miss" if compiled else "hit"
        emit_s, pycompile_s, source_chars = (
            now - then for now, then in zip(translate_work(), work_before)
        )
        if source_chars:
            span.set_attr(source_chars=source_chars, emit_s=emit_s, pycompile_s=pycompile_s)


@contextmanager
def _lower_stage(diagnostics: Diagnostics):
    """The timed ``lower`` stage.  Its span's ``rechecked`` attribute counts
    the functions the lowering type-checked itself for want of an
    annotation stream from the linked check (0 on a lower-stage hit)."""

    before = rechecked_functions()
    with diagnostics.stage("lower") as span:
        yield span
        span.set_attr(rechecked=rechecked_functions() - before)


def _lower_direct(richwasm, config: CompileConfig, annotations):
    from ..wasm import validate_module

    lowered = lower_module(richwasm, config=config, annotations=annotations)
    validate_module(lowered.wasm)
    return lowered


def _pipeline(sources, config: CompileConfig, cache: Optional[ModuleCache], *,
              decode: bool) -> CompiledProgram:
    """The one lowering pipeline behind :func:`compile` and :func:`lower`.

    Frontend, link and program-store stages; on a program miss, the
    typecheck and lower stages, then (``decode``) the decode and translate
    stages, then the program is filed.  Off the cache it lowers directly
    and files nothing.  The program carries the call's diagnostics.
    """

    diagnostics = Diagnostics(config=config)
    cache = _resolve_cache(config, cache)
    modules = _frontend_stage(sources, config, cache, diagnostics)
    if cache is None:
        with diagnostics.stage("link"):
            richwasm, annotations = _link_direct(modules, config, diagnostics)
        with _lower_stage(diagnostics):
            lowered = _lower_direct(richwasm, config, annotations)
        # No standalone typecheck pass off-cache: the linked check hands its
        # annotation streams to the lowering, which type-checks only functions
        # without one (every function of a bare pre-linked module).
        _bypass(diagnostics, "typecheck", "program", "lower")
        if decode:
            _bypass(diagnostics, "decode")
            if config.engine == "compiled":
                _bypass(diagnostics, "translate")
        # No cached_key: nothing files this artifact, so the content hash is
        # computed lazily by CompiledProgram.key if ever needed.
        program = CompiledProgram(
            richwasm=richwasm, lowered=lowered, engine=config.engine, config=config
        )
    else:
        with diagnostics.stage("link"):
            richwasm = _link_cached(modules, config, cache, diagnostics)
        with diagnostics.stage("program"):
            key = cache.program_key(richwasm, config)
            program = cache.get_program(key, engine=config.engine, config=config, richwasm=richwasm)
        if program is not None:
            diagnostics.cache.update(program="hit", typecheck="hit", lower="hit")
            if decode:
                _decode_and_translate(diagnostics, cache, program)
        else:
            diagnostics.cache["program"] = "miss"
            _typecheck_cached(richwasm, cache, diagnostics)
            with _lower_stage(diagnostics) as span:
                units_before = cache.units.snapshot()
                lowered = cache.lower_fresh(richwasm, config)
                diagnostics.cache["lower"] = "miss"
                _record_units(diagnostics, cache, units_before, span)
            program = CompiledProgram(
                richwasm=richwasm, lowered=lowered, engine=config.engine, config=config,
                cached_key=key,
            )
            if decode:
                _decode_and_translate(diagnostics, cache, program)
            with diagnostics.stage("program") as span:
                # A disk tier files the flat code with the program, so
                # ``lower`` decodes here: its units are this call's work.
                units_before = cache.units.snapshot()
                program = cache.put_program(program)
                _record_units(diagnostics, cache, units_before, span)
    diagnostics.key = program.cached_key
    diagnostics.engine = program.engine
    diagnostics.optimization = program.lowered.optimization
    program.diagnostics = diagnostics
    return program
