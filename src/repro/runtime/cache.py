"""Content-hash-keyed memoization of the compile pipeline.

Every request through the naive path pays link → lower → optimize → decode
from source.  :class:`ModuleCache` memoizes each of those stages separately
under content hashes, so a serving process compiles each distinct program
exactly once and every later request reuses the artifacts:

* **link** — ``{name: RichWasm Module}`` → linked ``Module``;
* **lower** — linked ``Module`` (+ lowering/optimization parameters) →
  :class:`~repro.lower.LoweredModule` (optimization runs inside this stage
  when requested, so the cached artifact is the optimized module);
* **decode** — lowered :class:`~repro.wasm.ast.WasmModule` →
  :class:`~repro.wasm.decode.DecodedModule`, the per-module flat code every
  :class:`~repro.wasm.engine.FlatVMEngine` instance shares;
* **translate** — lowered ``WasmModule`` →
  :class:`~repro.wasm.pygen.ModuleTranslation`, the generated Python source
  (and its exec'd function objects) the compiled tier runs.  The artifact is
  instance-independent, so a content hit seeds the per-object memo
  (:func:`repro.wasm.pygen.adopt_translation`) and a structurally identical
  module skips source generation and ``exec`` entirely.

* **typecheck** — RichWasm ``Module`` → its
  :class:`~repro.core.typing.ModuleCheckResult` (threaded into linking, so
  re-linking overlapping module sets re-checks nothing).  The linked
  result's check also records the per-function annotation streams the
  type-directed lowering replays; they are held for the next :meth:`lower`
  only, never filed in a stage table, a unit table or on disk.

Keys are SHA-256 digests of the (immutable) ASTs plus the compile-relevant
configuration — the canonical :meth:`repro.api.CompileConfig.content_key`.
Since PR 5 the digests come from :func:`repro.core.syntax.structural_digest`
— a recursive structural hash cached on interned type nodes and frozen AST
dataclasses — instead of hashing whole ``repr`` strings, so re-keying a
module only walks the parts not digested before.  Keys stay deterministic across processes
(the digest covers class names, enum member names and primitive field
values, never ``id()`` or ``hash()``) and hashing by content rather than
identity means two independently built but structurally identical programs
share one compile; the stages are keyed separately, so e.g. two different
module sets that link to the same module still share the lowering and
decode.

:meth:`ModuleCache.compile_program` runs the whole pipeline and returns a
:class:`CompiledProgram` bundle, the unit the instance pool and batch runner
consume.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..compilepipe import FunctionUnitCache
from ..core.syntax import Module
from ..core.syntax.intern import structural_digest
from ..lower import AnnotationStreams, LoweredModule, lower_module
from ..obs.metrics import default_registry
from ..wasm import validate_module
from ..wasm.ast import WasmModule
from ..wasm.decode import DecodedModule, adopt_decode, decode_module

# Process-wide cache telemetry: one counter, labeled by stage and outcome
# (hit/miss here; the facade records its bypass decisions under the same
# name).  The per-cache integer view stays on ``ModuleCache.stats``.
_CACHE_EVENTS = default_registry().counter(
    "runtime.cache.events", "ModuleCache stage lookups by stage/outcome"
)


def content_key(*parts: object) -> str:
    """SHA-256 digest over the structural digest of each part.

    The ASTs on every pipeline boundary (surface modules, RichWasm, Wasm)
    are frozen dataclasses built from tuples, enums and primitives;
    :func:`repro.core.syntax.structural_digest` hashes exactly that
    structure and caches the digest on every frozen node it visits, so equal
    trees produce equal keys regardless of object identity (and regardless
    of the producing process), while re-keying an already-digested module is
    a cache lookup rather than a full-tree ``repr``.
    """

    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(structural_digest(part))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _program_fingerprint(richwasm, config_key: str, override) -> Optional[str]:
    """A cheap, collision-safe fingerprint of the program-key inputs.

    ``None`` when the module resists pickling — the caller falls back to
    the structural walk.
    """

    try:
        blob = pickle.dumps(
            ("program", richwasm, config_key, override),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception:
        return None
    return hashlib.sha256(blob).hexdigest()


def _default_config(config):
    """``config``, or the default :class:`repro.api.CompileConfig` when
    ``None``."""

    if config is not None:
        return config
    from ..api.config import CompileConfig

    return CompileConfig.of(None)


@dataclass
class CacheStats:
    """Hit/miss/evict counters for one pipeline stage.

    :meth:`record` is the *only* increment path: it bumps the integer view
    and mirrors the event to the process-wide ``runtime.cache.events``
    counter under one lock, so the two views cannot drift apart (previously
    each stage method incremented both separately, with nothing keeping a
    future call site from updating one and not the other).  ``evictions``
    only moves for bounded/durable tiers (the in-memory stages never evict;
    the :class:`repro.cluster.DiskCache` stages do).
    """

    stage: str = ""
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def record(self, event: str) -> None:
        with self._lock:
            if event == "hit":
                self.hits += 1
            elif event == "evict":
                self.evictions += 1
            else:
                self.misses += 1
            _CACHE_EVENTS.inc(stage=self.stage, event=event)

    def reset(self) -> None:
        with self._lock:
            self.hits = self.misses = self.evictions = 0


@dataclass
class CompiledProgram:
    """The fully compiled, shareable form of one program.

    Everything here is immutable or treated as such: instances built from it
    share ``wasm`` (and therefore the module-level ``decoded`` flat code) but
    never mutate it.  ``key`` is the content hash the cache filed the program
    under.  ``config`` records the :class:`repro.api.CompileConfig` the
    program was compiled under (``None`` when constructed without one);
    ``diagnostics`` the :class:`repro.api.Diagnostics` of the most recent
    facade call that produced or returned this artifact.
    """

    richwasm: Module
    lowered: LoweredModule
    engine: Optional[str] = None
    config: Optional[object] = None
    diagnostics: Optional[object] = None
    #: The key the cache filed the program under; ``None`` off the cache
    #: paths until :attr:`key` is first read (hashing the whole program AST
    #: is measurable, so uncached one-shot compiles do not pay it eagerly).
    cached_key: Optional[str] = None

    @property
    def key(self) -> str:
        if self.cached_key is None:
            config_key = self.config.content_key() if self.config is not None else None
            self.cached_key = content_key("program", self.richwasm, config_key, None)
        return self.cached_key

    @property
    def wasm(self) -> WasmModule:
        return self.lowered.wasm

    @property
    def decoded(self) -> DecodedModule:
        return decode_module(self.lowered.wasm)

    def instantiate(self, *, host_imports=None, max_steps=None, engine=None):
        """Instantiate on a fresh engine: ``(interpreter, instance)``."""

        return self.lowered.instantiate(
            host_imports=host_imports,
            max_steps=max_steps,
            engine=engine if engine is not None else self.engine,
        )

    def instance_pool(self, **kwargs) -> "InstancePool":
        """An :class:`~repro.runtime.InstancePool` recycling instances of
        this program (keyword arguments forwarded to the pool)."""

        from .pool import InstancePool

        kwargs.setdefault("engine", self.engine)
        return InstancePool(self.wasm, **kwargs)


class ModuleCache:
    """Memoizes link/lower/decode so each program compiles once.

    One cache serves many programs; per-stage :class:`CacheStats` live in
    ``stats``.  The cache is unbounded by design — a serving tier hosts a
    fixed catalogue of programs — but :meth:`clear` drops everything.

    ``disk`` optionally attaches a durable tier (a
    :class:`repro.cluster.DiskCache`), making the lookup order *memory →
    disk → compile* for the picklable stages (``link``, ``lower``,
    ``program``): a memory miss consults the disk store before compiling,
    and every freshly compiled artifact is filed to disk, so a different
    process sharing the cache directory warm-starts instead of recompiling.
    ``decode`` and ``translate`` stay process-local — their artifacts embed
    resolved handlers and ``exec``'d callables — and are recomputed from the
    disk-loaded Wasm (a small fraction of a cold compile).  The disk tier's
    per-stage hit/miss/evict stats appear in :attr:`stats` under
    ``disk.<stage>`` names.
    """

    def __init__(self, disk=None) -> None:
        self._linked: dict[str, Module] = {}
        self._lowered: dict[str, LoweredModule] = {}
        self._decoded: dict[str, DecodedModule] = {}
        self._translated: dict[str, object] = {}
        self._programs: dict[str, CompiledProgram] = {}
        self._typechecked: dict[str, object] = {}
        #: Function-granular units under the module-level stages: a miss at
        #: module granularity (one edited function) still reuses every
        #: unchanged function's frontend/link/typecheck/lower/optimize/
        #: validate/decode/translate work through this cache.
        self.units = FunctionUnitCache()
        #: The durable tier (duck-typed ``get``/``put``/``stats``; see
        #: :class:`repro.cluster.DiskCache`), or ``None`` for memory-only.
        self.disk = disk
        #: The annotation streams of the module the last :meth:`link` miss
        #: checked (a :class:`repro.lower.AnnotationStreams`), waiting for its
        #: :meth:`lower`; at most one module's, emptied by that lowering.
        self._annotations: Optional[AnnotationStreams] = None
        self._memory_stats: dict[str, CacheStats] = {
            stage: CacheStats(stage)
            for stage in ("typecheck", "link", "lower", "decode", "translate", "program")
        }

    @property
    def stats(self) -> dict[str, CacheStats]:
        """Per-stage stats: the memory stages plus the attached disk tier's
        ``disk.<stage>`` entries (one merged view for ``Service.stats``)."""

        if self.disk is None:
            return self._memory_stats
        return {**self._memory_stats, **self.disk.stats}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(
            f"{stage}={len(store)}"
            for stage, store in (
                ("link", self._linked),
                ("lower", self._lowered),
                ("decode", self._decoded),
                ("translate", self._translated),
            )
        )
        return f"ModuleCache({sizes})"

    def clear(self) -> None:
        """Drop every stage table (module- and function-granular) and zero
        the statistics.

        Artifacts the cache already handed out — `CompiledProgram`s held by
        callers, translations adopted into the per-object pygen memo, decode
        artifacts pinned by live instances — are owned by their consumers
        and keep working; clearing only forgets the content-keyed indexes.
        """

        self._linked.clear()
        self._lowered.clear()
        self._decoded.clear()
        self._translated.clear()
        self._programs.clear()
        self._typechecked.clear()
        self._annotations = None
        self.units.clear()
        for stats in self.stats.values():
            stats.reset()

    # -- stage: typecheck --------------------------------------------------

    def typecheck(self, module: Module, *, observer_for=None):
        """Type-check a RichWasm module, memoized by content.

        Returns the :class:`~repro.core.typing.ModuleCheckResult` (raises the
        usual ``RichWasmTypeError`` subclass on ill-typed modules — failures
        are not cached).  :meth:`link` threads this into
        :func:`repro.ffi.link.link_modules`, so a library module shared by
        many programs is checked once per cache, not once per link.
        ``observer_for`` goes to :func:`~repro.core.typing.check_module` on
        a miss; a hit checks nothing, so it records nothing.
        """

        from ..core.typing import check_module

        key = content_key("typecheck", module)
        result = self._typechecked.get(key)
        if result is not None:
            self._memory_stats["typecheck"].record("hit")
            return result
        self._memory_stats["typecheck"].record("miss")
        result = check_module(module, unit_cache=self.units, observer_for=observer_for)
        self._typechecked[key] = result
        return result

    def typecheck_known(self, module: Module) -> bool:
        """Whether ``module``'s check result is already memoized (no stats
        counted, no check performed) — lets the facade skip a standalone
        whole-module check of a module only the lowering will check."""

        return content_key("typecheck", module) in self._typechecked

    # -- stage: link -------------------------------------------------------

    def link(self, modules: dict[str, Module], *, name: str = "linked", check: bool = True) -> Module:
        """Statically link ``modules`` (memoized by content).

        ``check=False`` skips the cross-module import/export re-check —
        safe when the modules came from an already-checked ``Program``
        (the :class:`repro.api.CompileConfig.check_links` toggle).  The
        per-module and linked-result type checks run through the memoized
        :meth:`typecheck` stage, and each remapped declaration is a link
        unit of :attr:`units`.  A miss keeps the linked check's annotation
        streams for the following :meth:`lower`.
        """

        from ..ffi.link import link_modules

        self._annotations = None
        key = content_key("link", name, sorted(modules), [modules[k] for k in sorted(modules)])
        linked = self._linked.get(key)
        if linked is None and self.disk is not None:
            linked = self.disk.get("link", key)
            if linked is not None:
                self._linked[key] = linked
        if linked is not None:
            self._memory_stats["link"].record("hit")
            return linked
        self._memory_stats["link"].record("miss")
        annotations = AnnotationStreams()
        linked = link_modules(
            modules, name=name, check=check, checker=self.typecheck, unit_cache=self.units,
            annotations=annotations,
        )
        self._annotations = annotations
        self._linked[key] = linked
        if self.disk is not None:
            self.disk.put("link", key, linked)
        return linked

    # -- stage: lower (+ optimize) ----------------------------------------

    def lower(
        self,
        richwasm: Module,
        *,
        passes=None,
        engine: Optional[str] = None,
        config=None,
    ) -> LoweredModule:
        """Lower (and optionally optimize) ``richwasm``, memoized by content.

        The stage key is ``content_key(richwasm, config.content_key())``;
        ``config`` (a :class:`repro.api.CompileConfig`) defaults to
        ``CompileConfig.of(None)``.  An explicit ``passes`` list overrides
        the config's pipeline (and is folded into the key by pass name).

        Hits return a shallow copy so callers can adjust bookkeeping fields
        (``engine``) without contaminating the cached artifact; the expensive
        payload (``wasm``, and with it the decode memo) stays shared.

        A miss lowers with the annotation streams the last :meth:`link`
        recorded for ``richwasm``, so only functions without one are
        type-checked again; hit or miss, the streams are dropped.
        """

        annotations, self._annotations = self._annotations, None
        config = _default_config(config)
        if engine is None:
            engine = config.engine
        override = None if passes is None else tuple(p.name for p in passes)
        key = content_key("lower", richwasm, config.content_key(), override)
        lowered = self._lowered.get(key)
        if lowered is None and self.disk is not None:
            lowered = self.disk.get("lower", key)
            if lowered is not None:
                self._lowered[key] = lowered
        if lowered is None:
            self._memory_stats["lower"].record("miss")
            lowered = lower_module(
                richwasm, config=config, passes=passes, unit_cache=self.units,
                annotations=annotations,
            )
            if config.validate_wasm:
                validate_module(lowered.wasm, unit_cache=self.units)
            self._lowered[key] = lowered
            if self.disk is not None:
                self.disk.put("lower", key, replace(lowered, engine=None, diagnostics=None))
        else:
            self._memory_stats["lower"].record("hit")
        return replace(lowered, engine=engine, diagnostics=None)

    # -- stage: decode -----------------------------------------------------

    def decode(self, wasm: WasmModule) -> DecodedModule:
        """Flat-decode ``wasm``, memoized once per object by the module-level
        memo in :mod:`repro.wasm.decode`.

        Always returns *this object's* decode — the artifact the flat VM
        actually executes — never a structurally-equal twin's (the engine
        resolves flat code by module identity).  The content-keyed side
        table only pins the artifact alive and feeds the hit/miss stats;
        content-level sharing already happens one stage earlier, where
        :meth:`lower` dedupes equal programs to a single ``WasmModule``
        object.
        """

        key = content_key("decode", wasm)
        self._memory_stats["decode"].record("hit" if key in self._decoded else "miss")
        decoded = decode_module(wasm, unit_cache=self.units)
        self._decoded[key] = decoded
        return decoded

    # -- stage: translate --------------------------------------------------

    def translate(self, wasm: WasmModule):
        """Translate ``wasm`` to compiled-tier Python source, memoized by
        content.

        Misses run :func:`repro.wasm.pygen.translate_module` (itself
        memoized per module object); hits seed the per-object memo with the
        cached :class:`~repro.wasm.pygen.ModuleTranslation`
        (:func:`~repro.wasm.pygen.adopt_translation`).  Unlike decode —
        which the flat VM resolves by module identity — the translation is
        instance-independent, so sharing one artifact across structurally
        identical module objects is sound: all mutable state flows through
        the per-instance runtime object at call time.
        """

        from ..wasm.pygen import adopt_translation, translate_module

        key = content_key("translate", wasm)
        translation = self._translated.get(key)
        if translation is not None:
            self._memory_stats["translate"].record("hit")
            adopt_translation(wasm, translation)
            return translation
        self._memory_stats["translate"].record("miss")
        translation = translate_module(wasm, unit_cache=self.units)
        self._translated[key] = translation
        return translation

    # -- stage: program (the memoized bundle) ------------------------------

    def program_key(self, richwasm: Module, config, passes=None) -> str:
        """The program-level cache key: linked content + config content.

        With a disk tier attached, a *fingerprint shortcut* skips the
        structural walk on warm starts: the pickle bytes of the inputs hash
        in C speed, and the disk's ``key`` stage maps that fingerprint to
        the structural key computed the first time.  The shortcut is sound
        because pickle faithfully encodes the frozen AST — equal bytes imply
        equal structure, so a mapped key is always the key the walk would
        produce.  The converse does not hold (equal structures built with
        different internal sharing pickle differently), so a fingerprint
        miss only costs the ordinary structural digest, never correctness.
        """

        override = None if passes is None else tuple(p.name for p in passes)
        if self.disk is not None:
            fingerprint = _program_fingerprint(richwasm, config.content_key(), override)
            if fingerprint is not None:
                key = self.disk.get("key", fingerprint)
                if isinstance(key, str):
                    return key
                key = content_key("program", richwasm, config.content_key(), override)
                self.disk.put("key", fingerprint, key)
                return key
        return content_key("program", richwasm, config.content_key(), override)

    def get_program(self, key: str, *, engine: Optional[str] = None, config=None,
                    richwasm: Optional[Module] = None) -> Optional[CompiledProgram]:
        """Look a compiled program up (counted in ``stats["program"]``).

        The engine preference — and the config's other execution-bookkeeping
        fields (``max_steps``, ``pool_size``, cache policy) — are
        per-caller, not part of the compiled content: a hit under a
        different engine *or config* hands out a variant sharing the cached
        payload instead of silently serving the first caller's settings
        (e.g. dropping a later caller's step budget).

        With a disk tier attached and ``richwasm`` supplied, a memory miss
        consults the durable store: the payload there is the lowered module
        (pickle-safe, bookkeeping stripped), from which the process-local
        decode/translate artifacts are recomputed — a small fraction of the
        full compile the hit avoids.
        """

        program = self._programs.get(key)
        if program is None and self.disk is not None and richwasm is not None:
            lowered = self.disk.get("program", key)
            if lowered is not None:
                lowered = replace(lowered, engine=engine)
                flat = self.disk.get("decode", key)
                if flat is not None and len(flat) == len(lowered.wasm.functions):
                    adopt_decode(lowered.wasm, flat)
                self.decode(lowered.wasm)
                if engine == "compiled":
                    self.translate(lowered.wasm)
                program = CompiledProgram(
                    richwasm=richwasm, lowered=lowered, engine=engine,
                    config=config, cached_key=key,
                )
                self._programs[key] = program
        if program is None:
            self._memory_stats["program"].record("miss")
            return None
        self._memory_stats["program"].record("hit")
        # A hit lowers nothing: drop the streams the link may have recorded.
        self._annotations = None
        if program.engine != engine or (config is not None and config != program.config):
            program = CompiledProgram(
                richwasm=program.richwasm,
                lowered=replace(program.lowered, engine=engine),
                engine=engine,
                config=config if config is not None else program.config,
                diagnostics=program.diagnostics,
                cached_key=key,
            )
        return program

    def put_program(self, key: str, richwasm: Module, lowered: LoweredModule, *,
                    engine: Optional[str] = None, config=None) -> CompiledProgram:
        program = CompiledProgram(
            richwasm=richwasm, lowered=lowered, engine=engine, config=config, cached_key=key
        )
        self._programs[key] = program
        if self.disk is not None:
            self.disk.put("program", key, replace(lowered, engine=None, diagnostics=None))
            # Flat code is immutable plain data keyed by the same content
            # hash, so persisting it spares warm starts the per-function
            # decode + digest pass (see ``adopt_decode``).
            self.disk.put("decode", key, self.decode(lowered.wasm).flat)
        return program

    # -- the whole pipeline ------------------------------------------------

    def compile_program(
        self,
        modules,
        *,
        passes=None,
        engine: Optional[str] = None,
        config=None,
    ) -> CompiledProgram:
        """Link → lower → optimize → decode, every stage memoized.

        ``modules`` is a ``{name: RichWasm Module}`` mapping (e.g. from
        :meth:`repro.ffi.InteropScenario.modules`), an
        :class:`repro.ffi.Program`, or a single already-linked RichWasm
        :class:`Module`.  ``config`` (a :class:`repro.api.CompileConfig`)
        defaults to ``CompileConfig.of(None)``.
        """

        config = _default_config(config)
        richwasm = self._as_linked(modules, name=config.link_name, check=config.check_links)
        if engine is None:
            engine = config.engine
        key = self.program_key(richwasm, config, passes)
        program = self.get_program(key, engine=engine, config=config, richwasm=richwasm)
        if program is None:
            lowered = self.lower(richwasm, config=config, passes=passes, engine=engine)
            self.decode(lowered.wasm)
            if engine == "compiled":
                self.translate(lowered.wasm)
            program = self.put_program(key, richwasm, lowered, engine=engine, config=config)
        return program

    def _as_linked(self, modules, *, name: str, check: bool = True) -> Module:
        if isinstance(modules, Module):
            return modules
        if hasattr(modules, "modules") and not isinstance(modules, dict):
            modules = modules.modules  # repro.ffi.Program
        if callable(modules):
            modules = modules()
        if not isinstance(modules, dict):
            raise TypeError(
                "compile_program expects a {name: Module} dict, a Program, or a linked Module; "
                f"got {type(modules).__name__}"
            )
        # Always link, even a singleton: linking namespaces the exports
        # (``module.export``), so this path stays interchangeable with
        # ``Program.lower()``.
        return self.link(modules, name=name, check=check)
