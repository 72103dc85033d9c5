"""Content-hash-keyed memoization of the compile pipeline.

Every request through the naive path pays link → lower → optimize → decode
from source.  :class:`ModuleCache` memoizes the pipeline under content
hashes, so a serving process compiles each distinct program exactly once and
every later request reuses the artifacts.  It keeps three module-granular
stores:

* **typecheck** — RichWasm ``Module`` → its
  :class:`~repro.core.typing.ModuleCheckResult` (threaded into linking, so
  re-linking overlapping module sets re-checks nothing).  The linked
  result's check also records the per-function annotation streams the
  type-directed lowering replays; they are held for the next lowering
  only, never filed in a store, a unit table or on disk.
* **link** — ``{name: RichWasm Module}`` → linked ``Module``;
* **program** — linked ``Module`` + config content →
  :class:`CompiledProgram`, whose :class:`~repro.lower.LoweredModule` is
  the lowered (and, when requested, optimized) module.  ``repro.api.lower``
  and ``repro.api.compile`` run one pipeline over this store, so they
  share one entry.

Under them, :attr:`ModuleCache.units` holds the function-granular units of
every stage (frontend through decode and translate), and the optional disk
tier holds ``link`` entries, the fingerprint → key map (``key``) and one
``program`` entry per key: the lowered module with its flat decode.  Decode
and translation keep no module-level store: they run through the
per-object memos of :mod:`repro.wasm.decode` and :mod:`repro.wasm.pygen`
and the function units.

Keys are SHA-256 digests of the (immutable) ASTs plus the compile-relevant
configuration — the canonical :meth:`repro.api.CompileConfig.content_key`.
The digests come from :func:`repro.core.syntax.structural_digest` — a
recursive structural hash cached on interned type nodes and frozen AST
dataclasses — so re-keying a module only walks the parts not digested
before.  Keys stay deterministic across processes (the digest covers class
names, enum member names and primitive field values, never ``id()`` or
``hash()``) and hashing by content rather than identity means two
independently built but structurally identical programs share one compile.

``repro.api.compile(..., cache=cache)`` runs the whole pipeline through a
cache and returns a :class:`CompiledProgram` bundle, the unit the instance
pool and batch runner consume.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from dataclasses import dataclass, field, replace
from typing import Optional

from ..compilepipe import FunctionUnitCache
from ..core.syntax import Module
from ..core.syntax.intern import has_structural_digest, structural_digest
from ..lower import AnnotationStreams, LoweredModule, lower_module
from ..obs.metrics import default_registry
from ..wasm import validate_module
from ..wasm.ast import WasmModule
from ..wasm.decode import DecodedModule, adopt_decode, decode_module
from ..wasm.validation import mark_validated

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
    structure and memoizes the digest on functions, declarations and
    modules, so equal trees produce equal keys regardless of object identity
    (and regardless of the producing process), while re-keying an
    already-digested module is a lookup rather than a full-tree walk.
    """

    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(structural_digest(part))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _program_fingerprint(richwasm, config_key: str) -> Optional[str]:
    """A cheap, collision-safe fingerprint of the program-key inputs.

    ``None`` when the module resists pickling — the caller falls back to
    the structural walk.
    """

    try:
        blob = pickle.dumps(
            ("program", richwasm, config_key),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    except Exception:
        return None
    return hashlib.sha256(blob).hexdigest()


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
    facade call that produced or returned this artifact.  A program loaded
    from the disk tier carries the flat code filed with it
    (``persisted_flat``), which :meth:`decode` adopts instead of decoding.
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
    persisted_flat: Optional[list] = field(default=None, repr=False, compare=False)

    @property
    def key(self) -> str:
        if self.cached_key is None:
            config_key = self.config.content_key() if self.config is not None else None
            self.cached_key = content_key("program", self.richwasm, config_key)
        return self.cached_key

    @property
    def wasm(self) -> WasmModule:
        return self.lowered.wasm

    @property
    def decoded(self) -> DecodedModule:
        return self.decode()

    def decode(self, unit_cache=None) -> DecodedModule:
        """The flat code of :attr:`wasm`, from the per-object decode memo.

        A program loaded from disk adopts its persisted flat code
        (:func:`~repro.wasm.decode.adopt_decode`) instead of decoding; any
        other program decodes through ``unit_cache`` (a
        :class:`repro.compilepipe.FunctionUnitCache`), reusing unchanged
        functions' flat code.
        """

        flat = self.persisted_flat
        if flat is not None and len(flat) == len(self.wasm.functions):
            return adopt_decode(self.wasm, flat)
        return decode_module(self.wasm, unit_cache=unit_cache)

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
    """Memoizes typecheck, link and whole programs so each program compiles
    once.

    One cache serves many programs; per-store :class:`CacheStats` live in
    ``stats``.  The cache is unbounded by design — a serving tier hosts a
    fixed catalogue of programs — but :meth:`clear` drops everything.

    ``disk`` optionally attaches a durable tier (a
    :class:`repro.cluster.DiskCache`), making the lookup order *memory →
    disk → compile* for the ``link`` and ``program`` stores: a memory miss
    consults the disk store before compiling, and every freshly compiled
    artifact is filed to disk, so a different process sharing the cache
    directory warm-starts instead of recompiling.  A ``program`` entry is
    the lowered module (bookkeeping stripped) with its flat decode; decoded
    and translated code is process-local — it embeds resolved handlers and
    ``exec``'d callables — so a warm start adopts the flat code and
    translates from the loaded Wasm.  The disk tier's per-stage
    hit/miss/evict stats appear in :attr:`stats` under ``disk.<stage>``
    names.
    """

    def __init__(self, disk=None) -> None:
        self._typechecked: dict[str, object] = {}
        self._linked: dict[str, Module] = {}
        self._programs: dict[str, CompiledProgram] = {}
        #: Function-granular units under the module-level stores: a miss at
        #: module granularity (one edited function) still reuses every
        #: unchanged function's frontend/link/typecheck/lower/optimize/
        #: validate/decode/translate work through this cache.
        self.units = FunctionUnitCache()
        #: The durable tier (duck-typed ``get``/``put``/``stats``; see
        #: :class:`repro.cluster.DiskCache`), or ``None`` for memory-only.
        self.disk = disk
        #: The annotation streams of the module the last :meth:`link` miss
        #: checked (a :class:`repro.lower.AnnotationStreams`), waiting for its
        #: lowering; at most one module's, emptied by that lowering.
        self._annotations: Optional[AnnotationStreams] = None
        self._memory_stats: dict[str, CacheStats] = {
            stage: CacheStats(stage) for stage in ("typecheck", "link", "program")
        }

    @property
    def stats(self) -> dict[str, CacheStats]:
        """Per-store stats: the memory stores plus the attached disk tier's
        ``disk.<stage>`` entries (one merged view for ``Service.stats``)."""

        if self.disk is None:
            return self._memory_stats
        return {**self._memory_stats, **self.disk.stats}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModuleCache(typecheck={len(self._typechecked)}, link={len(self._linked)}, "
            f"program={len(self._programs)})"
        )

    def clear(self) -> None:
        """Drop every store (module- and function-granular) and zero the
        statistics.

        Artifacts the cache already handed out — `CompiledProgram`s held by
        callers, translations in the per-object pygen memo, decode
        artifacts pinned by live instances — are owned by their consumers
        and keep working; clearing only forgets the content-keyed indexes.
        """

        self._typechecked.clear()
        self._linked.clear()
        self._programs.clear()
        self._annotations = None
        self.units.clear()
        for stats in self.stats.values():
            stats.reset()

    # -- store: typecheck --------------------------------------------------

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

    # -- store: link -------------------------------------------------------

    def link(self, modules: dict[str, Module], *, name: str = "linked", check: bool = True) -> Module:
        """Statically link ``modules`` (memoized by content).

        ``check=False`` skips the cross-module import/export re-check —
        safe when the modules came from an already-checked ``Program``
        (the :class:`repro.api.CompileConfig.check_links` toggle).  The
        per-module and linked-result type checks run through the memoized
        :meth:`typecheck` store, and each remapped declaration is a link
        unit of :attr:`units`.  A miss keeps the linked check's annotation
        streams for the following lowering.
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

    # -- store: program ----------------------------------------------------

    def program_key(self, richwasm: Module, config) -> str:
        """The program-level cache key: linked content + config content.

        A module that already carries its structural digest
        (:func:`~repro.core.syntax.intern.has_structural_digest`: every
        module the typecheck store linked, and every link entry loaded from
        disk or inherited over ``fork``, since the memo travels in the
        pickle) is keyed directly — a lookup, not a walk.  For a fresh module without one, a disk tier enables a
        *fingerprint shortcut* that skips the structural walk on warm
        starts: the pickle bytes of the inputs hash in C speed, and the
        disk's ``key`` stage maps that fingerprint to the structural key
        computed the first time.  The shortcut is sound because pickle
        faithfully encodes the frozen AST — equal bytes imply equal
        structure, so a mapped key is always the key the walk would
        produce.  The converse does not hold (equal structures built with
        different internal sharing pickle differently), so a fingerprint
        miss only costs the ordinary structural digest, never correctness.
        """

        if self.disk is not None and not has_structural_digest(richwasm):
            fingerprint = _program_fingerprint(richwasm, config.content_key())
            if fingerprint is not None:
                key = self.disk.get("key", fingerprint)
                if isinstance(key, str):
                    return key
                key = content_key("program", richwasm, config.content_key())
                self.disk.put("key", fingerprint, key)
                return key
        return content_key("program", richwasm, config.content_key())

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
        reads the durable ``program`` entry: the lowered module and its
        flat code, which the program's first :meth:`CompiledProgram.decode`
        adopts.  Decoding and translating are left to the caller.
        """

        program = self._programs.get(key)
        if program is None and self.disk is not None and richwasm is not None:
            entry = self.disk.get("program", key)
            if entry is not None:
                lowered, flat = entry
                mark_validated(lowered.wasm)  # put_program files valid modules only
                program = CompiledProgram(
                    richwasm=richwasm, lowered=replace(lowered, engine=engine), engine=engine,
                    config=config, cached_key=key, persisted_flat=flat,
                )
                self._programs[key] = program
        if program is None:
            self._memory_stats["program"].record("miss")
            return None
        self._memory_stats["program"].record("hit")
        # A hit lowers nothing: drop the streams the link may have recorded.
        self._annotations = None
        if program.engine != engine or (config is not None and config != program.config):
            program = replace(
                program,
                lowered=replace(program.lowered, engine=engine),
                engine=engine,
                config=config if config is not None else program.config,
            )
        return program

    def put_program(self, program: CompiledProgram) -> CompiledProgram:
        """File ``program`` under its key, in memory and (with a disk tier)
        as one ``program`` entry: the lowered module with its flat code,
        which spares warm starts the per-function decode + digest pass.  A
        disk entry is filed only once its module is valid, so a warm start
        adopts the module without checking it (:meth:`get_program`)."""

        self._programs[program.key] = program
        if self.disk is not None:
            validate_module(program.wasm, unit_cache=self.units)
            lowered = replace(program.lowered, engine=None, diagnostics=None)
            self.disk.put("program", program.key, (lowered, program.decode(self.units).flat))
        return program

    def lower_fresh(self, richwasm: Module, config) -> LoweredModule:
        """Lower, optimize and validate with no store lookup — the work
        behind a program miss.  The validated module is the one the
        program's ``wasm`` returns, so instantiating it checks nothing again.

        Replays the annotation streams the last :meth:`link` recorded for
        ``richwasm``, so only functions without one are type-checked again;
        the streams are dropped either way.
        """

        annotations, self._annotations = self._annotations, None
        lowered = lower_module(
            richwasm, config=config, unit_cache=self.units, annotations=annotations
        )
        validate_module(lowered.wasm, unit_cache=self.units)
        return lowered
