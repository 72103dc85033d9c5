"""Function-granular compilation units for the incremental compile pipeline.

:class:`repro.runtime.ModuleCache` memoizes whole modules: one edited
function used to invalidate every stage for the entire module.  This module
supplies the layer underneath — a :class:`FunctionUnitCache` holding
per-*function* artifacts for each compile stage, keyed by content so that a
new version of a module reuses every unchanged function's work:

* **frontend** — (frontend name, source-function digest, module
  environment digest) → the function's RichWasm
  :class:`~repro.core.syntax.Function` (for ML also the lambda-lifted
  functions and table entries it appended; the environment digest then
  carries the lifted-function and table base indices).  A hit also skips
  the function's source type check (:mod:`repro.ml`, :mod:`repro.l3`);
* **link** — (declaration digest, digest of its module's function/global/
  table remap tables, export names) → the remapped declaration
  (:func:`repro.ffi.link.link_modules`);
* **typecheck** — (function digest, signature-environment digest,
  ``allow_caps`` flag) → the function's checked instruction count
  (:func:`repro.core.typing.check_module`);
* **lower** — (function digest, signature-environment digest) → the lowered
  :class:`~repro.wasm.ast.WasmFunction` plus the erasure/boxing statistics
  deltas its compilation contributed (:class:`repro.lower.ModuleLowering`);
* **optimize** — (function-pass names, Wasm function digest) → the
  function at its fixpoint under those passes, each pass's rewrite count
  and the number of rounds it took (:meth:`repro.opt.PassManager.run_function`;
  sound to run function by function because every function pass is a pure
  function of the body);
* **validate** — (Wasm function digest, Wasm signature digest) → a checked
  marker (:func:`repro.wasm.validate_module`);
* **decode** — Wasm function digest → the :class:`~repro.wasm.decode.FlatFunction`;
* **translate** — (Wasm function digest, Wasm signature digest, slot index)
  → the generated Python source chunk and the callable, which compiles
  the chunk at its first call and is shared by every translation holding
  the unit (:mod:`repro.wasm.pygen`; sound because direct calls dispatch
  through the per-instance runtime, which makes each generated function
  self-contained).

Unit keys are built from :func:`repro.core.syntax.structural_digest` parts,
so — like the PR 5 content keys — they are deterministic across processes
and never leak ``id()``/``hash()``.  The signature-environment digests
(:func:`repro.core.syntax.signature_env_digest` on the RichWasm side,
:func:`wasm_signature_digest` here on the Wasm side) cover everything a
function's compilation can observe about the rest of the module *except*
other function bodies — which is exactly what makes a one-function edit
leave the other functions' keys unchanged.

Unchanged functions come back from every stage as the *same objects*, and
each key builder memoizes its key on the (frozen) artifact it names, under
the stage and the key's other parts; the dead-function pass does the same
with each function's callee set.  After a one-function source edit only the
edited function's new artifacts are keyed, digested and scanned anew — every
other key is one dictionary lookup.  The memos are never pickled
(:func:`repro.core.syntax.intern.state_without_memos`), so disk entries and
worker payloads stay as they were.

The consumers (``ml``, ``l3``, ``ffi``, ``core.typing``, ``lower``, ``opt``,
``wasm``) receive the cache as an opaque ``unit_cache`` parameter and call
its ``*_key``/``get``/``put`` methods, so no lower layer imports this
module.  Every lookup is counted in per-stage :class:`UnitStats` with a
plain integer increment, and the counts are mirrored to the process-wide
``compile.units.events`` counter in one locked step per stage
(:meth:`FunctionUnitCache.delta`).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

from .core.syntax.intern import structural_digest
from .core.syntax.modules import signature_env_digest
from .obs.metrics import default_registry, label_key
from .wasm.ast import WasmFunction, WasmModule

#: Stages with per-function unit tables, in pipeline order.
UNIT_STAGES = (
    "frontend", "link", "typecheck", "lower", "optimize", "validate", "decode", "translate",
)

# Process-wide unit telemetry, labeled by stage and outcome (hit/miss).
# The per-cache integer view lives on ``FunctionUnitCache.stats``.
_UNIT_EVENTS = default_registry().counter(
    "compile.units.events", "Per-function compile unit lookups by stage/outcome"
)


def unit_key(stage: str, *parts: object) -> str:
    """The canonical per-function unit key: SHA-256 hex over digest parts.

    ``bytes`` parts (pre-computed digests) feed the hash directly; everything
    else goes through :func:`repro.core.syntax.structural_digest`, so keys
    are deterministic across processes for the same reasons the PR 5 content
    keys are.
    """

    hasher = hashlib.sha256(stage.encode())
    for part in parts:
        hasher.update(b"\x00")
        if isinstance(part, bytes):
            hasher.update(part)
        else:
            hasher.update(structural_digest(part))
    return hasher.hexdigest()


def wasm_signature_digest(module: WasmModule) -> bytes:
    """Digest of what one Wasm function's validation/translation can see of
    the rest of its module: every declaration's kind and function type in
    index order, global value types and mutability, memory presence and the
    table entries — everything *except* other function bodies.

    Cached on the (frozen, immutable) module instance, mirroring
    :func:`repro.core.syntax.signature_env_digest` on the RichWasm side.
    """

    cached = module.__dict__.get("_wasm_sig_digest")
    if cached is None:
        hasher = hashlib.sha256(b"wasmsig")
        for decl in module.functions:
            hasher.update(b"f" if isinstance(decl, WasmFunction) else b"h")
            hasher.update(structural_digest(decl.functype))
        hasher.update(b"|globals")
        for global_decl in module.globals:
            hasher.update(structural_digest(global_decl.valtype))
            hasher.update(b"\x01" if global_decl.mutable else b"\x00")
        hasher.update(b"|mem\x01" if module.memory is not None else b"|mem\x00")
        hasher.update(b"|table")
        for entry in module.table.entries:
            hasher.update(b"%d," % entry)
        cached = hasher.digest()
        module.__dict__["_wasm_sig_digest"] = cached
    return cached


# ---------------------------------------------------------------------------
# Stage-specific key builders (module-level, so tests and docs can name them)
# ---------------------------------------------------------------------------


#: type -> whether its instances carry memos, decided once per type.
_MEMO_TYPES: dict[type, bool] = {}


def _memoized_key(stage: str, obj, before: tuple, after: tuple) -> str:
    """``unit_key(stage, *before, structural_digest(obj), *after)``,
    memoized in ``obj.__dict__`` under ``(stage, *before, *after)``.

    ``before``/``after`` are every key part except ``obj``'s own digest
    (environment/signature digests, flags, the function-pass part, the slot
    index, ...), so a memo hit names exactly the key a fresh build would
    compute.  Only frozen dataclass instances carry memos — the rule
    :func:`~repro.core.syntax.structural_digest` applies to ``_hc_digest``
    — and the tuple-keyed entries never pickle
    (:func:`~repro.core.syntax.intern.state_without_memos`).
    """

    cls = type(obj)
    memoizes = _MEMO_TYPES.get(cls)
    if memoizes is None:
        params = getattr(cls, "__dataclass_params__", None)
        memoizes = _MEMO_TYPES[cls] = (
            params is not None and params.frozen and hasattr(obj, "__dict__")
        )
    memos, memo = obj.__dict__ if memoizes else {}, (stage, *before, *after)
    key = memos.get(memo)
    if key is None:
        key = memos[memo] = unit_key(stage, *before, structural_digest(obj), *after)
    return key


def frontend_unit_key(frontend: str, function, env_digest: bytes, *bases: int) -> str:
    """Per-function frontend unit key.

    ``env_digest`` covers everything of the source module the function's
    check and compilation can see except other function bodies (see
    :func:`repro.ml.codegen.MLCompiler.env_digest`); ``bases`` are the
    index bases the compiled function bakes in (ML: the lifted-function
    and table base at that point).
    """

    return _memoized_key("frontend", function, (frontend,), (env_digest, *bases))


def link_unit_key(decl, remap_digest: bytes, exports: tuple) -> str:
    """Per-declaration link unit key: the declaration, its module's remap
    tables (:func:`repro.ffi.link.link_modules` digests them once per module
    per link) and the namespaced export names it is given."""

    return _memoized_key("link", decl, (), (remap_digest, exports))


def typecheck_unit_key(function, module, *, allow_caps: bool = True) -> str:
    """RichWasm per-function typecheck unit key."""

    return _memoized_key("typecheck", function, (), (signature_env_digest(module), allow_caps))


def lower_unit_key(function, module) -> str:
    """RichWasm → Wasm per-function lowering unit key.

    No :class:`repro.api.CompileConfig` field feeds this key: of the
    compile-content fields, ``memory_pages`` only sizes the module's memory
    declaration, ``link_name`` only names the module, and the optimization
    level acts one stage later — per-function lowering output depends on the
    function body and the signature environment alone.
    """

    return _memoized_key("lower", function, (), (signature_env_digest(module),))


def optimize_unit_key(function: WasmFunction, passes) -> str:
    """Per-(function passes, function) optimization unit key.

    ``passes`` is the pipeline's function-pass name tuple or its precomputed
    :func:`~repro.core.syntax.structural_digest` (both give the same key).
    The pass names are the config-relevant ingredient: ``opt_level``
    expands to an ordered pass list, and each function's fixpoint under its
    function passes is memoized as one unit.
    """

    return _memoized_key("optimize", function, (passes,), ())


def validate_unit_key(function: WasmFunction, module: WasmModule) -> str:
    """Per-function Wasm validation unit key."""

    return _memoized_key("validate", function, (), (wasm_signature_digest(module),))


def decode_unit_key(function: WasmFunction) -> str:
    """Per-function flat-decode unit key — decode is context-free."""

    return _memoized_key("decode", function, (), ())


def translate_unit_key(function: WasmFunction, module: WasmModule, index: int) -> str:
    """Per-function pygen translation unit key.

    The signature digest covers the callee arities and host import types the
    emitted call sites bake in; the slot index is baked into the generated
    function name and host-call dispatch, so it is part of the key too.
    """

    return _memoized_key("translate", function, (), (wasm_signature_digest(module), index))


# ---------------------------------------------------------------------------
# The unit cache
# ---------------------------------------------------------------------------


@dataclass
class UnitStats:
    """Reuse counters for one stage's per-function units.

    ``reused``/``compiled`` count lookups as they happen, with no lock and no
    registry call (:meth:`FunctionUnitCache.get` bumps them inline).
    :meth:`publish` mirrors what they gained since the last publish to the
    process-wide ``compile.units.events`` counter under one lock, so once
    published the two always agree; :meth:`FunctionUnitCache.delta` publishes
    at the end of every facade stage.
    """

    stage: str
    reused: int = 0
    compiled: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    #: ``(reused, compiled)`` as of the last :meth:`publish`.
    _published: tuple = field(default=(0, 0), repr=False, compare=False)
    #: ``event`` -> this stage's ``compile.units.events`` label key, built once.
    _event_keys: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._event_keys = {
            event: label_key({"stage": self.stage, "event": event})
            for event in ("hit", "miss")
        }

    @property
    def lookups(self) -> int:
        return self.reused + self.compiled

    def publish(self) -> None:
        """Add the lookups counted since the last publish to
        ``compile.units.events``."""

        with self._lock:
            reused, compiled = self.reused, self.compiled
            published_reused, published_compiled = self._published
            if reused != published_reused:
                _UNIT_EVENTS.inc_key(self._event_keys["hit"], reused - published_reused)
            if compiled != published_compiled:
                _UNIT_EVENTS.inc_key(self._event_keys["miss"], compiled - published_compiled)
            self._published = (reused, compiled)

    def reset(self) -> None:
        """Publish what is pending, then zero the counters."""

        self.publish()
        with self._lock:
            self.reused = self.compiled = 0
            self._published = (0, 0)


class FunctionUnitCache:
    """Per-function artifact store, one table per compile stage.

    Artifacts are immutable (or treated as such) and never ``None``; ``get``
    returns ``None`` on a miss and counts every lookup, so one ``get`` is
    one hit-or-miss regardless of whether the caller ``put``s afterwards.
    The tables are unbounded, like :class:`~repro.runtime.ModuleCache`'s
    stores; :meth:`clear` drops them.
    """

    def __init__(self) -> None:
        self._tables: dict[str, dict[str, object]] = {stage: {} for stage in UNIT_STAGES}
        self.stats: dict[str, UnitStats] = {stage: UnitStats(stage) for stage in UNIT_STAGES}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(f"{stage}={len(table)}" for stage, table in self._tables.items())
        return f"FunctionUnitCache({sizes})"

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    # -- storage -----------------------------------------------------------

    def get(self, stage: str, key: str):
        value = self._tables[stage].get(key)
        stats = self.stats[stage]
        if value is None:
            stats.compiled += 1
        else:
            stats.reused += 1
        return value

    def put(self, stage: str, key: str, value: object) -> None:
        self._tables[stage][key] = value

    def clear(self) -> None:
        """Drop every table and zero the stats.

        Artifacts handed out earlier (lowered functions composed into cached
        modules, adopted translations) are owned by their consumers — clear
        only forgets the per-function memo, it strands nothing.
        """

        for table in self._tables.values():
            table.clear()
        for stats in self.stats.values():
            stats.reset()

    def sizes(self) -> dict[str, int]:
        return {stage: len(table) for stage, table in self._tables.items()}

    # -- snapshots (for Diagnostics deltas) --------------------------------

    def snapshot(self) -> dict[str, tuple[int, int]]:
        """Per-stage ``(reused, compiled)`` counters, for before/after deltas."""

        return {stage: (stats.reused, stats.compiled) for stage, stats in self.stats.items()}

    def publish(self) -> None:
        """Mirror every stage's unpublished lookups to ``compile.units.events``."""

        for stats in self.stats.values():
            stats.publish()

    def delta(self, before: dict[str, tuple[int, int]]) -> dict[str, dict[str, int]]:
        """Per-stage reuse since ``before`` (stages with no lookups omitted).

        Publishes the lookups first (:meth:`publish`): the facade takes one
        delta per stage, so ``compile.units.events`` moves once per stage,
        not once per lookup.
        """

        self.publish()
        changed: dict[str, dict[str, int]] = {}
        for stage, stats in self.stats.items():
            reused_before, compiled_before = before.get(stage, (0, 0))
            reused = stats.reused - reused_before
            compiled = stats.compiled - compiled_before
            if reused or compiled:
                changed[stage] = {"reused": reused, "compiled": compiled}
        return changed

    # -- key builders (the duck-typed surface lower layers call) -----------

    def frontend_key(self, frontend: str, function, env_digest: bytes, *bases: int) -> str:
        return frontend_unit_key(frontend, function, env_digest, *bases)

    def link_key(self, decl, remap_digest: bytes, exports: tuple) -> str:
        return link_unit_key(decl, remap_digest, exports)

    def typecheck_key(self, function, module, *, allow_caps: bool = True) -> str:
        return typecheck_unit_key(function, module, allow_caps=allow_caps)

    def lower_key(self, function, module) -> str:
        return lower_unit_key(function, module)

    def optimize_key(self, function, passes) -> str:
        return optimize_unit_key(function, passes)

    def validate_key(self, function, module) -> str:
        return validate_unit_key(function, module)

    def decode_key(self, function) -> str:
        return decode_unit_key(function)

    def translate_key(self, function, module, index: int) -> str:
        return translate_unit_key(function, module, index)


__all__ = [
    "UNIT_STAGES",
    "FunctionUnitCache",
    "UnitStats",
    "unit_key",
    "wasm_signature_digest",
    "frontend_unit_key",
    "link_unit_key",
    "typecheck_unit_key",
    "lower_unit_key",
    "optimize_unit_key",
    "validate_unit_key",
    "decode_unit_key",
    "translate_unit_key",
]
