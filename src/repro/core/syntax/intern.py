"""Hash-consing (interning) for the RichWasm type syntax.

The type checker compares, shifts, substitutes and hashes the same type
trees over and over; PR 5 makes those operations cheap by *interning* every
``Type``/``Pretype``/``HeapType``/``Size``/``Qual``-variable/quantifier
node: all constructors route through one structural table, so two
structurally equal terms are **the same object**.  Each interned node lazily
carries

* a cached structural ``__hash__`` (computed once, O(children));
* a *free-variable summary* (:func:`free_levels`) — per de Bruijn namespace
  (locations, sizes, qualifiers, pretypes) the number of binders needed to
  close the term — which lets shift/substitution short-circuit on closed
  terms;
* a *canonical form* (:func:`canonical`) in which every size expression is
  normalized (constants folded, variables sorted), so type equality up to
  size normalization (``32 + σ`` ≡ ``σ + 32``) is one identity check;
* a stable *content digest* (:func:`structural_digest`) — a SHA-256 over the
  structure only (class names, field values, recursion over children), never
  over ``id()`` or ``hash()`` — the building block of the runtime cache's
  content keys, identical across processes.

How it plugs in: the syntax dataclasses take :class:`HashConsMeta` as their
metaclass and the defining module calls :func:`register` after the class
definition (supplying a free-variable rule where the generic max-over-fields
rule is wrong, i.e. for variables and binders).  The metaclass intercepts
construction: a structural hit returns the existing node, a miss builds the
node normally (``__post_init__`` validation included) and files it.  Nodes
built while interning is :func:`interning_disabled` (the benchmark baseline
mode) or arriving from another process (old pickles) are simply *not
interned*: equality and the shift/substitution fast paths detect the missing
mark and fall back to the structural algorithms, so mixed inputs stay
correct.

The table holds strong references and is never cleared: the canonical
representative of a structure must stay canonical for the lifetime of the
process (two live "interned" twins would break identity equality).  The
working set is the type vocabulary of the compiled programs, which is small
and stable in a serving process — the same unbounded-by-design trade-off as
:class:`repro.runtime.ModuleCache`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import struct
from contextlib import contextmanager
from operator import attrgetter
from typing import Callable, Optional

__all__ = [
    "CLOSED",
    "HashConsMeta",
    "canonical",
    "content_digest",
    "free_levels",
    "intern_table_size",
    "interning_disabled",
    "interning_enabled",
    "is_interned",
    "register",
    "state_without_memos",
    "structural_digest",
]

#: The four de Bruijn namespaces, in the order used by level tuples.
NAMESPACES = ("locs", "sizes", "quals", "types")

#: The free-level summary of a closed term (no free variables anywhere).
CLOSED = (0, 0, 0, 0)

_INTERN_TABLE: dict = {}
_ENABLED = True

#: Per-class free-level rules (set by :func:`register`); classes without a
#: custom rule use the generic max-over-fields rule.
_LEVELS_RULES: dict[type, Callable] = {}
#: Per-class canonicalization rules; the generic rule rebuilds the node from
#: canonicalized fields.
_CANON_RULES: dict[type, Callable] = {}
#: Every class registered for interning.
_REGISTERED: set[type] = set()


def interning_enabled() -> bool:
    """Whether constructors currently route through the intern table."""

    return _ENABLED


@contextmanager
def interning_disabled():
    """Build nodes *without* interning (the benchmark baseline mode).

    Nodes constructed inside the block carry no interning mark: equality,
    shifting, substitution and the memo layers all take their structural
    slow paths for them, faithfully reproducing the pre-interning checker.
    """

    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


def is_interned(obj: object) -> bool:
    """True when ``obj`` is the canonical interned representative."""

    d = getattr(obj, "__dict__", None)
    return bool(d) and "_hc" in d


def intern_table_size() -> int:
    """Number of distinct structures currently interned (diagnostics)."""

    return len(_INTERN_TABLE)


# ---------------------------------------------------------------------------
# The metaclass: constructor interception
# ---------------------------------------------------------------------------


class HashConsMeta(type):
    """Routes ``cls(...)`` through the structural intern table."""

    def __call__(cls, *args, **kwargs):
        arity = getattr(cls, "_hc_arity", None)
        if arity is None or not _ENABLED:
            # Not registered yet (class body still being built) or interning
            # globally off: construct a plain, unmarked instance.
            return super().__call__(*args, **kwargs)
        if kwargs or len(args) != arity:
            args = _bind_fields(cls, args, kwargs)
        key = (cls, args)
        obj = _INTERN_TABLE.get(key)
        if obj is not None:
            return obj
        obj = super().__call__(*args)
        obj.__dict__["_hc"] = True
        return _INTERN_TABLE.setdefault(key, obj)


def _bind_fields(cls, args: tuple, kwargs: dict) -> tuple:
    """Normalize positional/keyword arguments to the full field tuple."""

    names = cls._hc_fields
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given"
        )
    merged = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in cls._hc_field_set:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in merged:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        merged[name] = value
    defaults = cls._hc_defaults
    out = []
    for name in names:
        if name in merged:
            out.append(merged[name])
        elif name in defaults:
            out.append(defaults[name])
        else:
            raise TypeError(f"{cls.__name__}() missing required argument: {name!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Registration: cached hash / equality / pickling
# ---------------------------------------------------------------------------


def register(cls, *, levels: Optional[Callable] = None, canon: Optional[Callable] = None) -> type:
    """Register a frozen dataclass (with :class:`HashConsMeta`) for interning.

    ``levels`` overrides the generic free-variable rule (needed for variable
    leaves and binders); ``canon`` overrides the generic rebuild-from-
    canonical-fields rule (needed for size normalization).
    """

    flds = dataclasses.fields(cls)
    for f in flds:
        if f.default_factory is not dataclasses.MISSING:  # pragma: no cover - defensive
            raise TypeError(f"cannot intern {cls.__name__}: field {f.name} has a default_factory")
    cls._hc_fields = tuple(f.name for f in flds)
    cls._hc_field_set = frozenset(cls._hc_fields)
    cls._hc_arity = len(flds)
    cls._hc_defaults = {
        f.name: f.default for f in flds if f.default is not dataclasses.MISSING
    }
    cls.__hash__ = _hc_hash
    cls.__eq__ = _hc_eq
    cls.__reduce__ = _hc_reduce
    _REGISTERED.add(cls)
    if levels is not None:
        _LEVELS_RULES[cls] = levels
    if canon is not None:
        _CANON_RULES[cls] = canon
    return cls


def _field_values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj)._hc_fields)


def _hc_hash(self) -> int:
    d = self.__dict__
    h = d.get("_hc_hash")
    if h is None:
        h = hash((type(self).__name__,) + _field_values(self))
        d["_hc_hash"] = h
    return h


def _hc_eq(self, other):
    if self is other:
        return True
    if type(self) is not type(other):
        return NotImplemented
    if "_hc" in self.__dict__ and "_hc" in other.__dict__:
        # Both canonical: structurally equal terms would be the same object.
        return False
    return _field_values(self) == _field_values(other)


def _remake(cls, values):
    return cls(*values)


def _hc_reduce(self):
    # Pickle/deepcopy re-route through the constructor, so deserialized nodes
    # re-intern into the receiving process's table (and none of the lazily
    # cached summaries travel).
    return (_remake, (type(self), _field_values(self)))


# ---------------------------------------------------------------------------
# Free-variable summaries
# ---------------------------------------------------------------------------


def _max4(a: tuple, b: tuple) -> tuple:
    if a is CLOSED or a == CLOSED:
        return b
    if b is CLOSED or b == CLOSED:
        return a
    return (
        a[0] if a[0] >= b[0] else b[0],
        a[1] if a[1] >= b[1] else b[1],
        a[2] if a[2] >= b[2] else b[2],
        a[3] if a[3] >= b[3] else b[3],
    )


def drop_binder(levels: tuple, *, locs: int = 0, sizes: int = 0, quals: int = 0, types: int = 0) -> tuple:
    """The free levels of a term seen from *outside* binders it sits under."""

    if levels == CLOSED:
        return CLOSED
    out = (
        max(0, levels[0] - locs),
        max(0, levels[1] - sizes),
        max(0, levels[2] - quals),
        max(0, levels[3] - types),
    )
    return CLOSED if out == CLOSED else out


def levels_of_value(value) -> tuple:
    """Free levels of a field value (node, tuple of nodes, or primitive)."""

    t = type(value)
    if t in _REGISTERED:
        return free_levels(value)
    if t is tuple:
        out = CLOSED
        for item in value:
            out = _max4(out, levels_of_value(item))
        return out
    return CLOSED


def _generic_levels(node) -> tuple:
    out = CLOSED
    for name in type(node)._hc_fields:
        out = _max4(out, levels_of_value(getattr(node, name)))
    return out


def free_levels(node) -> tuple:
    """``(locs, sizes, quals, types)`` — per namespace, the number of binders
    needed to close ``node`` (0 everywhere ⇔ closed).  Cached per node."""

    d = node.__dict__
    levels = d.get("_hc_fvs")
    if levels is None:
        rule = _LEVELS_RULES.get(type(node))
        levels = rule(node) if rule is not None else _generic_levels(node)
        if levels == CLOSED:
            levels = CLOSED
        d["_hc_fvs"] = levels
    return levels


# ---------------------------------------------------------------------------
# Canonical (size-normalized) forms
# ---------------------------------------------------------------------------


def _canon_value(value):
    t = type(value)
    if t in _REGISTERED:
        return canonical(value)
    if t is tuple:
        out = tuple(_canon_value(item) for item in value)
        return value if all(a is b for a, b in zip(out, value)) else out
    return value


def _generic_canon(node):
    values = _field_values(node)
    canon_values = tuple(_canon_value(v) for v in values)
    if all(a is b for a, b in zip(canon_values, values)):
        return node
    return type(node)(*canon_values)


def canonical(node):
    """The size-normalized canonical form of an interned node.

    Two interned terms are equal *up to size normalization* iff their
    canonical forms are the same object.  Computed once per node.
    """

    d = node.__dict__
    out = d.get("_hc_canon")
    if out is None:
        rule = _CANON_RULES.get(type(node))
        out = rule(node) if rule is not None else _generic_canon(node)
        d["_hc_canon"] = out
    return out


# ---------------------------------------------------------------------------
# Structural content digests
# ---------------------------------------------------------------------------


#: The instance-``__dict__`` key under which frozen dataclasses memoize
#: their :func:`structural_digest`.
_DIGEST_MEMO = "_hc_digest"


def structural_digest(obj) -> bytes:
    """A 32-byte SHA-256 digest of ``obj``'s *structure*.

    Deterministic across processes: covers class identities (qualified
    names), enum member names and primitive values, recursing over dataclass
    fields and sequences — never ``id()``, ``hash()`` or memory addresses.
    Digests are cached on interned nodes and on frozen dataclass instances,
    so re-digesting a large module only walks the parts not seen before.

    Dispatch is one table lookup on the exact type (:func:`_digester_for`
    fills the table the first time a type shows up).  Every composite digest
    is ``sha256(tag + child digests)`` in one call, and NaNs are digested by
    their IEEE-754 bits, so NaN constants with different payloads or signs
    never share a content key.
    """

    digester = _DIGESTERS.get(type(obj))
    if digester is None:
        digester = _digester_for(type(obj))
    return digester(obj)


def has_structural_digest(obj) -> bool:
    """Whether ``obj`` already carries its :func:`structural_digest` memo, so
    digesting it again is a lookup rather than a walk.  Only frozen
    dataclass instances with a ``__dict__`` keep one; the memo travels in
    their pickles."""

    return _DIGEST_MEMO in getattr(obj, "__dict__", ())


#: Entries kept in each leaf memo (:data:`_INT_DIGESTS`, :data:`_STR_DIGESTS`);
#: past it, leaves are hashed without being filed.
LEAF_MEMO_CAP = 4096

_INT_DIGESTS: dict[int, bytes] = {}
_STR_DIGESTS: dict[str, bytes] = {}


def _digest_int(obj: int) -> bytes:
    digest = _INT_DIGESTS.get(obj)
    if digest is None:
        digest = _sha256(b"i" + repr(obj).encode()).digest()
        if len(_INT_DIGESTS) < LEAF_MEMO_CAP:
            _INT_DIGESTS[obj] = digest
    return digest


def _digest_str(obj: str) -> bytes:
    digest = _STR_DIGESTS.get(obj)
    if digest is None:
        digest = _sha256(b"s" + obj.encode()).digest()
        if len(_STR_DIGESTS) < LEAF_MEMO_CAP:
            _STR_DIGESTS[obj] = digest
    return digest


def _digest_float(obj: float) -> bytes:
    # Not memoized by value: ``-0.0 == 0.0`` would share one entry.
    if obj != obj:
        return _sha256(b"N" + _pack_f64(obj)).digest()
    return _sha256(b"f" + repr(obj).encode()).digest()


def _digest_sequence(obj) -> bytes:
    return _sha256(b"T" + b"".join(map(structural_digest, obj))).digest()


def _digest_mapping(obj: dict) -> bytes:
    return _sha256(
        b"M"
        + b"".join(
            structural_digest(key) + structural_digest(obj[key]) for key in sorted(obj, key=repr)
        )
    ).digest()


def _digest_set(obj) -> bytes:
    return _sha256(b"S" + b"".join(sorted(map(structural_digest, obj)))).digest()


def _digest_repr(obj) -> bytes:
    rendered = repr(obj)
    if " at 0x" in rendered:
        raise TypeError(
            f"cannot compute a stable structural digest for {type(obj).__name__}: its repr "
            "embeds a memory address (content keys must not leak object identity)"
        )
    return _sha256(b"r" + rendered.encode()).digest()


def _enum_digester(cls) -> Callable:
    """One digest per member, looked up by member name."""

    prefix = f"{cls.__name__}."
    table: dict = {}

    def digest(obj) -> bytes:
        name = obj._name_
        out = table.get(name)
        if out is None:
            out = table[name] = _sha256(f"e{prefix}{name}".encode()).digest()
        return out

    return digest


def _dataclass_digester(cls) -> Callable:
    """``sha256(b"D" + qualname + field digests)``, cached on frozen instances."""

    prefix = b"D" + f"{cls.__module__}.{cls.__qualname__}".encode()
    names = tuple(f.name for f in dataclasses.fields(cls))
    if len(names) > 1:
        fields = attrgetter(*names)
    elif names:
        only = attrgetter(names[0])
        fields = lambda obj: (only(obj),)
    else:
        fields = lambda obj: ()

    def compute(obj) -> bytes:
        # structural_digest inlined: one call per field instead of two.
        return _sha256(
            prefix + b"".join([(_digester_of(type(v)) or _digester_for(type(v)))(v) for v in fields(obj)])
        ).digest()

    if not cls.__dataclass_params__.frozen:
        return compute

    def digest(obj) -> bytes:
        try:
            memos = obj.__dict__
        except AttributeError:  # a slotted dataclass has nowhere to cache
            return compute(obj)
        out = memos.get(_DIGEST_MEMO)
        if out is None:
            out = memos[_DIGEST_MEMO] = compute(obj)
        return out

    return digest


def _digester_for(cls) -> Callable:
    """Build and file the digester of exact type ``cls``."""

    if issubclass(cls, enum.Enum):
        digester = _enum_digester(cls)
    elif dataclasses.is_dataclass(cls):
        digester = _dataclass_digester(cls)
    else:
        digester = _digest_repr
    _DIGESTERS[cls] = digester
    return digester


def state_without_memos(obj) -> dict:
    """``obj``'s pickle state minus its memo entries — the ``__getstate__``
    of frozen dataclasses that carry per-object memos.

    Memos (compile unit keys, callee sets) sit in the instance ``__dict__``
    under tuple keys, apart from the string-keyed fields and digest caches;
    they are cheap to rederive, so they never travel in pickles.
    """

    return {name: value for name, value in obj.__dict__.items() if type(name) is str}


def content_digest(obj) -> str:
    """Hex form of :func:`structural_digest` (for keys and reports)."""

    return structural_digest(obj).hex()


_sha256 = hashlib.sha256
_pack_f64 = struct.Struct("<d").pack
_DIGEST_NONE = _sha256(b"n").digest()
_DIGEST_TRUE = _sha256(b"b1").digest()
_DIGEST_FALSE = _sha256(b"b0").digest()

#: Exact type -> digester; :func:`_digester_for` adds enums, dataclasses and
#: the ``repr`` fallback as they are first seen.
_DIGESTERS: dict[type, Callable] = {
    type(None): lambda obj: _DIGEST_NONE,
    bool: lambda obj: _DIGEST_TRUE if obj else _DIGEST_FALSE,
    int: _digest_int,
    str: _digest_str,
    float: _digest_float,
    bytes: lambda obj: _sha256(b"y" + obj).digest(),
    tuple: _digest_sequence,
    list: _digest_sequence,
    dict: _digest_mapping,
    set: _digest_set,
    frozenset: _digest_set,
}
_digester_of = _DIGESTERS.get
