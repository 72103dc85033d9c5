"""The Wasm execution facade and shared runtime state.

This module holds the runtime objects every execution engine shares —
:class:`LinearMemory`, :class:`WasmInstance`, :class:`WasmTrap`, value
normalization — plus :class:`WasmInterpreter`, the stable entry point the
rest of the repo (``opt.verify``, ``ffi.program``, ``lower``, examples,
tests) programs against.

The actual instruction execution lives in :mod:`repro.wasm.engine` behind
the :class:`~repro.wasm.engine.ExecutionEngine` abstraction:

* ``engine="flat"`` (default) — the pre-decoded flat-code VM;
* ``engine="tree"`` — the original recursive tree-walker.

``WasmInterpreter`` is a thin facade: it resolves an engine once in its
constructor and forwards ``instantiate``/``invoke``/``invoke_index`` and the
``steps``/``max_steps`` counters, so existing call sites keep working
unchanged while the engine stays swappable (also via the
``REPRO_WASM_ENGINE`` environment variable).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from ..core.semantics import numerics
from ..core.typing.errors import WasmError
from .ast import PAGE_SIZE, ValType, WasmFunction, WasmImportedFunction, WasmModule


class WasmTrap(WasmError):
    """A WebAssembly trap."""


WasmValue = Union[int, float]
HostFunction = Callable[..., Sequence[WasmValue]]

_I32, _I64, _F32 = ValType.I32, ValType.I64, ValType.F32


def _normalize(valtype: ValType, value: WasmValue) -> WasmValue:
    """Normalize a host-supplied value to its canonical runtime form.

    Wasm values are bit patterns: an ``i32`` argument of ``-5`` denotes the
    same value as ``0xFFFFFFFB``.  Normalizing at the boundary (function
    arguments, host-call results, constant expressions) guarantees every
    value on the operand stack is in wrapped/canonical form — an invariant
    the optimizer's conversion-elimination passes rely on.
    """

    # Identity tests, not ``valtype.is_integer``/``bit_width``: those enum
    # properties cost more than the normalization itself, which runs on
    # every external argument and host result.
    if valtype is _I32:
        return int(value) & numerics.MASK32
    if valtype is _I64:
        return int(value) & numerics.MASK64
    if valtype is _F32:
        return numerics.float_canon(float(value), 32)
    return float(value)


def arity_error(instance: "WasmInstance", index: int, expected: int, got: int) -> WasmError:
    """The error every engine raises for an external call whose argument
    count differs from the function's parameter count (Wasm has no such
    call; surplus arguments would otherwise land in local slots)."""

    target = instance.funcs[index]
    declared = instance.module.functions[index] if index < len(instance.module.functions) else None
    if isinstance(target, WasmFunction):
        name = target.name
    elif isinstance(declared, WasmImportedFunction):
        name = f"{declared.module}.{declared.name}"
    else:
        name = None
    name = name or f"#{index}"
    return WasmError(
        f"function {name!r} takes {expected} argument{'' if expected == 1 else 's'}, called with {got}"
    )


# The Wasm 1.0 hard limit: memory is indexed by u32 byte addresses, so it can
# never exceed 2**32 bytes = 65536 pages, declared maximum or not.
MAX_MEMORY_PAGES = (1 << 32) // PAGE_SIZE

_VIEW_HELD_MESSAGE = (
    "cannot resize memory while a zero-copy view from read() is held; "
    "release the view (or use read_bytes() for data that must survive grow)"
)


@dataclass
class LinearMemory:
    """A byte-addressed linear memory made of 64 KiB pages.

    Reads go through a cached :class:`memoryview` over the backing
    ``bytearray``, so :meth:`read` is zero-copy; writes are in-place slice
    assignments.  :meth:`grow` extends the backing store in place (object
    identity is preserved, so engines that bound ``memory.data`` locally stay
    valid) after releasing and re-creating the cached view.

    Callers must not hold a view returned by :meth:`read` across a
    :meth:`grow` or a resizing :meth:`reset` — resizing requires the buffer
    to be unexported, so either raises a :class:`BufferError` naming the
    hazard (and leaves the memory unchanged) while a view is outstanding.
    Use :meth:`read_bytes` for data that must survive a resize.
    """

    pages: int = 1
    max_pages: Optional[int] = None
    data: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if not self.data:
            self.data = bytearray(self.pages * PAGE_SIZE)
        elif not isinstance(self.data, bytearray):
            self.data = bytearray(self.data)
        self._view = memoryview(self.data)

    def size_pages(self) -> int:
        return len(self.data) // PAGE_SIZE

    def grow(self, delta_pages: int) -> int:
        """Grow by ``delta_pages``, returning the old size in pages.

        Per Wasm semantics the failure mode is a ``-1`` result, never a trap:
        a negative delta (an out-of-range u32 at the instruction level), a
        delta exceeding the declared ``max_pages``, or one exceeding the
        4 GiB / :data:`MAX_MEMORY_PAGES` hard limit all return ``-1`` and
        leave the memory unchanged.
        """

        old = self.size_pages()
        if delta_pages < 0:
            return -1
        new = old + delta_pages
        limit = MAX_MEMORY_PAGES if self.max_pages is None else min(self.max_pages, MAX_MEMORY_PAGES)
        if new > limit:
            return -1
        if delta_pages == 0:
            return old
        self._view.release()
        try:
            self.data.extend(bytes(delta_pages * PAGE_SIZE))
        except BufferError as exc:
            raise BufferError(_VIEW_HELD_MESSAGE) from exc
        finally:
            self._view = memoryview(self.data)
        return old

    def reset(self, image: bytes) -> None:
        """Restore the backing store to ``image`` in place.

        Identity-preserving like :meth:`grow` (bindings to ``data`` stay
        valid) and resizing: a memory grown past ``len(image)`` shrinks back.
        Used by the instance pool to recycle instances without
        re-instantiating.  A same-size image is copied through the cached
        view: no resize, so it succeeds while a :meth:`read` view is held.
        """

        if len(image) == len(self.data):
            self._view[:] = image
            return
        self._view.release()
        try:
            self.data[:] = image
        except BufferError as exc:
            raise BufferError(_VIEW_HELD_MESSAGE) from exc
        finally:
            self._view = memoryview(self.data)

    def _check(self, address: int, length: int) -> None:
        if address < 0 or address + length > len(self.data):
            raise WasmTrap(
                f"out-of-bounds memory access at {address} (+{length}), memory is {len(self.data)} bytes"
            )

    def read(self, address: int, length: int) -> memoryview:
        """Bounds-checked zero-copy read of ``length`` bytes."""

        self._check(address, length)
        return self._view[address : address + length]

    def read_bytes(self, address: int, length: int) -> bytes:
        """Bounds-checked read returning an owned :class:`bytes` copy."""

        self._check(address, length)
        return bytes(self.data[address : address + length])

    def write(self, address: int, payload: bytes) -> None:
        self._check(address, len(payload))
        self.data[address : address + len(payload)] = payload


# One process-wide source of ``FuncList`` versions, so a version recorded
# for one list can never match another.
_FUNCS_VERSIONS = itertools.count()


class FuncList(list):
    """``WasmInstance.funcs``: a list that stamps a fresh ``version`` on
    every mutation (item/slice assignment, ``del``, ``append``, ``extend``,
    ``insert``, ``pop``, ``remove``, ``clear``, ``sort``, ``reverse``,
    ``+=``, ``*=``).

    Engines cache code derived from the function slots; an unchanged
    version tells them in O(1) that the cache is still current (see
    :class:`CodeSnapshot`).
    """

    __slots__ = ("version",)

    def __init__(self, iterable=()) -> None:
        super().__init__(iterable)
        self.version = next(_FUNCS_VERSIONS)


def _versioned(name: str):
    method = getattr(list, name)

    def mutate(self, *args, **kwargs):
        self.version = next(_FUNCS_VERSIONS)
        return method(self, *args, **kwargs)

    mutate.__name__, mutate.__qualname__, mutate.__doc__ = name, f"FuncList.{name}", method.__doc__
    return mutate


for _name in (
    "__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
    "insert", "pop", "remove", "clear", "sort", "reverse",
):
    setattr(FuncList, _name, _versioned(_name))
del _name


class CodeSnapshot:
    """The function slots an engine's cached code was built from.

    The tree walker reads ``instance.funcs`` live, so a patched slot (say,
    an optimized body swapped in after instantiation) takes effect at once
    there; the flat VM's decode and the compiled tier's translation must not
    keep running stale code.  :meth:`is_current` answers in O(1) while
    ``funcs.version`` is the one recorded here.  After a mutation it falls
    back to identity-comparing the slots — defined bodies are immutable, so
    slot identity is exactly code identity — and, when every slot still
    matches (a pool reset that put the same functions back), adopts the new
    version.  Engines check at external invoke boundaries: calls already
    running keep the code they started with.
    """

    __slots__ = ("funcs", "version")

    def __init__(self, funcs: FuncList) -> None:
        self.funcs = tuple(funcs)
        self.version = funcs.version

    def is_current(self, funcs: FuncList) -> bool:
        return funcs.version == self.version or self._rescan(funcs)

    def _rescan(self, funcs: FuncList) -> bool:
        cached = self.funcs
        if len(cached) != len(funcs):
            return False
        for old, new in zip(cached, funcs):
            if old is not new:
                return False
        self.version = funcs.version
        return True


@dataclass
class WasmInstance:
    """A runtime instance of a Wasm module.

    ``funcs`` is a :class:`FuncList` (a plain list passed in is converted);
    patch it in place rather than rebinding the attribute.
    """

    module: WasmModule
    funcs: FuncList = field(default_factory=FuncList)  # WasmFunction | HostFunction
    globals: list[WasmValue] = field(default_factory=list)
    memory: Optional[LinearMemory] = None
    table: list[int] = field(default_factory=list)
    exports: dict[str, int] = field(default_factory=dict)
    # Flat-code cache filled by the flat VM at instantiation (or lazily on
    # first invoke when the instance was built by another engine), plus the
    # snapshot of ``funcs`` it was decoded from: the flat VM re-decodes when
    # the snapshot is no longer current, so patched instances never execute
    # stale flat code.
    decoded: Optional[list] = field(default=None, repr=False, compare=False)
    decoded_snapshot: Optional[CodeSnapshot] = field(default=None, repr=False, compare=False)
    # The compiled tier's per-instance translation (``repro.wasm.pygen``).
    compiled_py: Optional[object] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.funcs) is not FuncList:
            self.funcs = FuncList(self.funcs)


class WasmInterpreter:
    """Instantiates and executes Wasm modules on a pluggable engine.

    ``engine`` accepts an engine name (``"flat"``, ``"tree"``), an
    :class:`~repro.wasm.engine.ExecutionEngine` instance, or ``None`` for the
    default (``$REPRO_WASM_ENGINE`` when set, else the flat VM).
    """

    def __init__(self, *, max_steps: Optional[int] = None, engine=None) -> None:
        from .engine import create_engine

        self.engine = create_engine(engine, max_steps=max_steps)

    @property
    def engine_name(self) -> str:
        return self.engine.name

    @property
    def max_steps(self) -> Optional[int]:
        return self.engine.max_steps

    @max_steps.setter
    def max_steps(self, value: Optional[int]) -> None:
        self.engine.max_steps = value

    @property
    def steps(self) -> int:
        return self.engine.steps

    @steps.setter
    def steps(self, value: int) -> None:
        self.engine.steps = value

    # -- delegation --------------------------------------------------------

    def instantiate(
        self,
        module: WasmModule,
        host_imports: Optional[dict[tuple[str, str], HostFunction]] = None,
    ) -> WasmInstance:
        return self.engine.instantiate(module, host_imports)

    def invoke(self, instance: WasmInstance, name: str, args: Sequence[WasmValue] = ()) -> list[WasmValue]:
        return self.engine.invoke(instance, name, args)

    def invoke_index(self, instance: WasmInstance, index: int, args: Sequence[WasmValue]) -> list[WasmValue]:
        return self.engine.invoke_index(instance, index, args)

    def _eval_const_expr(self, body, instance: WasmInstance) -> WasmValue:
        return self.engine._eval_const_expr(body, instance)
