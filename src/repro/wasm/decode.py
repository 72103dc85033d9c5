"""Pre-decoding of Wasm function bodies into flat, pc-addressed code.

The tree-walking engine re-discovers structure on every execution: each
``block``/``loop``/``if`` re-enters :meth:`_run_block`, each ``br`` unwinds
Python exceptions, and every instruction is re-classified with ``isinstance``
chains.  Production engines instead decode structured control flow *once*
into a linear instruction array with resolved branch targets; execution is
then a program-counter loop.  This module is that decoder.

A :class:`FlatFunction` is produced once per function at instantiation time:

* nested bodies are flattened into one ``code`` list of tuples whose first
  element is a small integer opcode (the ``OP_*`` constants below);
* ``br``/``br_if``/``br_table`` keep their static depth — the runtime label
  stack records ``(target_pc, arity, stack_base, is_loop)`` so a branch is a
  slice assignment plus a pc update, never an exception;
* numeric operators are resolved to their :mod:`repro.core.semantics.numerics`
  implementation here, so the hot loop never consults a string table;
* constants are normalized at decode time (the interpreter's
  all-values-normalized invariant), so ``i32.const -5`` pushes the already
  wrapped bit pattern.

Decoding dispatches through :data:`DECODERS`, a per-opcode handler table
keyed by AST class; the flat VM's cold (pure stack) opcodes likewise run
through a handler table (see :mod:`repro.wasm.engine`).
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional

from ..core.semantics import numerics
from ..core.typing.errors import WasmError
from .ast import (
    Binop,
    Const,
    Cvtop,
    GlobalGet,
    GlobalSet,
    Load,
    LocalGet,
    LocalSet,
    LocalTee,
    MemoryGrow,
    MemorySize,
    Relop,
    StoreI,
    Testop,
    Unop,
    ValType,
    WasmFunction,
    WasmImportedFunction,
    WBlock,
    WBr,
    WBrIf,
    WBrTable,
    WCall,
    WCallIndirect,
    WDrop,
    WIf,
    WLoop,
    WNop,
    WReturn,
    WSelect,
    WUnreachable,
)

# ---------------------------------------------------------------------------
# Opcodes
# ---------------------------------------------------------------------------
#
# Negative opcodes are *free*: they have no tree-walker counterpart and must
# not count against the step budget (``end`` of a block, the jump that skips
# an ``else`` body).  Everything >= 0 costs exactly one step, which keeps the
# two engines' ``steps`` counters — and therefore their ``max_steps`` trap
# points — bit-identical.

OP_END = -1
OP_JUMP = -2

OP_LOCAL_GET = 0
OP_LOCAL_SET = 1
OP_LOCAL_TEE = 2
OP_CONST = 3
OP_I_BINOP = 4
OP_F_BINOP = 5
OP_I_RELOP = 6
OP_F_RELOP = 7
OP_TESTOP = 8
OP_UNOP = 9
OP_CVT = 10
OP_BLOCK = 11
OP_LOOP = 12
OP_IF = 13
OP_BR = 14
OP_BR_IF = 15
OP_BR_TABLE = 16
OP_RETURN = 17
OP_CALL = 18
OP_CALL_INDIRECT = 19
OP_DROP = 20
OP_SELECT = 21
OP_NOP = 22
OP_UNREACHABLE = 23
OP_GLOBAL_GET = 24
OP_GLOBAL_SET = 25
OP_LOAD_I = 26
OP_LOAD_F = 27
OP_STORE_I = 28
OP_STORE_F = 29
OP_MEMORY_SIZE = 30
OP_MEMORY_GROW = 31


_INT_BINOPS = {
    "add": numerics.int_add,
    "sub": numerics.int_sub,
    "mul": numerics.int_mul,
    "div_s": numerics.int_div_s,
    "div_u": numerics.int_div_u,
    "rem_s": numerics.int_rem_s,
    "rem_u": numerics.int_rem_u,
    "and": numerics.int_and,
    "or": numerics.int_or,
    "xor": numerics.int_xor,
    "shl": numerics.int_shl,
    "shr_s": numerics.int_shr_s,
    "shr_u": numerics.int_shr_u,
    "rotl": numerics.int_rotl,
    "rotr": numerics.int_rotr,
}

_INT_UNOPS = {
    "clz": numerics.int_clz,
    "ctz": numerics.int_ctz,
    "popcnt": numerics.int_popcnt,
}


def _normalize_const(valtype: ValType, value):
    if valtype.is_integer:
        return numerics.wrap(int(value), valtype.bit_width)
    return numerics.float_canon(float(value), valtype.bit_width)


class FlatFunction:
    """A pre-decoded function body: flat code, flat locals, resolved ops."""

    __slots__ = ("functype", "n_params", "n_results", "local_inits", "code", "name")

    def __init__(self, functype, n_params, n_results, local_inits, code, name=None):
        self.functype = functype
        self.n_params = n_params
        self.n_results = n_results
        self.local_inits = local_inits  # tuple of 0 / 0.0 for declared locals
        self.code = code  # list of opcode tuples
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlatFunction(name={self.name!r}, {self.n_params}->{self.n_results}, {len(self.code)} ops)"


class HostEntry:
    """A host function slot in the decoded function table."""

    __slots__ = ("fn", "functype")

    def __init__(self, fn, functype):
        self.fn = fn
        self.functype = functype


# ---------------------------------------------------------------------------
# Conversion handlers
# ---------------------------------------------------------------------------
#
# Resolved handlers are ``functools.partial`` over module-level functions —
# never lambdas or local closures — so a :class:`FlatFunction` pickles: the
# disk tier persists flat code under its content key.  A partial call is
# C-level, so the flat VM's per-instruction cost matches the
# old closures.

from functools import partial


def _cvt_wrap(v):
    return numerics.wrap(int(v), 32)


def _cvt_extend(signed, v):
    value = numerics.to_signed(int(v), 32) if signed else numerics.to_unsigned(int(v), 32)
    return numerics.wrap(value, 64)


def _cvt_trunc(width, signed, v):
    return numerics.trunc_float_to_int(float(v), width, signed)


def _cvt_convert(source_width, signed, target_width, v):
    return numerics.convert_int_to_float(int(v), source_width, signed, target_width)


def _cvt_demote(v):
    return numerics.float_canon(float(v), 32)


def _cvt_reinterpret_i2f(width, v):
    return numerics.reinterpret_int_to_float(int(v), width)


def _cvt_reinterpret_f2i(width, v):
    return numerics.reinterpret_float_to_int(float(v), width)


def _unop_int(fn, width, v):
    return fn(int(v), width)


def _unop_float(op, width, v):
    return numerics.float_unop(op, float(v), width)


# One handler object per distinct operator shape: decode re-emits the same
# conversion thousands of times across a module, and sharing the instance
# keeps both the decode allocation count and the pickled flat code small.
_HANDLER_MEMO: dict[tuple, Callable] = {}


def _handler(fn, *args) -> Callable:
    key = (fn, *args)
    handler = _HANDLER_MEMO.get(key)
    if handler is None:
        handler = _HANDLER_MEMO[key] = partial(fn, *args) if args else fn
    return handler


def _build_cvt(instr: Cvtop) -> Callable:
    """Resolve a conversion to a single-argument callable at decode time.

    Mirrors the tree walker's ``_cvtop`` case analysis exactly, including the
    ``int()``/``float()`` coercions, so both engines agree bit-for-bit.
    """

    op = instr.op
    if op == "wrap":
        return _handler(_cvt_wrap)
    if op in ("extend_s", "extend_u"):
        return _handler(_cvt_extend, op == "extend_s")
    if op in ("trunc_s", "trunc_u"):
        return _handler(_cvt_trunc, instr.target.bit_width, op == "trunc_s")
    if op in ("convert_s", "convert_u"):
        return _handler(
            _cvt_convert, instr.source.bit_width, op == "convert_s", instr.target.bit_width
        )
    if op == "promote":
        return float
    if op == "demote":
        return _handler(_cvt_demote)
    if op == "reinterpret":
        if instr.source.is_integer:
            return _handler(_cvt_reinterpret_i2f, instr.source.bit_width)
        return _handler(_cvt_reinterpret_f2i, instr.source.bit_width)
    raise WasmError(f"unknown conversion {op!r}")


def _build_unop(instr: Unop) -> Callable:
    width = instr.valtype.bit_width
    if instr.valtype.is_integer:
        return _handler(_unop_int, _INT_UNOPS[instr.op], width)
    return _handler(_unop_float, instr.op, width)


# ---------------------------------------------------------------------------
# The decoder
# ---------------------------------------------------------------------------


class _FunctionDecoder:
    def __init__(self) -> None:
        self.code: list[tuple] = []

    # -- emit helpers ------------------------------------------------------

    def emit(self, ins: tuple) -> int:
        self.code.append(ins)
        return len(self.code) - 1

    def patch(self, index: int, ins: tuple) -> None:
        self.code[index] = ins

    # -- structured control flow ------------------------------------------

    def decode_seq(self, body) -> None:
        for instr in body:
            DECODERS[instr.__class__](self, instr)

    def decode_block(self, instr: WBlock) -> None:
        arity = len(instr.blocktype.results)
        n_params = len(instr.blocktype.params)
        header = self.emit(())  # patched once the end is known
        self.decode_seq(instr.body)
        end = self.emit((OP_END,))
        # Branches to a block label land *after* the end marker (the branch
        # already popped the label); fallthrough runs OP_END which pops it.
        self.patch(header, (OP_BLOCK, end + 1, arity, n_params))

    def decode_loop(self, instr: WLoop) -> None:
        # A loop label's branch arity is its parameter count (branching
        # re-enters the loop), but fallthrough at the end keeps the *result*
        # values — the two counts differ for non-uniform blocktypes.
        n_params = len(instr.blocktype.params)
        n_results = len(instr.blocktype.results)
        header = self.emit(())
        body_start = len(self.code)
        self.decode_seq(instr.body)
        self.emit((OP_END,))
        self.patch(header, (OP_LOOP, body_start, n_params, n_results))

    def decode_if(self, instr: WIf) -> None:
        arity = len(instr.blocktype.results)
        n_params = len(instr.blocktype.params)
        header = self.emit(())
        self.decode_seq(instr.then_body)
        if instr.else_body:
            jump = self.emit(())  # skip the else body after the then body
            else_start = len(self.code)
            self.decode_seq(instr.else_body)
            end = self.emit((OP_END,))
            self.patch(jump, (OP_JUMP, end))
        else:
            else_start = len(self.code)
            end = self.emit((OP_END,))
        self.patch(header, (OP_IF, else_start, end + 1, arity, n_params))

    # -- leaf instructions -------------------------------------------------

    def decode_const(self, instr: Const) -> None:
        self.emit((OP_CONST, _normalize_const(instr.valtype, instr.value)))

    def decode_binop(self, instr: Binop) -> None:
        width = instr.valtype.bit_width
        if instr.valtype.is_integer:
            self.emit((OP_I_BINOP, _INT_BINOPS[instr.op], width))
        else:
            self.emit((OP_F_BINOP, instr.op, width))

    def decode_relop(self, instr: Relop) -> None:
        if instr.valtype.is_integer:
            base = instr.op.split("_")[0]
            signed = instr.op.endswith("_s")
            self.emit((OP_I_RELOP, base, signed, instr.valtype.bit_width))
        else:
            self.emit((OP_F_RELOP, instr.op))

    def decode_load(self, instr: Load) -> None:
        if instr.width is not None:
            # Narrow load: read width//8 bytes, optionally sign-extend, wrap
            # to the value type's width — exactly the tree walker's order.
            self.emit(
                (
                    OP_LOAD_I,
                    instr.offset,
                    instr.width // 8,
                    instr.width if instr.signed else 0,
                    instr.valtype.bit_width,
                )
            )
        elif instr.valtype.is_integer:
            self.emit((OP_LOAD_I, instr.offset, instr.valtype.byte_width, 0, 0))
        else:
            fmt = "<f" if instr.valtype is ValType.F32 else "<d"
            self.emit((OP_LOAD_F, instr.offset, fmt, instr.valtype.byte_width))

    def decode_store(self, instr: StoreI) -> None:
        # The last field says whether the store writes its operand's full
        # width (the compiled tier then needs no mask: operands are normalized).
        if instr.width is not None or instr.valtype.is_integer:
            width = instr.valtype.bit_width if instr.width is None else instr.width
            whole = instr.valtype.is_integer and width == instr.valtype.bit_width
            self.emit((OP_STORE_I, instr.offset, width // 8, (1 << width) - 1, whole))
        else:
            fmt = "<f" if instr.valtype is ValType.F32 else "<d"
            self.emit((OP_STORE_F, instr.offset, fmt, instr.valtype.byte_width))


def _d_simple(op):
    def decoder(self: _FunctionDecoder, _instr) -> None:
        self.emit((op,))

    return decoder


def _d_index(op):
    def decoder(self: _FunctionDecoder, instr) -> None:
        self.emit((op, instr.index))

    return decoder


DECODERS: dict[type, Callable[[_FunctionDecoder, object], None]] = {
    Const: _FunctionDecoder.decode_const,
    Binop: _FunctionDecoder.decode_binop,
    Unop: lambda self, instr: self.emit((OP_UNOP, _build_unop(instr))),
    Testop: lambda self, instr: self.emit((OP_TESTOP, instr.valtype.bit_width)),
    Relop: _FunctionDecoder.decode_relop,
    Cvtop: lambda self, instr: self.emit((OP_CVT, _build_cvt(instr))),
    WUnreachable: _d_simple(OP_UNREACHABLE),
    WNop: _d_simple(OP_NOP),
    WDrop: _d_simple(OP_DROP),
    WSelect: _d_simple(OP_SELECT),
    WBlock: _FunctionDecoder.decode_block,
    WLoop: _FunctionDecoder.decode_loop,
    WIf: _FunctionDecoder.decode_if,
    WBr: lambda self, instr: self.emit((OP_BR, instr.depth)),
    WBrIf: lambda self, instr: self.emit((OP_BR_IF, instr.depth)),
    WBrTable: lambda self, instr: self.emit((OP_BR_TABLE, instr.depths, instr.default)),
    WReturn: _d_simple(OP_RETURN),
    WCall: lambda self, instr: self.emit((OP_CALL, instr.func_index)),
    WCallIndirect: lambda self, instr: self.emit((OP_CALL_INDIRECT, instr.functype)),
    LocalGet: _d_index(OP_LOCAL_GET),
    LocalSet: _d_index(OP_LOCAL_SET),
    LocalTee: _d_index(OP_LOCAL_TEE),
    GlobalGet: _d_index(OP_GLOBAL_GET),
    GlobalSet: _d_index(OP_GLOBAL_SET),
    Load: _FunctionDecoder.decode_load,
    StoreI: _FunctionDecoder.decode_store,
    MemorySize: _d_simple(OP_MEMORY_SIZE),
    MemoryGrow: _d_simple(OP_MEMORY_GROW),
}


class _MissingDecoder(dict):
    def __missing__(self, cls):
        raise WasmError(f"no execution rule for Wasm instruction class {cls.__name__}")


DECODERS = _MissingDecoder(DECODERS)


def decode_function(function: WasmFunction) -> FlatFunction:
    """Flatten one defined function into pc-addressed code."""

    decoder = _FunctionDecoder()
    decoder.decode_seq(function.body)
    local_inits = tuple(0 if valtype.is_integer else 0.0 for valtype in function.locals)
    return FlatFunction(
        functype=function.functype,
        n_params=len(function.functype.params),
        n_results=len(function.functype.results),
        local_inits=local_inits,
        code=decoder.code,
        name=function.name,
    )


class DecodedModule:
    """The module-level decode artifact: one :class:`FlatFunction` per
    defined function, ``None`` at imported slots.

    Produced once per :class:`~repro.wasm.ast.WasmModule` object by
    :func:`decode_module` and shared by every instance of that module —
    instantiation only has to fill in the per-instance host entries.
    ``functions`` keeps the exact ``module.functions`` tuple the decode was
    built from, so consumers can check a function slot by identity.
    """

    __slots__ = ("functions", "flat")

    def __init__(self, functions: tuple, flat: list):
        self.functions = functions
        self.flat = flat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        defined = sum(1 for entry in self.flat if entry is not None)
        return f"DecodedModule({defined} defined / {len(self.flat)} functions)"


# Per-module decode memo.  WasmModule is a frozen dataclass whose hash walks
# the whole AST, so the memo is keyed by id() with a weakref guard: a hit
# requires the weakref to still resolve to the very same object (id reuse
# after collection therefore cannot alias), and dead entries are evicted by
# the weakref callback.
_MODULE_DECODE_CACHE: dict[int, tuple[weakref.ref, DecodedModule]] = {}


def decode_module(module: WasmModule, *, unit_cache=None) -> DecodedModule:
    """Decode every defined function of ``module``, memoized per module object.

    The flat code depends only on the (immutable) function bodies, so all
    instances of one module share a single decode — the compile-once half of
    the compile-once/run-many runtime layer.  With a ``unit_cache``
    (:class:`repro.compilepipe.FunctionUnitCache`) the per-function flat code
    is additionally reused *across* module versions by body digest:
    :class:`FlatFunction` is immutable and decode reads nothing outside the
    body, so sharing by content is exact.
    """

    key = id(module)
    entry = _MODULE_DECODE_CACHE.get(key)
    if entry is not None and entry[0]() is module:
        return entry[1]

    if unit_cache is None:
        flat = [
            decode_function(target) if isinstance(target, WasmFunction) else None
            for target in module.functions
        ]
    else:
        flat = []
        for target in module.functions:
            if not isinstance(target, WasmFunction):
                flat.append(None)
                continue
            fkey = unit_cache.decode_key(target)
            cached_flat = unit_cache.get("decode", fkey)
            if cached_flat is None:
                cached_flat = decode_function(target)
                unit_cache.put("decode", fkey, cached_flat)
            flat.append(cached_flat)
    return _install_decode(module, DecodedModule(module.functions, flat))


def _install_decode(module: WasmModule, decoded: DecodedModule) -> DecodedModule:
    key = id(module)

    def _evict(ref, _key=key):
        cached = _MODULE_DECODE_CACHE.get(_key)
        if cached is not None and cached[0] is ref:
            del _MODULE_DECODE_CACHE[_key]

    _MODULE_DECODE_CACHE[key] = (weakref.ref(module, _evict), decoded)
    return decoded


def adopt_decode(module: WasmModule, flat) -> DecodedModule:
    """Seed the per-module memo with externally cached flat code.

    The disk-cache warm path uses this: :class:`FlatFunction` is immutable
    plain data (opcode tuples), so a persisted ``flat`` list can be adopted
    onto a freshly unpickled module without re-decoding — the same
    by-content sharing :func:`decode_module` already does through the
    function-unit cache, minus the per-function digest work.  ``flat`` must
    come from a module with identical function bodies (the caller keys the
    persisted artifact by content hash, which guarantees it).  A module
    already decoded keeps its decode, so adopting twice changes nothing.
    """

    entry = _MODULE_DECODE_CACHE.get(id(module))
    if entry is not None and entry[0]() is module:
        return entry[1]
    return _install_decode(module, DecodedModule(module.functions, list(flat)))


def decode_instance(instance, shared: Optional[DecodedModule] = None) -> list:
    """Build the per-instance decoded function table.

    Defined functions come from the module-level :func:`decode_module` memo
    (decoded once, shared across all instances); host imports become
    :class:`HostEntry` records carrying the declared import type.  A function
    slot that no longer matches the module by identity (``instance.funcs``
    was patched, e.g. with an optimized body) is decoded fresh instead of
    served stale.
    """

    if shared is None:
        shared = decode_module(instance.module)
    module_functions = shared.functions
    declared_functions = instance.module.functions
    decoded: list = []
    for index, target in enumerate(instance.funcs):
        if isinstance(target, WasmFunction):
            if index < len(module_functions) and module_functions[index] is target:
                decoded.append(shared.flat[index])
            else:
                decoded.append(decode_function(target))
        else:
            declared = declared_functions[index] if index < len(declared_functions) else None
            functype = declared.functype if isinstance(declared, WasmImportedFunction) else None
            decoded.append(HostEntry(target, functype))
    return decoded
