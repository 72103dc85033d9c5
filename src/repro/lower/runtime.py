"""The Wasm-level runtime emitted alongside every lowered module (paper §6).

The paper lowers both RichWasm memories into one flat Wasm memory managed by
"a simple free list allocator".  This module builds that allocator as a pair
of Wasm functions:

* ``$rw_malloc (i32) -> (i32)`` — first-fit free-list allocation with an
  8-byte ``[size][next]`` header per block; falls back to bump allocation
  (growing the memory when needed);
* ``$rw_free (i32) -> ()`` — pushes the block onto the free list.

Two mutable globals hold the free-list head and the bump pointer.  The
lowering pass reserves function indices for the runtime and addresses the
allocator through :class:`RuntimeLayout`.

The paper notes that, because current Wasm lacks GC with finalizers, a
RichWasm runtime must bring its own collector.  This reproduction's lowered
runtime does *not* collect unrestricted garbage (allocations into the
"unrestricted half" are simply never freed); the RichWasm-level interpreter
does collect, and EXPERIMENTS.md records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..wasm.ast import (
    Binop,
    Const,
    GlobalGet,
    GlobalSet,
    Load,
    LocalGet,
    LocalSet,
    LocalTee,
    MemoryGrow,
    MemorySize,
    PAGE_SIZE,
    Relop,
    StoreI,
    Testop,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmGlobal,
    WBlock,
    WBr,
    WBrIf,
    WIf,
    WLoop,
    WReturn,
    WUnreachable,
)

#: Start of the heap: the first 16 bytes of memory are reserved (null pointer
#: protection plus scratch space), so a returned pointer is never 0.
HEAP_BASE = 16

#: Size of the per-block header: 4 bytes of block size + 4 bytes of next link.
BLOCK_HEADER_BYTES = 8


@dataclass(frozen=True)
class RuntimeLayout:
    """Indices of the runtime pieces within the lowered module."""

    free_list_global: int
    bump_global: int
    malloc_index: int
    free_index: int


def build_runtime_globals() -> list[WasmGlobal]:
    """The two allocator globals: free-list head (0 = empty) and bump pointer."""

    return [
        WasmGlobal(ValType.I32, True, (Const(ValType.I32, 0),), name="rw_free_list"),
        WasmGlobal(ValType.I32, True, (Const(ValType.I32, HEAP_BASE),), name="rw_bump"),
    ]


@lru_cache(maxsize=64)
def build_malloc(layout: RuntimeLayout) -> WasmFunction:
    """``$rw_malloc``: first-fit free-list allocation, bump fallback.

    Locals: 0 = requested size (param), 1 = current block, 2 = previous block,
    3 = result pointer.  Cached per layout (as is :func:`build_free`), so
    relowering a module returns the same function object and its memoized
    unit keys.
    """

    free_list = layout.free_list_global
    bump = layout.bump_global

    body = (
        # Round the request up to a multiple of 8 bytes (and at least 8).
        LocalGet(0), Const(ValType.I32, 7), Binop(ValType.I32, "add"),
        Const(ValType.I32, -8), Binop(ValType.I32, "and"),
        LocalSet(0),
        LocalGet(0), Testop(ValType.I32),
        WIf(WasmFuncType((), ()), (Const(ValType.I32, 8), LocalSet(0)), ()),
        # First-fit scan of the free list.
        GlobalGet(free_list), LocalSet(1),
        Const(ValType.I32, 0), LocalSet(2),
        WBlock(WasmFuncType((), ()), (
            WLoop(WasmFuncType((), ()), (
                # if current == 0: give up on the free list
                LocalGet(1), Testop(ValType.I32), WBrIf(1),
                # if block_size >= request: unlink and return it
                LocalGet(1), Load(ValType.I32),  # size field
                LocalGet(0), Relop(ValType.I32, "ge_u"),
                WIf(WasmFuncType((), ()), (
                    # unlink: prev ? prev.next = cur.next : head = cur.next
                    LocalGet(2), Testop(ValType.I32),
                    WIf(WasmFuncType((), ()), (
                        # prev == 0 -> update the list head
                        LocalGet(1), Load(ValType.I32, offset=4), GlobalSet(free_list),
                    ), (
                        LocalGet(2), LocalGet(1), Load(ValType.I32, offset=4), StoreI(ValType.I32, offset=4),
                    )),
                    # return payload pointer (block + header)
                    LocalGet(1), Const(ValType.I32, BLOCK_HEADER_BYTES), Binop(ValType.I32, "add"),
                    WReturn(),
                ), ()),
                # advance: prev = cur; cur = cur.next
                LocalGet(1), LocalSet(2),
                LocalGet(1), Load(ValType.I32, offset=4), LocalSet(1),
                WBr(0),
            )),
        )),
        # Bump allocation: result = bump; bump += header + size.
        GlobalGet(bump), LocalSet(3),
        GlobalGet(bump),
        LocalGet(0), Const(ValType.I32, BLOCK_HEADER_BYTES), Binop(ValType.I32, "add"),
        Binop(ValType.I32, "add"),
        GlobalSet(bump),
        # Grow the memory if the bump pointer passed the end.
        WBlock(WasmFuncType((), ()), (
            WLoop(WasmFuncType((), ()), (
                GlobalGet(bump),
                MemorySize(), Const(ValType.I32, PAGE_SIZE), Binop(ValType.I32, "mul"),
                Relop(ValType.I32, "le_u"),
                WBrIf(1),
                Const(ValType.I32, 1), MemoryGrow(),
                Const(ValType.I32, -1), Relop(ValType.I32, "eq"),
                WIf(WasmFuncType((), ()), (WUnreachable(),), ()),
                WBr(0),
            )),
        )),
        # Write the size header and return the payload pointer.
        LocalGet(3), LocalGet(0), StoreI(ValType.I32),
        LocalGet(3), Const(ValType.I32, 0), StoreI(ValType.I32, offset=4),
        LocalGet(3), Const(ValType.I32, BLOCK_HEADER_BYTES), Binop(ValType.I32, "add"),
    )
    return WasmFunction(
        functype=WasmFuncType((ValType.I32,), (ValType.I32,)),
        locals=(ValType.I32, ValType.I32, ValType.I32),
        body=body,
        name="rw_malloc",
    )


@lru_cache(maxsize=64)
def build_free(layout: RuntimeLayout) -> WasmFunction:
    """``$rw_free``: push the block (payload pointer - header) onto the free list."""

    free_list = layout.free_list_global
    body = (
        # block = ptr - header
        LocalGet(0), Const(ValType.I32, BLOCK_HEADER_BYTES), Binop(ValType.I32, "sub"),
        LocalSet(1),
        # block.next = head
        LocalGet(1), GlobalGet(free_list), StoreI(ValType.I32, offset=4),
        # head = block
        LocalGet(1), GlobalSet(free_list),
    )
    return WasmFunction(
        functype=WasmFuncType((ValType.I32,), ()),
        locals=(ValType.I32,),
        body=body,
        name="rw_free",
    )
