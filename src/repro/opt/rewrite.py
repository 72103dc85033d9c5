"""Shared instruction-tree rewriting helpers for the optimization passes.

Wasm function bodies are immutable tuples of instructions with nested
sequences inside ``block``/``loop``/``if``.  Passes express themselves as
*sequence rewriters*: a function taking one flat instruction sequence and
returning a new one.  :func:`map_sequences` applies such a rewriter to every
sequence in a body, bottom-up, so a rewriter never needs to recurse itself,
and keeps every sequence and block the rewriter left alone as the same
object (so a body no rewriter touched stays the same function version).

:func:`local_census` counts a body's local accesses in one walk, memoized on
the function version, for the passes that reason about locals.
"""

from __future__ import annotations

from dataclasses import replace
from operator import is_
from typing import Callable, Iterable, Optional, Sequence

from ..wasm.ast import (
    Cvtop,
    LocalGet,
    LocalSet,
    LocalTee,
    ValType,
    WasmFunction,
    WBlock,
    WIf,
    WInstr,
    WLoop,
)

SequenceRewriter = Callable[[tuple[WInstr, ...]], tuple[WInstr, ...]]

_LOCAL_ACCESSES = (LocalGet, LocalSet, LocalTee)


def map_sequences(body: Sequence[WInstr], rewriter: SequenceRewriter) -> tuple[WInstr, ...]:
    """Apply ``rewriter`` to every instruction sequence in ``body``, bottom-up.

    A sequence whose rewrite holds the very same instructions comes back as
    the original object, and a block none of whose sequences changed is
    kept as is: an identity rewriter returns ``body`` itself.
    """

    seq = tuple(body)
    rebuilt = None
    for position, instr in enumerate(seq):
        t = type(instr)
        if t is WBlock or t is WLoop:
            inner = map_sequences(instr.body, rewriter)
            if inner is instr.body:
                continue
            instr = replace(instr, body=inner)
        elif t is WIf:
            then_body = map_sequences(instr.then_body, rewriter)
            else_body = map_sequences(instr.else_body, rewriter)
            if then_body is instr.then_body and else_body is instr.else_body:
                continue
            instr = replace(instr, then_body=then_body, else_body=else_body)
        else:
            continue
        if rebuilt is None:
            rebuilt = list(seq)
        rebuilt[position] = instr
    if rebuilt is not None:
        seq = tuple(rebuilt)
    out = rewriter(seq)
    if out is not seq and len(out) == len(seq) and all(map(is_, out, seq)):
        return seq
    return out


def iter_sequences(body: Sequence[WInstr]) -> Iterable[tuple[WInstr, ...]]:
    """Yield every instruction sequence in ``body`` (including ``body`` itself)."""

    for instr in body:
        t = type(instr)
        if t is WBlock or t is WLoop:
            yield from iter_sequences(instr.body)
        elif t is WIf:
            yield from iter_sequences(instr.then_body)
            yield from iter_sequences(instr.else_body)
    yield tuple(body)


def remap_locals(body: Sequence[WInstr], mapping: dict[int, int]) -> tuple[WInstr, ...]:
    """Renumber every local reference in ``body`` through ``mapping``."""

    def rewrite(seq: tuple[WInstr, ...]) -> tuple[WInstr, ...]:
        return tuple(
            type(instr)(mapping[instr.index])
            if type(instr) in _LOCAL_ACCESSES and mapping[instr.index] != instr.index
            else instr
            for instr in seq
        )

    return map_sequences(body, rewrite)


# ---------------------------------------------------------------------------
# The local-access census
# ---------------------------------------------------------------------------

_I32, _I64, _F32, _F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64

#: Conversion sequence the lowering emits immediately *before* ``local.set``
#: when a value of the key type is stored into an i64 bank slot (``_to_i64``
#: in :mod:`repro.lower.compiler`).
WRITE_CONVS: dict[ValType, tuple[Cvtop, ...]] = {
    _I32: (Cvtop(_I64, "extend_u", _I32),),
    _F32: (Cvtop(_I32, "reinterpret", _F32), Cvtop(_I64, "extend_u", _I32)),
    _F64: (Cvtop(_I64, "reinterpret", _F64),),
}

#: Conversion sequence emitted immediately *after* ``local.get`` when the
#: slot is read back at the key type (``_from_i64``).
READ_CONVS: dict[ValType, tuple[Cvtop, ...]] = {
    _I32: (Cvtop(_I32, "wrap", _I64),),
    _F32: (Cvtop(_I32, "wrap", _I64), Cvtop(_F32, "reinterpret", _I32)),
    _F64: (Cvtop(_F64, "reinterpret", _I64),),
}

#: Coalescing candidates, widest removal first: an F32 site also matches the
#: I32 patterns as a suffix/prefix, so F32 must be preferred over I32.
CANDIDATES = (_F32, _F64, _I32)

_ALL_CANDIDATES = (1 << len(CANDIDATES)) - 1

#: Where :func:`local_census` memoizes on a function (a tuple key, so the
#: memo never pickles; see :func:`repro.core.syntax.intern.state_without_memos`).
_CENSUS_MEMO = ("census",)


class LocalCensus:
    """Every local access of one function body.

    ``gets``/``sets``/``tees`` count the accesses per local index;
    ``first_read`` is the top-level position of the first top-level
    instruction that reads the local (anywhere inside it); ``coalescible``
    maps each never-tee'd local to the first of :data:`CANDIDATES` whose
    conversions bracket every one of its ``get``/``set`` sites.
    """

    __slots__ = ("gets", "sets", "tees", "first_read", "coalescible")

    def __init__(self, body: Sequence[WInstr]) -> None:
        self.gets: dict[int, int] = {}
        self.sets: dict[int, int] = {}
        self.tees: dict[int, int] = {}
        self.first_read: dict[int, int] = {}
        masks: dict[int, int] = {}
        self._visit(tuple(body), None, masks)
        self.coalescible = {
            index: CANDIDATES[(mask & -mask).bit_length() - 1]
            for index, mask in masks.items()
            if mask and index not in self.tees
        }

    def writes(self, index: int) -> int:
        return self.sets.get(index, 0) + self.tees.get(index, 0)

    def _visit(self, seq: tuple[WInstr, ...], top: Optional[int], masks: dict[int, int]) -> None:
        """Count ``seq``'s accesses; ``top`` is the top-level position of
        the instruction ``seq`` is nested in (``None`` for the body itself)."""

        gets, sets, tees, first_read = self.gets, self.sets, self.tees, self.first_read
        for position, instr in enumerate(seq):
            site = position if top is None else top
            t = type(instr)
            if t is LocalGet or t is LocalSet:
                index = instr.index
                if t is LocalGet:
                    gets[index] = gets.get(index, 0) + 1
                    first_read.setdefault(index, site)
                else:
                    sets[index] = sets.get(index, 0) + 1
                mask = masks.get(index, _ALL_CANDIDATES)
                if mask:  # a local no candidate fits stays that way
                    masks[index] = mask & _bracket_mask(seq, position, t is LocalGet)
            elif t is LocalTee:
                tees[instr.index] = tees.get(instr.index, 0) + 1
            elif t is WBlock or t is WLoop:
                self._visit(tuple(instr.body), site, masks)
            elif t is WIf:
                self._visit(tuple(instr.then_body), site, masks)
                self._visit(tuple(instr.else_body), site, masks)


def _bracket_mask(seq: tuple[WInstr, ...], position: int, read: bool) -> int:
    """The candidates whose read conversions follow ``seq[position]``
    (``read``) or whose write conversions precede it."""

    neighbour = position + 1 if read else position - 1
    if not 0 <= neighbour < len(seq) or type(seq[neighbour]) is not Cvtop:
        return 0
    mask = 0
    for bit, candidate in enumerate(CANDIDATES):
        convs = (READ_CONVS if read else WRITE_CONVS)[candidate]
        start = neighbour if read else position - len(convs)
        if seq[start : start + len(convs)] == convs:  # a negative start slices short
            mask |= 1 << bit
    return mask


def local_census(function: WasmFunction) -> LocalCensus:
    """The :class:`LocalCensus` of ``function``, taken once per (frozen)
    function version: passes that leave a function alone hand the next pass
    the same object, so its census is a memo hit."""

    memos = function.__dict__
    census = memos.get(_CENSUS_MEMO)
    if census is None:
        census = memos[_CENSUS_MEMO] = LocalCensus(function.body)
    return census
