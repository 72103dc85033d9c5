"""Dead-function elimination (ABI-preserving).

Functions unreachable from any root — exports, the function table, the
``start`` function — can never execute.  Their bodies are replaced by a
single ``unreachable`` stub rather than removed outright, so every function
index in the module (calls, table entries, the lowering's
:class:`~repro.lower.runtime.RuntimeLayout` bookkeeping) stays valid.

The classic example: ML modules never free memory, so the emitted
``rw_free`` allocator half is dead weight in every ML-only module.
"""

from __future__ import annotations

from dataclasses import replace

from ..wasm.ast import (
    WasmFunction,
    WasmModule,
    WCall,
    WUnreachable,
    count_instrs,
)
from .manager import ModulePass
from .rewrite import iter_sequences


#: Where :func:`_callees` and :func:`_stub` memoize on a function (tuple
#: keys, so the memos never pickle; see
#: :func:`repro.core.syntax.intern.state_without_memos`).
_CALLEES_MEMO = ("callees",)
_STUB_MEMO = ("stub",)


def _callees(function: WasmFunction) -> frozenset[int]:
    """The direct-call targets of ``function``, memoized on the (frozen)
    function: the pass runs on every module version, and an unchanged
    function comes back from the unit cache as the same object."""

    memos = function.__dict__
    callees = memos.get(_CALLEES_MEMO)
    if callees is None:
        callees = memos[_CALLEES_MEMO] = frozenset(
            instr.func_index
            for seq in iter_sequences(function.body)
            for instr in seq
            if isinstance(instr, WCall)
        )
    return callees


def _stub(function: WasmFunction) -> WasmFunction:
    """``function`` with its body replaced by ``unreachable`` — the same
    object every time, so the stub's own unit keys are memoized too."""

    memos = function.__dict__
    stub = memos.get(_STUB_MEMO)
    if stub is None:
        stub = memos[_STUB_MEMO] = replace(function, locals=(), body=(WUnreachable(),))
    return stub


def reachable_functions(module: WasmModule) -> set[int]:
    """Function indices reachable from exports, the table, and ``start``."""

    roots = set(module.table.entries)
    if module.start is not None:
        roots.add(module.start)
    for index, function in enumerate(module.functions):
        if function.exports:
            roots.add(index)
    seen: set[int] = set()
    frontier = list(roots)
    while frontier:
        index = frontier.pop()
        if index in seen:
            continue
        seen.add(index)
        function = module.functions[index]
        if isinstance(function, WasmFunction):
            frontier.extend(_callees(function) - seen)
    return seen


class DeadFunctionPass(ModulePass):
    """Stub out functions no export, table entry or start chain can reach."""

    name = "deadfuncs"

    def run_module(self, module: WasmModule) -> tuple[WasmModule, int]:
        live = reachable_functions(module)
        rewrites = 0
        functions = list(module.functions)
        for index, function in enumerate(functions):
            if index in live or not isinstance(function, WasmFunction):
                continue
            if len(function.body) == 1 and isinstance(function.body[0], WUnreachable):
                continue  # already stubbed
            # Count at least 1 so a one-instruction dead body still registers
            # as a change (otherwise the stub would be silently discarded).
            rewrites += max(1, count_instrs(function.body) - 1)
            functions[index] = _stub(function)
        if rewrites == 0:
            return module, 0
        return replace(module, functions=tuple(functions)), rewrites
