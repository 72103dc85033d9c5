"""Validation of Wasm modules (the standard Wasm 1.0 type-checking algorithm).

Every module is validated before it runs: ``ExecutionEngine.instantiate``
validates the module it is given, so the engines execute valid code only.
Lowered RichWasm modules are validated by the compile pipeline too (the
lowering pass is type-directed, so a failure there indicates a lowering
bug), and each module object is checked once: a successful validation is
remembered per object, keyed like the decode memo.  The validator
implements the usual algorithm with a value-type stack per control frame and
an "unreachable" mode that makes the stack polymorphic after unconditional
control transfers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

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
    WasmFuncType,
    WasmImportedFunction,
    WasmModule,
    WBlock,
    WBr,
    WBrIf,
    WBrTable,
    WCall,
    WCallIndirect,
    WDrop,
    WIf,
    WInstr,
    WLoop,
    WNop,
    WReturn,
    WSelect,
    WUnreachable,
)


class WasmValidationError(WasmError):
    """The module is not well-typed according to the Wasm validation rules."""


@dataclass
class _ControlFrame:
    label_types: tuple[ValType, ...]
    end_types: tuple[ValType, ...]
    height: int
    unreachable: bool = False


@dataclass
class _FunctionContext:
    module: WasmModule
    locals: list[ValType]
    return_types: tuple[ValType, ...]
    stack: list[Optional[ValType]] = field(default_factory=list)
    frames: list[_ControlFrame] = field(default_factory=list)

    # -- operand stack ---------------------------------------------------------

    def push(self, valtype: Optional[ValType]) -> None:
        self.stack.append(valtype)

    def pop(self, expected: Optional[ValType] = None) -> Optional[ValType]:
        frame = self.frames[-1]
        if len(self.stack) == frame.height:
            if frame.unreachable:
                return expected
            raise WasmValidationError("operand stack underflow")
        actual = self.stack.pop()
        if expected is not None and actual is not None and actual is not expected:
            raise WasmValidationError(f"expected {expected} on the stack, found {actual}")
        return actual if actual is not None else expected

    def push_many(self, types: Sequence[ValType]) -> None:
        for valtype in types:
            self.push(valtype)

    def pop_many(self, types: Sequence[ValType]) -> None:
        for valtype in reversed(list(types)):
            self.pop(valtype)

    # -- control frames ---------------------------------------------------------

    def push_frame(self, label_types: Sequence[ValType], end_types: Sequence[ValType]) -> None:
        self.frames.append(_ControlFrame(tuple(label_types), tuple(end_types), len(self.stack)))

    def pop_frame(self) -> _ControlFrame:
        frame = self.frames[-1]
        self.pop_many(frame.end_types)
        if len(self.stack) != frame.height and not frame.unreachable:
            raise WasmValidationError("values left on the stack at the end of a block")
        del self.stack[frame.height :]
        self.frames.pop()
        return frame

    def mark_unreachable(self) -> None:
        frame = self.frames[-1]
        del self.stack[frame.height :]
        frame.unreachable = True

    def label_types(self, depth: int) -> tuple[ValType, ...]:
        if depth >= len(self.frames):
            raise WasmValidationError(f"branch depth {depth} exceeds nesting {len(self.frames)}")
        return self.frames[len(self.frames) - 1 - depth].label_types


def _function_type(module: WasmModule, index: int) -> WasmFuncType:
    if index < 0 or index >= len(module.functions):
        raise WasmValidationError(f"function index {index} out of range")
    return module.functions[index].functype


# Module objects known valid, keyed like the decode memo: by id() with a
# weakref guard, so id reuse after collection cannot alias, and dead entries
# are evicted by the weakref callback.
_VALIDATED: dict[int, weakref.ref] = {}


def mark_validated(module: WasmModule) -> None:
    """Record ``module`` as valid without checking it: only for a module
    whose content was validated before it was filed (a disk-cache entry)."""

    key = id(module)

    def _evict(ref, _key=key):
        if _VALIDATED.get(_key) is ref:
            del _VALIDATED[_key]

    _VALIDATED[key] = weakref.ref(module, _evict)


def validate_module(module: WasmModule, *, unit_cache=None) -> None:
    """Validate a module; raises :class:`WasmValidationError` on failure.

    A module object validated before is not checked again.  ``unit_cache``
    (a :class:`repro.compilepipe.FunctionUnitCache`) skips function bodies
    already validated under the same (body digest, module signature digest)
    key — only successful validations are recorded.
    """

    ref = _VALIDATED.get(id(module))
    if ref is not None and ref() is module:
        return
    for entry in module.table.entries:
        if entry < 0 or entry >= len(module.functions):
            raise WasmValidationError(f"table entry {entry} does not name a function")
    for segment in module.data:
        if module.memory is None:
            raise WasmValidationError("data segment without a memory")
        if segment.offset < 0:
            raise WasmValidationError("negative data segment offset")
    for global_decl in module.globals:
        for instr in global_decl.init:
            if not isinstance(instr, (Const, GlobalGet)):
                raise WasmValidationError(
                    f"unsupported instruction in a constant expression: {instr!r}"
                )
    for function in module.functions:
        if isinstance(function, WasmImportedFunction):
            continue
        if unit_cache is not None:
            key = unit_cache.validate_key(function, module)
            if unit_cache.get("validate", key) is not None:
                continue
        validate_function(module, function)
        if unit_cache is not None:
            unit_cache.put("validate", key, True)
    mark_validated(module)


def validate_function(module: WasmModule, function: WasmFunction) -> None:
    """Validate one function body."""

    ctx = _FunctionContext(
        module=module,
        locals=[*function.functype.params, *function.locals],
        return_types=function.functype.results,
    )
    ctx.push_frame(function.functype.results, function.functype.results)
    _validate_seq(ctx, function.body)
    ctx.pop_frame()


def _validate_seq(ctx: _FunctionContext, body: Sequence[WInstr]) -> None:
    for instr in body:
        _validate_instr(ctx, instr)


def _validate_instr(ctx: _FunctionContext, instr: WInstr) -> None:
    if isinstance(instr, Const):
        ctx.push(instr.valtype)
    elif isinstance(instr, Binop):
        ctx.pop(instr.valtype)
        ctx.pop(instr.valtype)
        ctx.push(instr.valtype)
    elif isinstance(instr, Unop):
        ctx.pop(instr.valtype)
        ctx.push(instr.valtype)
    elif isinstance(instr, Testop):
        ctx.pop(instr.valtype)
        ctx.push(ValType.I32)
    elif isinstance(instr, Relop):
        ctx.pop(instr.valtype)
        ctx.pop(instr.valtype)
        ctx.push(ValType.I32)
    elif isinstance(instr, Cvtop):
        ctx.pop(instr.source)
        ctx.push(instr.target)
    elif isinstance(instr, WUnreachable):
        ctx.mark_unreachable()
    elif isinstance(instr, WNop):
        return
    elif isinstance(instr, WDrop):
        ctx.pop()
    elif isinstance(instr, WSelect):
        ctx.pop(ValType.I32)
        second = ctx.pop()
        first = ctx.pop(second)
        ctx.push(first if first is not None else second)
    elif isinstance(instr, WBlock):
        ctx.pop_many(instr.blocktype.params)
        ctx.push_frame(instr.blocktype.results, instr.blocktype.results)
        ctx.push_many(instr.blocktype.params)
        _validate_seq(ctx, instr.body)
        ctx.pop_frame()
        ctx.push_many(instr.blocktype.results)
    elif isinstance(instr, WLoop):
        ctx.pop_many(instr.blocktype.params)
        ctx.push_frame(instr.blocktype.params, instr.blocktype.results)
        ctx.push_many(instr.blocktype.params)
        _validate_seq(ctx, instr.body)
        ctx.pop_frame()
        ctx.push_many(instr.blocktype.results)
    elif isinstance(instr, WIf):
        ctx.pop(ValType.I32)
        ctx.pop_many(instr.blocktype.params)
        for body in (instr.then_body, instr.else_body):
            ctx.push_frame(instr.blocktype.results, instr.blocktype.results)
            ctx.push_many(instr.blocktype.params)
            _validate_seq(ctx, body)
            ctx.pop_frame()
        ctx.push_many(instr.blocktype.results)
    elif isinstance(instr, WBr):
        ctx.pop_many(ctx.label_types(instr.depth))
        ctx.mark_unreachable()
    elif isinstance(instr, WBrIf):
        ctx.pop(ValType.I32)
        label = ctx.label_types(instr.depth)
        ctx.pop_many(label)
        ctx.push_many(label)
    elif isinstance(instr, WBrTable):
        ctx.pop(ValType.I32)
        default_types = ctx.label_types(instr.default)
        for depth in instr.depths:
            if ctx.label_types(depth) != default_types:
                raise WasmValidationError("br_table targets have inconsistent types")
        ctx.pop_many(default_types)
        ctx.mark_unreachable()
    elif isinstance(instr, WReturn):
        ctx.pop_many(ctx.return_types)
        ctx.mark_unreachable()
    elif isinstance(instr, WCall):
        functype = _function_type(ctx.module, instr.func_index)
        ctx.pop_many(functype.params)
        ctx.push_many(functype.results)
    elif isinstance(instr, WCallIndirect):
        ctx.pop(ValType.I32)
        ctx.pop_many(instr.functype.params)
        ctx.push_many(instr.functype.results)
    elif isinstance(instr, LocalGet):
        ctx.push(_local_type(ctx, instr.index))
    elif isinstance(instr, LocalSet):
        ctx.pop(_local_type(ctx, instr.index))
    elif isinstance(instr, LocalTee):
        valtype = _local_type(ctx, instr.index)
        ctx.pop(valtype)
        ctx.push(valtype)
    elif isinstance(instr, GlobalGet):
        ctx.push(_global_type(ctx, instr.index))
    elif isinstance(instr, GlobalSet):
        if not ctx.module.globals[instr.index].mutable:
            raise WasmValidationError(f"global {instr.index} is immutable")
        ctx.pop(_global_type(ctx, instr.index))
    elif isinstance(instr, Load):
        _require_memory(ctx)
        ctx.pop(ValType.I32)
        ctx.push(instr.valtype)
    elif isinstance(instr, StoreI):
        _require_memory(ctx)
        ctx.pop(instr.valtype)
        ctx.pop(ValType.I32)
    elif isinstance(instr, MemorySize):
        _require_memory(ctx)
        ctx.push(ValType.I32)
    elif isinstance(instr, MemoryGrow):
        _require_memory(ctx)
        ctx.pop(ValType.I32)
        ctx.push(ValType.I32)
    else:
        raise WasmValidationError(f"no validation rule for {instr!r}")


def _local_type(ctx: _FunctionContext, index: int) -> ValType:
    if index < 0 or index >= len(ctx.locals):
        raise WasmValidationError(f"local index {index} out of range ({len(ctx.locals)} locals)")
    return ctx.locals[index]


def _global_type(ctx: _FunctionContext, index: int) -> ValType:
    if index < 0 or index >= len(ctx.module.globals):
        raise WasmValidationError(f"global index {index} out of range")
    return ctx.module.globals[index].valtype


def _require_memory(ctx: _FunctionContext) -> None:
    if ctx.module.memory is None:
        raise WasmValidationError("memory instruction in a module without a memory")
