"""Pluggable execution engines for the Wasm substrate.

:class:`ExecutionEngine` is the abstraction every execution path in the repo
(differential verification, the FFI ``Program`` layer, benchmarks, examples)
runs on.  Three implementations ship:

* :class:`TreeWalkingEngine` (``"tree"``) — the original recursive
  tree-walker: structured bodies are re-entered on every execution and
  ``br``/``return`` unwind Python exceptions.  It is the reference
  implementation and the baseline for the differential cross-check.
* :class:`FlatVMEngine` (``"flat"``) — a pre-decoded flat-code VM: each
  function body is flattened once at instantiation
  (:mod:`repro.wasm.decode`), branches are program-counter updates over an
  explicit label stack, and calls push explicit frames — no exceptions on
  the hot path.  This is the default engine.
* :class:`~repro.wasm.pygen.CompiledPyEngine` (``"compiled"``) — the
  template-compiled tier (:mod:`repro.wasm.pygen`): flat code is translated
  once per module into Python source and ``exec``'d, removing interpretive
  dispatch entirely.  Registered here on import of :mod:`repro.wasm`.

All engines share instantiation, export lookup and constant-expression
evaluation (implemented on the base class), count ``steps`` identically
(one step per executed instruction that the tree walker would have visited),
and produce bit-identical results, traps, memories and globals — a property
enforced by :func:`repro.opt.run_engine_cross_check` and the property suite.

Select an engine by name via :func:`create_engine`, the ``engine=`` argument
of :class:`repro.wasm.WasmInterpreter`, or the ``REPRO_WASM_ENGINE``
environment variable.
"""

from __future__ import annotations

import os
import struct
from abc import ABC, abstractmethod
from typing import Callable, ClassVar, Optional, Sequence, Union

from ..core.semantics import numerics
from ..core.semantics.numerics import MASK32, MASK64
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
    PAGE_SIZE,
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
from .decode import (
    OP_BLOCK,
    OP_BR,
    OP_BR_IF,
    OP_BR_TABLE,
    OP_CALL,
    OP_CALL_INDIRECT,
    OP_CONST,
    OP_CVT,
    OP_DROP,
    OP_END,
    OP_F_BINOP,
    OP_F_RELOP,
    OP_GLOBAL_GET,
    OP_GLOBAL_SET,
    OP_I_BINOP,
    OP_I_RELOP,
    OP_IF,
    OP_JUMP,
    OP_LOAD_F,
    OP_LOAD_I,
    OP_LOCAL_GET,
    OP_LOCAL_SET,
    OP_LOCAL_TEE,
    OP_LOOP,
    OP_MEMORY_GROW,
    OP_MEMORY_SIZE,
    OP_NOP,
    OP_RETURN,
    OP_SELECT,
    OP_STORE_F,
    OP_STORE_I,
    OP_TESTOP,
    OP_UNOP,
    OP_UNREACHABLE,
    FlatFunction,
    HostEntry,
    _INT_BINOPS,
    _INT_UNOPS,
    _build_cvt,
    decode_instance,
)
from .interpreter import (
    CodeSnapshot,
    HostFunction,
    LinearMemory,
    WasmInstance,
    WasmTrap,
    WasmValue,
    _normalize,
    arity_error,
)

DEFAULT_ENGINE = "flat"
_ENGINE_ENV_VAR = "REPRO_WASM_ENGINE"


class _Branch(Exception):
    """Tree-walker branch unwinding (never crosses the engine boundary)."""

    def __init__(self, depth: int, values: list[WasmValue]):
        super().__init__(depth)
        self.depth = depth
        self.values = values


class _Return(Exception):
    def __init__(self, values: list[WasmValue]):
        super().__init__()
        self.values = values


class ExecutionEngine(ABC):
    """Instantiates Wasm modules and executes exported functions.

    Engines are stateful in exactly two counters: ``steps`` (cumulative
    executed-instruction count across all invocations) and ``max_steps``
    (trap with ``"step budget exhausted"`` once exceeded).  Both engines
    count the same instruction stream, so a program traps at the same step
    number regardless of engine.

    ``profiler`` optionally holds a :class:`repro.obs.profile.StepProfiler`
    (attached via ``profiler.install(engine)``; the engine never imports the
    obs layer).  When set, the run loops take one sample every
    ``profiler.interval`` counted steps, attributed to the function
    executing that step; since both engines count steps identically, the
    sample points and attributions agree across engines.
    """

    name: ClassVar[str] = "abstract"

    def __init__(self, *, max_steps: Optional[int] = None) -> None:
        self.max_steps = max_steps
        self.steps = 0
        self.profiler = None

    # -- instantiation -----------------------------------------------------

    def instantiate(
        self,
        module: WasmModule,
        host_imports: Optional[dict[tuple[str, str], HostFunction]] = None,
    ) -> WasmInstance:
        host_imports = host_imports or {}
        instance = WasmInstance(module=module)

        for function in module.functions:
            if isinstance(function, WasmImportedFunction):
                key = (function.module, function.name)
                if key not in host_imports:
                    raise WasmError(f"unresolved Wasm import {key!r}")
                instance.funcs.append(host_imports[key])
            else:
                instance.funcs.append(function)

        for index, function in enumerate(module.functions):
            for export in function.exports:
                instance.exports[export] = index

        if module.memory is not None:
            instance.memory = LinearMemory(module.memory.min_pages, module.memory.max_pages)
            for segment in module.data:
                instance.memory.write(segment.offset, segment.data)

        instance.table = list(module.table.entries)

        for global_decl in module.globals:
            value = self._eval_const_expr(global_decl.init, instance)
            instance.globals.append(value)

        self._prepare_instance(instance)

        if module.start is not None:
            self.invoke_index(instance, module.start, [])
        return instance

    def _prepare_instance(self, instance: WasmInstance) -> None:
        """Engine hook run after the instance is built, before ``start``."""

    def _eval_const_expr(self, body: Sequence[WInstr], instance: WasmInstance) -> WasmValue:
        stack: list[WasmValue] = []
        for instr in body:
            if isinstance(instr, Const):
                stack.append(_normalize(instr.valtype, instr.value))
            elif isinstance(instr, GlobalGet):
                stack.append(instance.globals[instr.index])
            else:
                raise WasmError(f"unsupported instruction in constant expression: {instr!r}")
        return stack[-1] if stack else 0

    # -- invocation --------------------------------------------------------

    def invoke(self, instance: WasmInstance, name: str, args: Sequence[WasmValue] = ()) -> list[WasmValue]:
        try:
            index = instance.exports[name]
        except KeyError:
            raise unknown_export(name) from None
        return self.invoke_index(instance, index, args)

    @abstractmethod
    def invoke_index(self, instance: WasmInstance, index: int, args: Sequence[WasmValue]) -> list[WasmValue]:
        """Execute function ``index`` of ``instance`` with ``args``: the
        external entry.  ``args`` is read, never kept or mutated; a count
        other than the function's parameter count raises
        :func:`~repro.wasm.interpreter.arity_error`."""


def unknown_export(name: str) -> WasmError:
    """The error an invocation of a name ``instance.exports`` lacks raises."""

    return WasmError(f"no export named {name!r}")


def _call_host(instance: WasmInstance, index: int, fn, functype, args: Sequence[WasmValue]) -> list[WasmValue]:
    """An external call of a host-function slot: the arguments go to ``fn``
    as given, checked against the declared import type when there is one."""

    if functype is not None and len(args) != len(functype.params):
        raise arity_error(instance, index, len(functype.params), len(args))
    results = fn(*args)
    return list(results) if results is not None else []


# ---------------------------------------------------------------------------
# The tree-walking reference engine
# ---------------------------------------------------------------------------


class TreeWalkingEngine(ExecutionEngine):
    """The original recursive AST interpreter (reference semantics)."""

    name: ClassVar[str] = "tree"

    def __init__(self, *, max_steps: Optional[int] = None) -> None:
        super().__init__(max_steps=max_steps)
        # Innermost executing function, maintained only while a profiler is
        # attached (the sampler's attribution source).
        self._profile_stack: list = []

    def invoke_index(self, instance: WasmInstance, index: int, args: Sequence[WasmValue]) -> list[WasmValue]:
        target = instance.funcs[index]
        if not isinstance(target, WasmFunction):
            declared = instance.module.functions[index] if index < len(instance.module.functions) else None
            functype = declared.functype if isinstance(declared, WasmImportedFunction) else None
            return _call_host(instance, index, target, functype, args)
        if len(args) != len(target.functype.params):
            raise arity_error(instance, index, len(target.functype.params), len(args))
        return self._invoke(instance, index, args)

    def _invoke(self, instance: WasmInstance, index: int, args: Sequence[WasmValue]) -> list[WasmValue]:
        """Run function ``index``: the entry and every internal call."""

        target = instance.funcs[index]
        if not isinstance(target, WasmFunction):
            results = target(*args)
            return list(results) if results is not None else []
        locals_: list[WasmValue] = [_normalize(valtype, arg) for valtype, arg in zip(target.functype.params, args)]
        for valtype in target.locals:
            locals_.append(0 if valtype.is_integer else 0.0)
        stack: list[WasmValue] = []
        profiling = self.profiler is not None
        if profiling:
            self._profile_stack.append(target.name)
        try:
            self._exec_seq(target.body, stack, locals_, instance)
            count = len(target.functype.results)
            return stack[len(stack) - count :] if count else []
        except _Return as ret:
            count = len(target.functype.results)
            return ret.values[len(ret.values) - count :] if count else []
        except _Branch as branch:  # pragma: no cover - validation prevents this
            raise WasmTrap(f"branch escaped function body (depth {branch.depth})")
        finally:
            if profiling:
                self._profile_stack.pop()

    # -- execution ---------------------------------------------------------

    def _exec_seq(
        self,
        body: Sequence[WInstr],
        stack: list[WasmValue],
        locals_: list[WasmValue],
        instance: WasmInstance,
    ) -> None:
        for instr in body:
            self._step(instr, stack, locals_, instance)

    def _step(self, instr: WInstr, stack: list[WasmValue], locals_: list[WasmValue], instance: WasmInstance) -> None:
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            raise WasmTrap("step budget exhausted")
        profiler = self.profiler
        if profiler is not None and self.steps >= profiler.next_at:
            profiler.record(self._profile_stack[-1] if self._profile_stack else None, self.steps)

        if isinstance(instr, Const):
            stack.append(_normalize(instr.valtype, instr.value))
        elif isinstance(instr, Binop):
            rhs, lhs = stack.pop(), stack.pop()
            stack.append(self._binop(instr, lhs, rhs))
        elif isinstance(instr, Unop):
            operand = stack.pop()
            stack.append(self._unop(instr, operand))
        elif isinstance(instr, Testop):
            operand = stack.pop()
            stack.append(numerics.int_eqz(int(operand), instr.valtype.bit_width))
        elif isinstance(instr, Relop):
            rhs, lhs = stack.pop(), stack.pop()
            stack.append(self._relop(instr, lhs, rhs))
        elif isinstance(instr, Cvtop):
            operand = stack.pop()
            stack.append(self._cvtop(instr, operand))
        elif isinstance(instr, WUnreachable):
            raise WasmTrap("unreachable executed")
        elif isinstance(instr, WNop):
            return
        elif isinstance(instr, WDrop):
            stack.pop()
        elif isinstance(instr, WSelect):
            condition = stack.pop()
            second, first = stack.pop(), stack.pop()
            stack.append(first if int(condition) != 0 else second)
        elif isinstance(instr, WBlock):
            self._run_block(instr.body, instr.blocktype, stack, locals_, instance, loop=False)
        elif isinstance(instr, WLoop):
            self._run_block(instr.body, instr.blocktype, stack, locals_, instance, loop=True)
        elif isinstance(instr, WIf):
            condition = stack.pop()
            body = instr.then_body if int(condition) != 0 else instr.else_body
            self._run_block(body, instr.blocktype, stack, locals_, instance, loop=False)
        elif isinstance(instr, WBr):
            raise _Branch(instr.depth, list(stack))
        elif isinstance(instr, WBrIf):
            condition = stack.pop()
            if int(condition) != 0:
                raise _Branch(instr.depth, list(stack))
        elif isinstance(instr, WBrTable):
            index = int(stack.pop())
            depth = instr.depths[index] if 0 <= index < len(instr.depths) else instr.default
            raise _Branch(depth, list(stack))
        elif isinstance(instr, WReturn):
            raise _Return(list(stack))
        elif isinstance(instr, WCall):
            self._call(instance, instr.func_index, stack)
        elif isinstance(instr, WCallIndirect):
            table_index = int(stack.pop())
            if table_index < 0 or table_index >= len(instance.table):
                raise WasmTrap(f"call_indirect index {table_index} out of table bounds")
            self._call(instance, instance.table[table_index], stack, expected=instr.functype)
        elif isinstance(instr, LocalGet):
            stack.append(locals_[instr.index])
        elif isinstance(instr, LocalSet):
            locals_[instr.index] = stack.pop()
        elif isinstance(instr, LocalTee):
            locals_[instr.index] = stack[-1]
        elif isinstance(instr, GlobalGet):
            stack.append(instance.globals[instr.index])
        elif isinstance(instr, GlobalSet):
            instance.globals[instr.index] = stack.pop()
        elif isinstance(instr, Load):
            address = int(stack.pop()) + instr.offset
            stack.append(self._load(instance, instr, address))
        elif isinstance(instr, StoreI):
            value = stack.pop()
            address = int(stack.pop()) + instr.offset
            self._store(instance, instr, address, value)
        elif isinstance(instr, MemorySize):
            stack.append(self._memory(instance).size_pages())
        elif isinstance(instr, MemoryGrow):
            delta = int(stack.pop())
            stack.append(numerics.wrap(self._memory(instance).grow(delta), 32))
        else:
            raise WasmError(f"no execution rule for Wasm instruction {instr!r}")

    def _run_block(
        self,
        body: Sequence[WInstr],
        blocktype: WasmFuncType,
        stack: list[WasmValue],
        locals_: list[WasmValue],
        instance: WasmInstance,
        *,
        loop: bool,
    ) -> None:
        params = [stack.pop() for _ in blocktype.params][::-1]
        inner = list(params)
        while True:
            try:
                self._exec_seq(body, inner, locals_, instance)
                count = len(blocktype.results)
                stack.extend(inner[len(inner) - count :] if count else [])
                return
            except _Branch as branch:
                if branch.depth > 0:
                    raise _Branch(branch.depth - 1, branch.values)
                if not loop:
                    count = len(blocktype.results)
                    stack.extend(branch.values[len(branch.values) - count :] if count else [])
                    return
                count = len(blocktype.params)
                inner = branch.values[len(branch.values) - count :] if count else []

    def _call(
        self,
        instance: WasmInstance,
        index: int,
        stack: list[WasmValue],
        expected: Optional[WasmFuncType] = None,
    ) -> None:
        target = instance.funcs[index]
        if isinstance(target, WasmFunction):
            functype = target.functype
        elif expected is not None:
            functype = expected
        else:
            # A direct call of an imported (host) function: take the type from
            # the module's import declaration.
            functype = instance.module.functions[index].functype
        if expected is not None and isinstance(target, WasmFunction):
            if target.functype != expected:
                raise WasmTrap("indirect call type mismatch")
        args = [stack.pop() for _ in functype.params][::-1]
        results = self._invoke(instance, index, args)
        if not isinstance(target, WasmFunction):
            # Host results enter the stack unchecked; normalize them so the
            # all-values-normalized invariant holds (defined functions already
            # return normalized values).
            results = [_normalize(valtype, value) for valtype, value in zip(functype.results, results)]
        stack.extend(results)

    # -- numeric helpers ---------------------------------------------------

    @staticmethod
    def _binop(instr: Binop, lhs: WasmValue, rhs: WasmValue) -> WasmValue:
        width = instr.valtype.bit_width
        try:
            if instr.valtype.is_integer:
                return _INT_BINOPS[instr.op](int(lhs), int(rhs), width)
            return numerics.float_binop(instr.op, float(lhs), float(rhs), width)
        except numerics.NumericTrap as exc:
            raise WasmTrap(str(exc)) from exc

    @staticmethod
    def _unop(instr: Unop, operand: WasmValue) -> WasmValue:
        width = instr.valtype.bit_width
        if instr.valtype.is_integer:
            return _INT_UNOPS[instr.op](int(operand), width)
        return numerics.float_unop(instr.op, float(operand), width)

    @staticmethod
    def _relop(instr: Relop, lhs: WasmValue, rhs: WasmValue) -> int:
        width = instr.valtype.bit_width
        if instr.valtype.is_integer:
            base = instr.op.split("_")[0]
            signed = instr.op.endswith("_s")
            return numerics.int_relop(base, int(lhs), int(rhs), width, signed)
        return numerics.float_relop(instr.op, float(lhs), float(rhs))

    @staticmethod
    def _cvtop(instr: Cvtop, operand: WasmValue) -> WasmValue:
        try:
            if instr.op == "wrap":
                return numerics.wrap(int(operand), 32)
            if instr.op in ("extend_s", "extend_u"):
                signed = instr.op == "extend_s"
                value = numerics.to_signed(int(operand), 32) if signed else numerics.to_unsigned(int(operand), 32)
                return numerics.wrap(value, 64)
            if instr.op in ("trunc_s", "trunc_u"):
                return numerics.trunc_float_to_int(float(operand), instr.target.bit_width, instr.op == "trunc_s")
            if instr.op in ("convert_s", "convert_u"):
                return numerics.convert_int_to_float(
                    int(operand), instr.source.bit_width, instr.op == "convert_s", instr.target.bit_width
                )
            if instr.op == "promote":
                return float(operand)
            if instr.op == "demote":
                return numerics.float_canon(float(operand), 32)
            if instr.op == "reinterpret":
                if instr.source.is_integer:
                    return numerics.reinterpret_int_to_float(int(operand), instr.source.bit_width)
                return numerics.reinterpret_float_to_int(float(operand), instr.source.bit_width)
        except numerics.NumericTrap as exc:
            raise WasmTrap(str(exc)) from exc
        raise WasmError(f"unknown conversion {instr.op!r}")

    # -- memory ------------------------------------------------------------

    @staticmethod
    def _memory(instance: WasmInstance) -> LinearMemory:
        if instance.memory is None:
            raise WasmTrap("module has no memory")
        return instance.memory

    def _load(self, instance: WasmInstance, instr: Load, address: int) -> WasmValue:
        memory = self._memory(instance)
        if instr.width is not None:
            raw = memory.read(address, instr.width // 8)
            value = int.from_bytes(raw, "little", signed=False)
            if instr.signed:
                value = numerics.to_signed(value, instr.width)
            return numerics.wrap(value, instr.valtype.bit_width)
        raw = memory.read(address, instr.valtype.byte_width)
        if instr.valtype is ValType.I32:
            return int.from_bytes(raw, "little")
        if instr.valtype is ValType.I64:
            return int.from_bytes(raw, "little")
        if instr.valtype is ValType.F32:
            return struct.unpack("<f", raw)[0]
        return struct.unpack("<d", raw)[0]

    def _store(self, instance: WasmInstance, instr: StoreI, address: int, value: WasmValue) -> None:
        memory = self._memory(instance)
        if instr.width is not None:
            payload = (int(value) & ((1 << instr.width) - 1)).to_bytes(instr.width // 8, "little")
        elif instr.valtype is ValType.I32:
            payload = numerics.wrap(int(value), 32).to_bytes(4, "little")
        elif instr.valtype is ValType.I64:
            payload = numerics.wrap(int(value), 64).to_bytes(8, "little")
        elif instr.valtype is ValType.F32:
            payload = struct.pack("<f", float(value))
        else:
            payload = struct.pack("<d", float(value))
        memory.write(address, payload)


# ---------------------------------------------------------------------------
# Cold-opcode handlers for the flat VM (pure stack effects, no control flow)
# ---------------------------------------------------------------------------


def _h_unop(ins, stack) -> None:
    stack[-1] = ins[1](stack[-1])


def _h_select(ins, stack) -> None:
    condition = stack.pop()
    second, first = stack.pop(), stack.pop()
    stack.append(first if int(condition) != 0 else second)


def _h_nop(ins, stack) -> None:
    pass


def _h_unreachable(ins, stack) -> None:
    raise WasmTrap("unreachable executed")


def _h_f_relop(ins, stack) -> None:
    rhs = stack.pop()
    stack[-1] = numerics.float_relop(ins[1], float(stack[-1]), float(rhs))


_PURE_HANDLERS: dict[int, Callable] = {
    OP_UNOP: _h_unop,
    OP_SELECT: _h_select,
    OP_NOP: _h_nop,
    OP_UNREACHABLE: _h_unreachable,
    OP_F_RELOP: _h_f_relop,
}

# Integer memory accessors indexed by byte width: unsigned little-endian, so
# a load reads the same value as ``int.from_bytes(..., "little")`` and a
# store takes its operand already masked to the stored width.
_INT_FORMATS = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}
_LOAD_INT = tuple(
    struct.Struct(_INT_FORMATS[n]).unpack_from if n in _INT_FORMATS else None for n in range(9)
)
_STORE_INT = tuple(
    struct.Struct(_INT_FORMATS[n]).pack_into if n in _INT_FORMATS else None for n in range(9)
)

# The decoder's shared handlers for the two commonest conversions.  The
# extend handler is a shared ``partial``; one unpickled from the disk cache
# is a copy of it and takes the call path, with the same result.
_CVT_WRAP = _build_cvt(Cvtop(ValType.I32, "wrap", ValType.I64))
_CVT_EXTEND_U = _build_cvt(Cvtop(ValType.I64, "extend_u", ValType.I32))


# ---------------------------------------------------------------------------
# The flat VM
# ---------------------------------------------------------------------------


class FlatVMEngine(ExecutionEngine):
    """Pre-decoded flat-code VM: pc loop, explicit frame and label stacks.

    Hot opcodes are dispatched inline in :meth:`_run` (ordered by frequency
    in lowered RichWasm code); cold pure-stack opcodes go through
    :data:`_PURE_HANDLERS`, the per-opcode handler table the decoder targets.
    """

    name: ClassVar[str] = "flat"

    def _prepare_instance(self, instance: WasmInstance) -> None:
        self._decode(instance)

    @staticmethod
    def _decode(instance: WasmInstance) -> list:
        decoded = decode_instance(instance)
        instance.decoded = decoded
        instance.decoded_snapshot = CodeSnapshot(instance.funcs)
        return decoded

    def invoke_index(self, instance: WasmInstance, index: int, args: Sequence[WasmValue]) -> list[WasmValue]:
        snapshot = instance.decoded_snapshot
        if snapshot is None or (
            instance.funcs.version != snapshot.version and not snapshot.is_current(instance.funcs)
        ):
            # Instance was created by another engine (decode on first use) or
            # its function table was patched since the last decode.
            self._decode(instance)
        decoded = instance.decoded
        entry = decoded[index]
        if type(entry) is HostEntry:
            return _call_host(instance, index, entry.fn, entry.functype, args)
        if len(args) != entry.n_params:
            raise arity_error(instance, index, entry.n_params, len(args))
        if not args:
            return self._run(instance, decoded, index, [])
        return self._run(instance, decoded, index, list(map(_normalize, entry.functype.params, args)))

    def _run(
        self, instance: WasmInstance, decoded: list, index: int, args: list[WasmValue], resume=None
    ) -> list[WasmValue]:
        """Run function ``index`` to its return.

        ``args`` — normalized, one per parameter — becomes the entry frame's
        locals (the list is taken over).  ``resume`` — ``(pc, locals,
        stack, labels)`` — enters the function mid-body instead of at pc 0:
        the compiled tier hands an activation over this way when a step
        budget or profiler sample falls inside one of its step chunks
        (``stack`` is the activation's own operand stack; ``labels`` its
        enclosing label stack).
        """

        flat: FlatFunction = decoded[index]

        funcs_table = instance.table
        globals_ = instance.globals
        memory = instance.memory
        mdata = memory.data if memory is not None else None

        if resume is None:
            locals_: list[WasmValue] = args
            locals_.extend(flat.local_inits)
            stack: list[WasmValue] = []
            labels: list[tuple] = []
            pc = 0
        else:
            pc, locals_, stack, labels = resume
        frames: list[tuple] = []
        code = flat.code
        code_len = len(code)
        cur_base = 0
        cur_nres = flat.n_results
        cur_flat = flat

        steps = self.steps
        limit = self.max_steps if self.max_steps is not None else float("inf")
        # The step check is one comparison against ``boundary`` — the nearer
        # of the trap point and the profiler's next sample.  With no profiler
        # attached, ``boundary`` is exactly the trap point (``limit + 1``,
        # since the budget traps on ``steps > limit``), so profiling support
        # costs the disabled path nothing.
        profiler = self.profiler
        trap_at = limit + 1
        next_at = profiler.next_at if profiler is not None else float("inf")
        boundary = trap_at if trap_at < next_at else next_at

        NumericTrap = numerics.NumericTrap
        wrap = numerics.wrap
        to_signed = numerics.to_signed
        int_add = numerics.int_add
        int_sub = numerics.int_sub
        int_mul = numerics.int_mul
        int_relop = numerics.int_relop
        cvt_wrap = _CVT_WRAP
        cvt_extend_u = _CVT_EXTEND_U
        float_binop = numerics.float_binop
        load_int = _LOAD_INT
        store_int = _STORE_INT
        unpack_from = struct.unpack_from
        pack_into = struct.pack_into
        pure_handlers = _PURE_HANDLERS

        try:
            while True:
                if pc >= code_len:
                    # Fell off the end of a function body: implicit return.
                    if cur_nres:
                        if len(stack) != cur_base + cur_nres:
                            stack[cur_base:] = stack[len(stack) - cur_nres :]
                    else:
                        del stack[cur_base:]
                    if not frames:
                        return stack
                    code, pc, locals_, labels, cur_base, cur_nres, cur_flat = frames.pop()
                    code_len = len(code)
                    continue

                ins = code[pc]
                op = ins[0]
                if op >= 0:
                    steps += 1
                    if steps >= boundary:
                        if steps > limit:
                            raise WasmTrap("step budget exhausted")
                        profiler.record(cur_flat.name, steps)
                        next_at = profiler.next_at
                        boundary = trap_at if trap_at < next_at else next_at
                pc += 1

                # The chain is ordered by the dynamic opcode mix of lowered,
                # optimized RichWasm code; conversions and branches come next,
                # for unoptimized code and loops.  Every value on the stack is
                # normalized, so the inlined integer ops need only the mask.
                if op == OP_LOCAL_GET:
                    stack.append(locals_[ins[1]])
                elif op == OP_CONST:
                    stack.append(ins[1])
                elif op == OP_I_BINOP:
                    rhs = stack.pop()
                    fn = ins[1]
                    if fn is int_add:
                        stack[-1] = (stack[-1] + rhs) & (MASK32 if ins[2] == 32 else MASK64)
                    elif fn is int_sub:
                        stack[-1] = (stack[-1] - rhs) & (MASK32 if ins[2] == 32 else MASK64)
                    elif fn is int_mul:
                        stack[-1] = (stack[-1] * rhs) & (MASK32 if ins[2] == 32 else MASK64)
                    else:
                        try:
                            stack[-1] = fn(stack[-1], rhs, ins[2])
                        except NumericTrap as exc:
                            raise WasmTrap(str(exc)) from exc
                elif op == OP_LOCAL_SET:
                    locals_[ins[1]] = stack.pop()
                elif op == OP_GLOBAL_GET:
                    stack.append(globals_[ins[1]])
                elif op == OP_LOCAL_TEE:
                    locals_[ins[1]] = stack[-1]
                elif op == OP_STORE_I:
                    value = stack.pop()
                    address = stack.pop() + ins[1]
                    nbytes = ins[2]
                    if mdata is None:
                        raise WasmTrap("module has no memory")
                    if address < 0 or address + nbytes > len(mdata):
                        raise WasmTrap(
                            f"out-of-bounds memory access at {address} (+{nbytes}), memory is {len(mdata)} bytes"
                        )
                    store_int[nbytes](mdata, address, int(value) & ins[3])
                elif op == OP_CALL or op == OP_CALL_INDIRECT:
                    if op == OP_CALL_INDIRECT:
                        table_index = stack.pop()
                        if table_index < 0 or table_index >= len(funcs_table):
                            raise WasmTrap(f"call_indirect index {table_index} out of table bounds")
                        findex = funcs_table[table_index]
                        expected = ins[1]
                    else:
                        findex = ins[1]
                        expected = None
                    callee = decoded[findex]
                    if type(callee) is FlatFunction:
                        if expected is not None and callee.functype != expected:
                            raise WasmTrap("indirect call type mismatch")
                        # Arguments pass as they are: every producer leaves
                        # a normalized value (only the entry frame and host
                        # results need normalizing).
                        n_params = callee.n_params
                        if n_params:
                            new_locals = stack[len(stack) - n_params :]
                            del stack[len(stack) - n_params :]
                        else:
                            new_locals = []
                        new_locals.extend(callee.local_inits)
                        frames.append((code, pc, locals_, labels, cur_base, cur_nres, cur_flat))
                        code = callee.code
                        code_len = len(code)
                        pc = 0
                        locals_ = new_locals
                        labels = []
                        cur_base = len(stack)
                        cur_nres = callee.n_results
                        cur_flat = callee
                    else:
                        functype = expected if expected is not None else callee.functype
                        n_args = len(functype.params)
                        host_args = stack[len(stack) - n_args :] if n_args else []
                        if n_args:
                            del stack[len(stack) - n_args :]
                        # Host code may re-enter the engine: keep the shared
                        # step counter coherent across the boundary, even when
                        # the host call (or reentrant execution) raises —
                        # otherwise the outer finally would clobber the
                        # reentrant increments with the stale local value.
                        self.steps = steps
                        try:
                            results = callee.fn(*host_args)
                        finally:
                            steps = self.steps
                            # Reentrant execution may have consumed samples;
                            # re-read the profiler's schedule.
                            if profiler is not None:
                                next_at = profiler.next_at
                                boundary = trap_at if trap_at < next_at else next_at
                        results = list(results) if results is not None else []
                        stack.extend(
                            _normalize(valtype, value) for valtype, value in zip(functype.results, results)
                        )
                elif op == OP_CVT:
                    fn = ins[1]
                    if fn is cvt_wrap or fn is cvt_extend_u:
                        # i32.wrap_i64 and i64.extend_i32_u both keep the
                        # low 32 bits.
                        stack[-1] = int(stack[-1]) & MASK32
                    else:
                        try:
                            stack[-1] = fn(stack[-1])
                        except NumericTrap as exc:
                            raise WasmTrap(str(exc)) from exc
                elif op == OP_TESTOP:
                    stack[-1] = 1 if stack[-1] == 0 else 0
                elif op == OP_BR_IF:
                    if stack.pop():
                        depth = ins[1]
                        label_index = len(labels) - 1 - depth
                        if label_index < 0:
                            raise WasmTrap(f"branch escaped function body (depth {depth - len(labels)})")
                        target, arity, _end_arity, base, is_loop = labels[label_index]
                        del labels[label_index + 1 if is_loop else label_index :]
                        if arity:
                            if len(stack) != base + arity:
                                stack[base:] = stack[len(stack) - arity :]
                        else:
                            del stack[base:]
                        pc = target
                elif op == OP_BR:
                    depth = ins[1]
                    label_index = len(labels) - 1 - depth
                    if label_index < 0:
                        raise WasmTrap(f"branch escaped function body (depth {depth - len(labels)})")
                    target, arity, _end_arity, base, is_loop = labels[label_index]
                    del labels[label_index + 1 if is_loop else label_index :]
                    if arity:
                        if len(stack) != base + arity:
                            stack[base:] = stack[len(stack) - arity :]
                    else:
                        del stack[base:]
                    pc = target
                elif op == OP_BLOCK:
                    labels.append((ins[1], ins[2], ins[2], len(stack) - ins[3], False))
                elif op == OP_END:
                    # Fallthrough keeps the label's *result* values (for a
                    # loop these differ from the branch arity, its params).
                    target, _br_arity, arity, base, is_loop = labels.pop()
                    if len(stack) != base + arity:
                        if arity:
                            stack[base:] = stack[len(stack) - arity :]
                        else:
                            del stack[base:]
                elif op == OP_LOAD_I:
                    address = stack[-1] + ins[1]
                    nbytes = ins[2]
                    if mdata is None:
                        raise WasmTrap("module has no memory")
                    if address < 0 or address + nbytes > len(mdata):
                        raise WasmTrap(
                            f"out-of-bounds memory access at {address} (+{nbytes}), memory is {len(mdata)} bytes"
                        )
                    value = load_int[nbytes](mdata, address)[0]
                    signed_width = ins[3]
                    if signed_width:
                        value = wrap(to_signed(value, signed_width), ins[4])
                    stack[-1] = value
                elif op == OP_IF:
                    condition = stack.pop()
                    labels.append((ins[2], ins[3], ins[3], len(stack) - ins[4], False))
                    if not condition:
                        pc = ins[1]
                elif op == OP_LOOP:
                    labels.append((ins[1], ins[2], ins[3], len(stack) - ins[2], True))
                elif op == OP_GLOBAL_SET:
                    globals_[ins[1]] = stack.pop()
                elif op == OP_I_RELOP:
                    rhs = stack.pop()
                    stack[-1] = int_relop(ins[1], stack[-1], rhs, ins[3], ins[2])
                elif op == OP_MEMORY_SIZE:
                    if memory is None:
                        raise WasmTrap("module has no memory")
                    stack.append(len(mdata) // PAGE_SIZE)
                elif op == OP_JUMP:
                    pc = ins[1]
                elif op == OP_RETURN:
                    pc = code_len
                elif op == OP_DROP:
                    stack.pop()
                elif op == OP_BR_TABLE:
                    branch_index = int(stack.pop())
                    depths = ins[1]
                    depth = depths[branch_index] if 0 <= branch_index < len(depths) else ins[2]
                    label_index = len(labels) - 1 - depth
                    if label_index < 0:
                        raise WasmTrap(f"branch escaped function body (depth {depth - len(labels)})")
                    target, arity, _end_arity, base, is_loop = labels[label_index]
                    del labels[label_index + 1 if is_loop else label_index :]
                    if arity:
                        if len(stack) != base + arity:
                            stack[base:] = stack[len(stack) - arity :]
                    else:
                        del stack[base:]
                    pc = target
                elif op == OP_F_BINOP:
                    rhs = stack.pop()
                    try:
                        stack[-1] = float_binop(ins[1], float(stack[-1]), float(rhs), ins[2])
                    except NumericTrap as exc:
                        raise WasmTrap(str(exc)) from exc
                elif op == OP_LOAD_F:
                    address = stack[-1] + ins[1]
                    nbytes = ins[3]
                    end = address + nbytes
                    if mdata is None:
                        raise WasmTrap("module has no memory")
                    if address < 0 or end > len(mdata):
                        raise WasmTrap(
                            f"out-of-bounds memory access at {address} (+{nbytes}), memory is {len(mdata)} bytes"
                        )
                    stack[-1] = unpack_from(ins[2], mdata, address)[0]
                elif op == OP_STORE_F:
                    value = stack.pop()
                    address = stack.pop() + ins[1]
                    nbytes = ins[3]
                    end = address + nbytes
                    if mdata is None:
                        raise WasmTrap("module has no memory")
                    if address < 0 or end > len(mdata):
                        raise WasmTrap(
                            f"out-of-bounds memory access at {address} (+{nbytes}), memory is {len(mdata)} bytes"
                        )
                    pack_into(ins[2], mdata, address, float(value))
                elif op == OP_MEMORY_GROW:
                    if memory is None:
                        raise WasmTrap("module has no memory")
                    delta = stack.pop()
                    stack.append(wrap(memory.grow(int(delta)), 32))
                    mdata = memory.data
                else:
                    pure_handlers[op](ins, stack)
        finally:
            self.steps = steps


# ---------------------------------------------------------------------------
# Engine registry
# ---------------------------------------------------------------------------

ENGINES: dict[str, type[ExecutionEngine]] = {
    TreeWalkingEngine.name: TreeWalkingEngine,
    FlatVMEngine.name: FlatVMEngine,
}

EngineSpec = Union[str, ExecutionEngine, None]


def available_engines() -> tuple[str, ...]:
    return tuple(sorted(ENGINES))


def create_engine(spec: EngineSpec = None, *, max_steps: Optional[int] = None) -> ExecutionEngine:
    """Resolve an engine from a name, an instance, or the environment.

    ``None`` selects ``$REPRO_WASM_ENGINE`` when set, else
    :data:`DEFAULT_ENGINE` (the flat VM).  Passing an existing
    :class:`ExecutionEngine` returns it unchanged (``max_steps`` must then be
    unset or match).
    """

    if isinstance(spec, ExecutionEngine):
        if max_steps is not None and spec.max_steps != max_steps:
            raise ValueError("cannot override max_steps on an existing engine instance")
        return spec
    name = spec if spec is not None else os.environ.get(_ENGINE_ENV_VAR) or DEFAULT_ENGINE
    try:
        engine_cls = ENGINES[name]
    except KeyError:
        raise ValueError(f"unknown execution engine {name!r}; available: {', '.join(available_engines())}") from None
    return engine_cls(max_steps=max_steps)
