"""The compiled execution tier: flat code translated to Python source.

The flat VM (:mod:`repro.wasm.engine`) already removed the tree walker's
re-discovery of structure, but every step still pays a dispatch-loop
iteration, a handler lookup and a step-budget comparison.  This module is
the next tier — the standard template-compilation move: decoded
:class:`~repro.wasm.decode.FlatFunction` code is translated *once per
module* into Python source (one Python function per Wasm function) and
``exec``'d, so the CPython bytecode interpreter becomes the dispatch loop.

Translation strategy:

* pc-addressed control flow is re-nested into the ``block``/``loop``/``if``
  tree the decoder flattened, then rendered as ``while True:`` regions —
  ``br`` to a block is ``break``, ``br`` to a loop is ``continue``, and
  multi-level branches set a ``_br`` counter unwound by a small cascade
  after each inner region;
* Wasm locals become Python locals ``l0..lN``;
* the operand stack becomes Python locals ``s0..sN`` wherever the static
  stack depth is provable (it always is for validated code); translation
  falls back to an explicit list per function otherwise;
* step accounting is batched per basic block: one ``steps += k`` plus one
  boundary comparison per chunk of straight-line code, placed exactly where
  the flat VM folds its budget/profiler trigger.  When the boundary falls
  inside a chunk, a twin "careful" arm re-counts that chunk one step at a
  time, so ``max_steps`` traps and :class:`~repro.obs.profile.StepProfiler`
  samples land on the identical step — and with the identical partial side
  effects — as the flat and tree engines.  Loads, stores, trapping numerics
  and ``br_if`` sit inside a chunk: in the fast arm, which pre-counted the
  whole chunk, their trap and exit paths subtract the instructions left in
  the chunk, so a trap still observes the exact step count.  Only calls and
  unconditional transfers end a chunk;
* linear memory is read and written through precompiled little-endian
  :class:`struct.Struct` accessors, with a failed access caught as
  ``struct.error`` and re-raised as the flat VM's out-of-bounds trap.

:class:`CompiledPyEngine` (``"compiled"``) exposes the tier behind the
:class:`~repro.wasm.engine.ExecutionEngine` ABC.  Translation is memoized
per module object (like the decode memo) and adopted across structurally
identical modules by :class:`repro.runtime.cache.ModuleCache`'s
``translate`` stage, so workers and repeat runs skip it the same way they
skip decode.
"""

from __future__ import annotations

import struct
import weakref
from typing import ClassVar, Optional

from ..core.semantics import numerics
from .ast import PAGE_SIZE, WasmFunction, WasmImportedFunction, WasmModule
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
    DecodedModule,
    FlatFunction,
    HostEntry,
    decode_instance,
    decode_module,
)
from .engine import ENGINES, ExecutionEngine, FlatVMEngine
from .interpreter import WasmInstance, WasmTrap, WasmValue, _normalize

_INF = float("inf")

# Integer binops inlined as expressions (operands are always normalized, so
# ``and``/``or``/``xor`` need no re-wrap and unsigned shifts stay in range).
_INLINE_IBINOP = {
    numerics.int_add: lambda a, b, w, m: f"({a} + {b}) & {m:#x}",
    numerics.int_sub: lambda a, b, w, m: f"({a} - {b}) & {m:#x}",
    numerics.int_mul: lambda a, b, w, m: f"({a} * {b}) & {m:#x}",
    numerics.int_and: lambda a, b, w, m: f"{a} & {b}",
    numerics.int_or: lambda a, b, w, m: f"{a} | {b}",
    numerics.int_xor: lambda a, b, w, m: f"{a} ^ {b}",
    numerics.int_shl: lambda a, b, w, m: f"({a} << ({b} % {w})) & {m:#x}",
    numerics.int_shr_u: lambda a, b, w, m: f"{a} >> ({b} % {w})",
}

# Binops that can raise NumericTrap.  They stay inside their step chunk: the
# trap path records the step count through the ``_HERE`` placeholder.
_TRAPPING_IBINOPS = frozenset(
    (numerics.int_div_s, numerics.int_div_u, numerics.int_rem_s, numerics.int_rem_u)
)

# Step placeholders in chunk lines, resolved by ``_FunctionEmitter.flush``.
# ``_HERE`` is the step count at the instruction that holds it, and an
# ``_EXIT`` line opens the path of a branch that leaves the chunk early.  The
# careful arm counts one step at a time, so there ``_HERE`` is ``steps`` and
# ``_EXIT`` is dropped; the fast arm pre-counted the whole chunk, so both
# take back the ``rest`` instructions that follow in it.
_HERE = "$here"
_EXIT = "$exit"

# Precompiled little-endian accessors for every format a load or store uses,
# bound into each exec namespace as ``_ld<fmt>``/``_st<fmt>``.  Bound
# ``Struct`` methods cannot be pickled, so they stay out of the const pool
# that compile workers ship.
_ACCESSORS: dict[str, object] = {"_SE": struct.error}
for _fmt in "BbHhIiQqfd":
    _struct = struct.Struct("<" + _fmt)
    _ACCESSORS[f"_ld{_fmt}"] = _struct.unpack_from
    _ACCESSORS[f"_st{_fmt}"] = _struct.pack_into
del _fmt, _struct

_UNSIGNED_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_SIGNED_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


class _RegisterModeUnsupported(Exception):
    """Static stack depth could not be proven; retranslate with a list."""


class _ConstPool:
    """Names for objects the generated source cannot spell as literals."""

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self.values: dict[str, object] = {}

    def add(self, obj, prefix: str = "k") -> str:
        key = id(obj)
        name = self._names.get(key)
        if name is None:
            name = f"_{prefix}{len(self._names)}"
            self._names[key] = name
            self.values[name] = obj
        return name


# ---------------------------------------------------------------------------
# Re-nesting: recover the construct tree the decoder flattened
# ---------------------------------------------------------------------------
#
# Construct nodes are tuples tagged with a *string* first element so they can
# never collide with instruction tuples (whose first element is an int).


def _find_end(code: list, pos: int) -> int:
    depth = 0
    while True:
        op = code[pos][0]
        if op == OP_BLOCK or op == OP_LOOP or op == OP_IF:
            depth += 1
        elif op == OP_END:
            if depth == 0:
                return pos
            depth -= 1
        pos += 1


def _parse_seq(code: list, pos: int, stop: int) -> list:
    nodes: list = []
    while pos < stop:
        ins = code[pos]
        op = ins[0]
        if op == OP_BLOCK:
            body = _parse_seq(code, pos + 1, ins[1] - 1)
            nodes.append(("block", ins[2], ins[3], body))
            pos = ins[1]
        elif op == OP_LOOP:
            end = _find_end(code, pos + 1)
            body = _parse_seq(code, pos + 1, end)
            nodes.append(("loop", ins[2], ins[3], body))
            pos = end + 1
        elif op == OP_IF:
            else_start, after_end = ins[1], ins[2]
            end = after_end - 1
            if else_start == end:
                then_nodes = _parse_seq(code, pos + 1, end)
                else_nodes: list = []
            else:
                then_nodes = _parse_seq(code, pos + 1, else_start - 1)
                else_nodes = _parse_seq(code, else_start, end)
            nodes.append(("if", ins[3], ins[4], then_nodes, else_nodes))
            pos = after_end
        else:
            nodes.append(ins)
            pos += 1
    return nodes


def _resolve_steps(lines: list[str], rest: int) -> list[str]:
    """Resolve one instruction's step placeholders, ``rest`` instructions
    from the end of a chunk whose steps have already been counted."""

    resolved = []
    for line in lines:
        if "$" in line:
            if line.lstrip() == _EXIT:
                if rest:
                    resolved.append(line.replace(_EXIT, f"steps -= {rest}"))
                continue
            line = line.replace(_HERE, f"steps - {rest}" if rest else "steps")
        resolved.append(line)
    return resolved


class _Label:
    __slots__ = ("kind", "br_arity", "end_arity", "base")

    def __init__(self, kind, br_arity, end_arity, base):
        self.kind = kind  # "block" | "loop" | "if"
        self.br_arity = br_arity
        self.end_arity = end_arity
        self.base = base  # int (register mode) or base-var name (list mode)


# ---------------------------------------------------------------------------
# The emitters
# ---------------------------------------------------------------------------


class _FunctionEmitter:
    """Shared emission machinery; stack access is specialized by subclass."""

    mode: ClassVar[str] = "abstract"

    def __init__(self, index: int, flat: FlatFunction, slots: list, module: WasmModule, pool: _ConstPool):
        self.index = index
        self.flat = flat
        self.slots = slots  # decoded table: FlatFunction | HostEntry | None
        self.module = module
        self.pool = pool
        self.lines: list[str] = []
        self.indent = 1
        self.chunk: list[list[str]] = []
        self.labels: list[_Label] = []
        self.has_memory = module.memory is not None
        code = flat.code
        self.need_br = any(
            (ins[0] in (OP_BR, OP_BR_IF) and ins[1] > 0)
            or (ins[0] == OP_BR_TABLE and (ins[2] > 0 or any(d > 0 for d in ins[1])))
            for ins in code
        )
        self.uses_globals = any(ins[0] in (OP_GLOBAL_GET, OP_GLOBAL_SET) for ins in code)
        self.uses_targets = any(
            ins[0] == OP_CALL_INDIRECT
            or (
                ins[0] == OP_CALL
                and ins[1] < len(slots)
                and isinstance(slots[ins[1]], FlatFunction)
            )
            for ins in code
        )
        self.uses_memory = self.has_memory and any(
            ins[0] in (OP_LOAD_I, OP_LOAD_F, OP_STORE_I, OP_STORE_F, OP_MEMORY_SIZE, OP_MEMORY_GROW)
            for ins in code
        )
        self.fname_ref = pool.add(flat.name, "nm") if flat.name is not None else "None"

    # -- low-level writing -------------------------------------------------

    def write(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def step(self, lines: list[str]) -> None:
        """Append one counted instruction's code to the current chunk."""

        self.chunk.append(lines)

    def flush(self) -> None:
        chunk = self.chunk
        if not chunk:
            return
        self.chunk = []
        count = len(chunk)
        write = self.write
        if count == 1:
            write("steps += 1")
            write("if steps >= boundary:")
            write(f"    boundary = eng._on_boundary(steps, {self.fname_ref})")
            for line in _resolve_steps(chunk[0], 0):
                write(line)
            return
        write(f"steps += {count}")
        write("if steps < boundary:")
        body = [
            line
            for position, lines in enumerate(chunk)
            for line in _resolve_steps(lines, count - 1 - position)
        ]
        if body:
            for line in body:
                write("    " + line)
        else:
            write("    pass")
        write("else:")
        write(f"    steps -= {count}")
        for lines in chunk:
            write("    steps += 1")
            write("    if steps >= boundary:")
            write(f"        boundary = eng._on_boundary(steps, {self.fname_ref})")
            for line in _resolve_steps(lines, 0):
                write("    " + line)

    # -- value normalization ------------------------------------------------

    def norm_expr(self, valtype, expr: str) -> str:
        """Python expression normalizing ``expr`` exactly like ``_normalize``."""

        if valtype.is_integer:
            return f"int({expr}) & {(1 << valtype.bit_width) - 1:#x}"
        if valtype.bit_width == 32:
            return f"{self.pool.add(numerics.float_canon, 'fn')}(float({expr}), 32)"
        return f"float({expr})"

    # -- host/defined call targets ------------------------------------------

    def host_functype(self, findex: int):
        slot = self.slots[findex]
        if isinstance(slot, HostEntry):
            return slot.functype
        declared = self.module.functions[findex] if findex < len(self.module.functions) else None
        return declared.functype if isinstance(declared, WasmImportedFunction) else None


class _RegisterEmitter(_FunctionEmitter):
    """Operand stack as Python locals ``s0..sN`` (static depth proven)."""

    mode: ClassVar[str] = "register"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.depth = 0

    # -- stack primitives --------------------------------------------------

    def pop(self) -> tuple[str, list[str]]:
        if self.depth <= 0:
            raise _RegisterModeUnsupported("stack underflow")
        self.depth -= 1
        return f"s{self.depth}", []

    def push(self, expr: str) -> list[str]:
        line = f"s{self.depth} = {expr}"
        self.depth += 1
        return [line]

    def top(self) -> str:
        if self.depth <= 0:
            raise _RegisterModeUnsupported("stack underflow")
        return f"s{self.depth - 1}"

    def set_top(self, expr: str) -> str:
        return f"s{self.depth - 1} = {expr}"

    def discard(self) -> list[str]:
        if self.depth <= 0:
            raise _RegisterModeUnsupported("stack underflow")
        self.depth -= 1
        return []

    # -- label plumbing ----------------------------------------------------

    def make_label(self, kind: str, n_params: int, br_arity: int, end_arity: int) -> _Label:
        base = self.depth - n_params
        if base < 0:
            raise _RegisterModeUnsupported("negative label base")
        return _Label(kind, br_arity, end_arity, base)

    def branch_adjust(self, label: _Label) -> list[str]:
        arity, base = label.br_arity, label.base
        if self.depth < base + arity:
            raise _RegisterModeUnsupported("branch underflow")
        return [
            f"s{base + j} = s{self.depth - arity + j}"
            for j in range(arity)
            if base + j != self.depth - arity + j
        ]

    def end_adjust(self, label: _Label) -> list[str]:
        if self.depth != label.base + label.end_arity:
            raise _RegisterModeUnsupported("fallthrough depth mismatch")
        return []

    def return_lines(self) -> list[str]:
        nres = self.flat.n_results
        if self.depth < nres:
            raise _RegisterModeUnsupported("return underflow")
        values = ", ".join(f"s{self.depth - nres + j}" for j in range(nres))
        return [f"return (steps, {values})" if nres else "return (steps,)"]

    def call_args(self, n_params: int) -> tuple[str, list[str]]:
        if self.depth < n_params:
            raise _RegisterModeUnsupported("call underflow")
        args = ", ".join(f"s{self.depth - n_params + j}" for j in range(n_params))
        self.depth -= n_params
        return args, []

    def defined_call_results(self, n_results: int) -> list[str]:
        base = self.depth
        if n_results == 0:
            lines = ["steps = _r[0]"]
        else:
            targets = ", ".join(f"s{base + j}" for j in range(n_results))
            lines = [f"steps, {targets} = _r"]
        self.depth += n_results
        return lines

    def host_call_results(self, functype) -> list[str]:
        lines = ["_r = list(_r) if _r is not None else []"]
        for j, valtype in enumerate(functype.results):
            lines.append(f"s{self.depth} = {self.norm_expr(valtype, f'_r[{j}]')}")
            self.depth += 1
        return lines

    def prologue(self) -> list[str]:
        return []


class _ListEmitter(_FunctionEmitter):
    """Operand stack as an explicit list ``st`` (the robust fallback)."""

    mode: ClassVar[str] = "list"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._tmp = 0

    def _fresh(self) -> str:
        name = f"_p{self._tmp % 4}"
        self._tmp += 1
        return name

    def pop(self) -> tuple[str, list[str]]:
        name = self._fresh()
        return name, [f"{name} = st.pop()"]

    def push(self, expr: str) -> list[str]:
        return [f"st.append({expr})"]

    def top(self) -> str:
        return "st[-1]"

    def set_top(self, expr: str) -> str:
        return f"st[-1] = {expr}"

    def discard(self) -> list[str]:
        return ["del st[-1]"]

    def make_label(self, kind: str, n_params: int, br_arity: int, end_arity: int) -> _Label:
        base = f"_b{len(self.labels)}"
        self.write(f"{base} = len(st) - {n_params}")
        return _Label(kind, br_arity, end_arity, base)

    def branch_adjust(self, label: _Label) -> list[str]:
        arity, base = label.br_arity, label.base
        if arity:
            return [
                f"if len(st) != {base} + {arity}:",
                f"    st[{base}:] = st[len(st) - {arity}:]",
            ]
        return [f"del st[{base}:]"]

    def end_adjust(self, label: _Label) -> list[str]:
        arity, base = label.end_arity, label.base
        if arity:
            return [
                f"if len(st) != {base} + {arity}:",
                f"    st[{base}:] = st[len(st) - {arity}:]",
            ]
        return [f"del st[{base}:]"]

    def return_lines(self) -> list[str]:
        nres = self.flat.n_results
        if nres:
            return [f"return (steps, *st[len(st) - {nres}:])"]
        return ["return (steps,)"]

    def call_args(self, n_params: int) -> tuple[str, list[str]]:
        if n_params == 0:
            return "", []
        return "*_a", [f"_a = st[len(st) - {n_params}:]", f"del st[len(st) - {n_params}:]"]

    def defined_call_results(self, n_results: int) -> list[str]:
        return ["steps = _r[0]", "st.extend(_r[1:])"]

    def host_call_results(self, functype) -> list[str]:
        nz = self.pool.add(_normalize, "fn")
        types = self.pool.add(functype.results, "t")
        return [
            "_r = list(_r) if _r is not None else []",
            f"st.extend({nz}(_vt, _v) for _vt, _v in zip({types}, _r))",
        ]

    def prologue(self) -> list[str]:
        return ["st = []"]


# ---------------------------------------------------------------------------
# Leaf and structure translation (mode-independent, built on the primitives)
# ---------------------------------------------------------------------------


def _emit_body(em: _FunctionEmitter, nodes: list) -> bool:
    """Emit a node sequence; returns True when control provably left it."""

    for position, node in enumerate(nodes):
        if isinstance(node[0], str):
            em.step([])  # the construct header costs one step
            em.flush()
            _emit_construct(em, node)
            continue
        if _emit_leaf(em, node):
            # Unconditional transfer: the rest of this body is dead code the
            # flat VM also never reaches (its pc has left the region).
            em.flush()
            return True
    em.flush()
    return False


def _emit_construct(em: _FunctionEmitter, node) -> None:
    kind = node[0]
    if kind == "if":
        _, arity, n_params, then_nodes, else_nodes = node
        cond, lines = em.pop()
        for line in lines:
            em.write(line)
        label = em.make_label("if", n_params, arity, arity)
        entry_depth = getattr(em, "depth", None)
        em.write("while True:")
        em.indent += 1
        em.write(f"if {cond}:")
        em.indent += 1
        em.labels.append(label)
        if not _emit_body(em, then_nodes):
            for line in em.end_adjust(label):
                em.write(line)
            em.write("break")
        em.indent -= 1
        if entry_depth is not None:
            em.depth = entry_depth
        if not _emit_body(em, else_nodes):
            for line in em.end_adjust(label):
                em.write(line)
            em.write("break")
        em.labels.pop()
        em.indent -= 1
    else:
        if kind == "loop":
            _, n_params, n_results, body = node
            label = em.make_label("loop", n_params, n_params, n_results)
        else:
            _, arity, n_params, body = node
            label = em.make_label("block", n_params, arity, arity)
        em.write("while True:")
        em.indent += 1
        em.labels.append(label)
        if not _emit_body(em, body):
            for line in em.end_adjust(label):
                em.write(line)
            em.write("break")
        em.labels.pop()
        em.indent -= 1
    if hasattr(em, "depth"):
        em.depth = (label.base if isinstance(label.base, int) else 0) + label.end_arity
    # Unwind multi-level branches that broke out of the inner region.
    if em.need_br and em.labels:
        parent = em.labels[-1]
        em.write("if _br:")
        em.write("    _br -= 1")
        if parent.kind == "loop":
            em.write("    if _br:")
            em.write("        break")
            em.write("    continue")
        else:
            em.write("    break")


def _branch_lines(em: _FunctionEmitter, depth: int) -> list[str]:
    """Adjust-stack-and-transfer code for a branch to ``depth``."""

    if depth >= len(em.labels):
        return [
            "eng.steps = steps",
            f'raise _WT("branch escaped function body (depth {depth - len(em.labels)})")',
        ]
    label = em.labels[len(em.labels) - 1 - depth]
    lines = em.branch_adjust(label)
    if depth == 0:
        lines.append("continue" if label.kind == "loop" else "break")
    else:
        lines.append(f"_br = {depth}")
        lines.append("break")
    return lines


def _emit_leaf(em: _FunctionEmitter, ins: tuple) -> bool:
    """Emit one flat instruction; returns True for unconditional transfers."""

    op = ins[0]
    pool = em.pool

    if op == OP_LOCAL_GET:
        em.step(em.push(f"l{ins[1]}"))
    elif op == OP_LOCAL_SET:
        value, lines = em.pop()
        em.step(lines + [f"l{ins[1]} = {value}"])
    elif op == OP_LOCAL_TEE:
        em.step([f"l{ins[1]} = {em.top()}"])
    elif op == OP_CONST:
        value = ins[1]
        em.step(em.push(repr(value) if isinstance(value, int) else pool.add(value, "c")))
    elif op == OP_I_BINOP:
        fn, width = ins[1], ins[2]
        rhs, lines = em.pop()
        inline = _INLINE_IBINOP.get(fn)
        if inline is not None:
            em.step(lines + [em.set_top(inline(em.top(), rhs, width, (1 << width) - 1))])
        elif fn in _TRAPPING_IBINOPS:
            fn_ref = pool.add(fn, "fn")
            assign = em.set_top(f"{fn_ref}({em.top()}, {rhs}, {width})")
            em.step(lines + _numeric_trap_lines(assign))
        else:
            em.step(lines + [em.set_top(f"{pool.add(fn, 'fn')}({em.top()}, {rhs}, {width})")])
    elif op == OP_F_BINOP:
        rhs, lines = em.pop()
        fbin = pool.add(numerics.float_binop, "fn")
        em.step(lines + [em.set_top(f"{fbin}({ins[1]!r}, {em.top()}, {rhs}, {ins[2]})")])
    elif op == OP_I_RELOP:
        base, signed, width = ins[1], ins[2], ins[3]
        rhs, lines = em.pop()
        lhs = em.top()
        if base == "eq":
            expr = f"1 if {lhs} == {rhs} else 0"
        elif base == "ne":
            expr = f"1 if {lhs} != {rhs} else 0"
        elif not signed:
            symbol = {"lt": "<", "gt": ">", "le": "<=", "ge": ">="}[base]
            expr = f"1 if {lhs} {symbol} {rhs} else 0"
        else:
            expr = f"{pool.add(numerics.int_relop, 'fn')}({base!r}, {lhs}, {rhs}, {width}, True)"
        em.step(lines + [em.set_top(expr)])
    elif op == OP_F_RELOP:
        rhs, lines = em.pop()
        frel = pool.add(numerics.float_relop, "fn")
        em.step(lines + [em.set_top(f"{frel}({ins[1]!r}, {em.top()}, {rhs})")])
    elif op == OP_TESTOP:
        em.step([em.set_top(f"1 if {em.top()} == 0 else 0")])
    elif op == OP_UNOP:
        em.step([em.set_top(f"{pool.add(ins[1], 'fn')}({em.top()})")])
    elif op == OP_CVT:
        cvt_ref = pool.add(ins[1], "fn")
        em.step(_numeric_trap_lines(em.set_top(f"{cvt_ref}({em.top()})")))
    elif op == OP_DROP:
        em.step(em.discard())
    elif op == OP_SELECT:
        cond, lines1 = em.pop()
        second, lines2 = em.pop()
        em.step(lines1 + lines2 + [f"if not {cond}:", f"    {em.set_top(second)}"])
    elif op == OP_NOP:
        em.step([])
    elif op == OP_UNREACHABLE:
        em.step(["eng.steps = steps", 'raise _WT("unreachable executed")'])
        return True
    elif op == OP_GLOBAL_GET:
        em.step(em.push(f"gl[{ins[1]}]"))
    elif op == OP_GLOBAL_SET:
        value, lines = em.pop()
        em.step(lines + [f"gl[{ins[1]}] = {value}"])
    elif op in (OP_LOAD_I, OP_LOAD_F, OP_STORE_I, OP_STORE_F, OP_MEMORY_SIZE, OP_MEMORY_GROW):
        return _emit_memory_leaf(em, ins)
    elif op == OP_BR:
        em.step(_branch_lines(em, ins[1]))
        return True
    elif op == OP_BR_IF:
        cond, lines = em.pop()
        taken = [_EXIT] + _branch_lines(em, ins[1])
        em.step(lines + [f"if {cond}:"] + ["    " + line for line in taken])
    elif op == OP_BR_TABLE:
        depths, default = ins[1], ins[2]
        index, lines = em.pop()
        if depths:
            depth_snapshot = getattr(em, "depth", None)
            for case, depth in enumerate(depths):
                lines.append(f"{'if' if case == 0 else 'elif'} {index} == {case}:")
                lines.extend("    " + line for line in _branch_lines(em, depth))
                if depth_snapshot is not None:
                    em.depth = depth_snapshot
            lines.append("else:")
            lines.extend("    " + line for line in _branch_lines(em, default))
        else:
            lines.extend(_branch_lines(em, default))
        em.step(lines)
        return True
    elif op == OP_RETURN:
        em.step(em.return_lines())
        return True
    elif op == OP_CALL:
        _emit_call(em, ins[1], expected=None)
    elif op == OP_CALL_INDIRECT:
        _emit_call_indirect(em, ins[1])
    else:  # pragma: no cover - decoder emits no other leaves
        raise _RegisterModeUnsupported(f"unknown opcode {op}")
    return False


def _numeric_trap_lines(assign: str) -> list[str]:
    """``assign`` with a ``NumericTrap`` re-raised as the step-exact trap."""

    return [
        "try:",
        "    " + assign,
        "except _NT as exc:",
        f"    eng.steps = {_HERE}",
        "    raise _WT(str(exc)) from exc",
    ]


def _access_lines(address: str, offset: int, access: str, nbytes: int) -> list[str]:
    """Run ``access`` (a ``Struct`` accessor call at ``_a``) with the flat
    VM's out-of-bounds trap.  ``unpack_from``/``pack_into`` read a negative
    offset from the end of the buffer, so ``_a < 0`` is refused first."""

    return [
        f"_a = {address} + {offset}" if offset else f"_a = {address}",
        "try:",
        "    if _a < 0:",
        "        raise _SE",
        "    " + access,
        "except _SE:",
        f"    eng.steps = {_HERE}",
        f"    raise _OOB(_a, {nbytes}, _md) from None",
    ]


def _oob_trap(address: int, nbytes: int, data) -> WasmTrap:
    """The flat VM's out-of-bounds trap, built for generated code."""

    return WasmTrap(f"out-of-bounds memory access at {address} (+{nbytes}), memory is {len(data)} bytes")


def _emit_memory_leaf(em: _FunctionEmitter, ins: tuple) -> bool:
    op = ins[0]
    if not em.has_memory:
        em.step(["eng.steps = steps", 'raise _WT("module has no memory")'])
        return True
    if op == OP_MEMORY_SIZE:
        em.step(em.push(f"len(_md) // {PAGE_SIZE}"))
        return False
    if op == OP_MEMORY_GROW:
        grow = em.set_top(f"rt.memory.grow({em.top()}) & 0xffffffff")
        em.step([grow])
        return False
    offset = ins[1]
    if op == OP_LOAD_I:
        nbytes, signed_width, wrap_width = ins[2], ins[3], ins[4]
        if signed_width:
            load = f"_ld{_SIGNED_FORMATS[nbytes]}(_md, _a)[0] & {(1 << wrap_width) - 1:#x}"
        else:
            load = f"_ld{_UNSIGNED_FORMATS[nbytes]}(_md, _a)[0]"
        em.step(_access_lines(em.top(), offset, em.set_top(load), nbytes))
    elif op == OP_LOAD_F:
        fmt, nbytes = ins[2], ins[3]
        load = f"_ld{fmt[1]}(_md, _a)[0]"
        em.step(_access_lines(em.top(), offset, em.set_top(load), nbytes))
    elif op == OP_STORE_I:
        nbytes, mask = ins[2], ins[3]
        value, lines1 = em.pop()
        address, lines2 = em.pop()
        store = f"_st{_UNSIGNED_FORMATS[nbytes]}(_md, _a, {value} & {mask:#x})"
        em.step(lines1 + lines2 + _access_lines(address, offset, store, nbytes))
    else:  # OP_STORE_F
        fmt, nbytes = ins[2], ins[3]
        value, lines1 = em.pop()
        address, lines2 = em.pop()
        store = f"_st{fmt[1]}(_md, _a, float({value}))"
        em.step(lines1 + lines2 + _access_lines(address, offset, store, nbytes))
    return False


def _host_call_lines(em: _FunctionEmitter, entry_expr: str, functype) -> list[str]:
    if functype is None:
        return [
            "eng.steps = steps",
            'raise _WT("direct call to a host function without a declared import type")',
        ]
    args, arg_lines = em.call_args(len(functype.params))
    lines = arg_lines + [
        f"_h = {entry_expr}",
        "eng.steps = steps",
        "try:",
        f"    _r = _h.fn({args})",
        "finally:",
        "    steps = eng.steps",
        "boundary = eng._current_boundary()",
    ]
    lines.extend(em.host_call_results(functype))
    return lines


def _emit_call(em: _FunctionEmitter, findex: int, expected) -> None:
    callee = em.slots[findex] if findex < len(em.slots) else None
    if isinstance(callee, FlatFunction):
        # Direct calls dispatch through the runtime's target table rather
        # than naming the sibling function: the generated chunk then has no
        # free reference to the rest of the module, so per-function chunks
        # can be cached and recombined across module versions.
        args, arg_lines = em.call_args(callee.n_params)
        call = f"_tg[{findex}](rt, steps, boundary{', ' + args if args else ''})"
        if args == "*_a":
            call = f"_tg[{findex}](rt, steps, boundary, *_a)"
        lines = arg_lines + [f"_r = {call}"]
        lines.extend(em.defined_call_results(callee.n_results))
        em.step(lines)
    else:
        em.step(_host_call_lines(em, f"rt.decoded[{findex}]", em.host_functype(findex)))
    em.flush()


def _emit_call_indirect(em: _FunctionEmitter, expected) -> None:
    pool = em.pool
    expected_ref = pool.add(expected, "t")
    index, lines = em.pop()
    lines += [
        f"if {index} < 0 or {index} >= len(rt.table):",
        "    eng.steps = steps",
        '    raise _WT(f"call_indirect index {' + index + '} out of table bounds")',
        f"_fx = rt.table[{index}]",
        "_ce = rt.decoded[_fx]",
        "if type(_ce) is _FF:",
        f"    if _ce.functype != {expected_ref}:",
        "        eng.steps = steps",
        '        raise _WT("indirect call type mismatch")',
    ]
    depth_snapshot = getattr(em, "depth", None)
    args, arg_lines = em.call_args(len(expected.params))
    call = f"_tg[_fx](rt, steps, boundary{', ' + args if args else ''})"
    if args == "*_a":
        call = "_tg[_fx](rt, steps, boundary, *_a)"
    lines.extend("    " + line for line in arg_lines)
    lines.append(f"    _r = {call}")
    lines.extend("    " + line for line in em.defined_call_results(len(expected.results)))
    result_depth = getattr(em, "depth", None)
    if depth_snapshot is not None:
        em.depth = depth_snapshot
    lines.append("else:")
    lines.extend("    " + line for line in _host_call_lines(em, "_ce", expected))
    if result_depth is not None:
        em.depth = result_depth
    em.step(lines)
    em.flush()


# ---------------------------------------------------------------------------
# Whole-function / whole-module translation
# ---------------------------------------------------------------------------


def _emit_function(index: int, flat: FlatFunction, slots: list, module: WasmModule,
                   pool: _ConstPool, force_list: bool = False) -> tuple[list[str], str]:
    nodes = _parse_seq(flat.code, 0, len(flat.code))
    for emitter_cls in ((_ListEmitter,) if force_list else (_RegisterEmitter, _ListEmitter)):
        em = emitter_cls(index, flat, slots, module, pool)
        try:
            # Locals are defaulted parameters: internal calls pass exactly
            # ``n_params`` arguments so the defaults apply, while external
            # invocations with surplus arguments fill local slots directly —
            # the same frame shape the flat VM builds (``args + inits``).
            slots_sig = [f"l{i}" for i in range(flat.n_params)]
            slots_sig += [
                f"l{flat.n_params + j}={init!r}" for j, init in enumerate(flat.local_inits)
            ]
            head = ", ".join(slots_sig)
            em.lines.append(f"def _f{index}(rt, steps, boundary{', ' + head if head else ''}):")
            em.write("eng = rt.engine")
            if em.uses_targets:
                em.write("_tg = rt.targets")
            if em.uses_globals:
                em.write("gl = rt.globals")
            if em.uses_memory:
                em.write("_md = rt.memory.data")
            for i, valtype in enumerate(flat.functype.params):
                em.write(f"l{i} = {em.norm_expr(valtype, f'l{i}')}")
            if em.need_br:
                em.write("_br = 0")
            for line in em.prologue():
                em.write(line)
            if not _emit_body(em, nodes):
                for line in em.return_lines():
                    em.write(line)
            return em.lines, em.mode
        except _RegisterModeUnsupported:
            continue
    raise AssertionError("list-mode translation cannot fail")  # pragma: no cover


class ModuleTranslation:
    """The per-module translation artifact: source plus exec'd callables.

    ``functions[i]`` is the compiled Python callable for defined slot ``i``
    and ``None`` at host slots; ``modes[i]`` records whether the register or
    list stack layout was used.  The artifact is instance-independent (all
    instance state flows through the per-instance runtime object), so it is
    shared across every instance of the module — and, via the module cache's
    content keyspace, across structurally identical module objects.
    """

    __slots__ = ("source", "functions", "modes", "function_count")

    def __init__(self, source: str, functions: tuple, modes: tuple):
        self.source = source
        self.functions = functions
        self.modes = modes
        self.function_count = sum(1 for fn in functions if fn is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModuleTranslation({self.function_count} functions, {len(self.source)} chars)"


def _base_pool_values() -> dict[str, object]:
    return dict(_WT=WasmTrap, _NT=numerics.NumericTrap, _FF=FlatFunction, _OOB=_oob_trap)


def emit_function_chunk(
    index: int, slots: list, module: WasmModule, *, force_list: bool = False
) -> tuple[str, str, dict[str, object]]:
    """Emit one function's translation unit source without exec'ing it.

    Returns ``(chunk, mode, pool_values)`` — the generated source, the
    calling-convention mode, and the const-pool namespace the chunk must be
    exec'd against.  Split out of :func:`_translate_units` so compile
    workers can do the expensive emission + ``compile()`` in a subprocess
    and ship the pieces back (``pool_values`` entries are picklable; the
    code object travels as a ``marshal`` blob).
    """

    pool = _ConstPool()
    pool.values.update(_base_pool_values())
    lines, mode = _emit_function(index, slots[index], slots, module, pool, force_list)
    return "\n".join(lines), mode, dict(pool.values)


def build_translation_unit(
    index: int,
    chunk: str,
    mode: str,
    pool_values: dict[str, object],
    *,
    module_name: str | None = None,
    code=None,
) -> tuple[str, str, object]:
    """Exec a chunk from :func:`emit_function_chunk` into a translate unit.

    ``code`` short-circuits the ``compile()`` step with a pre-compiled code
    object (e.g. unmarshalled from a compile worker); the exec itself is
    nearly free.  The namespace also gets the ``Struct`` memory accessors,
    which cannot travel in ``pool_values``.  The returned ``(chunk, mode,
    callable)`` triple is the exact value ``_translate_units`` caches.
    """

    if code is None:
        code = compile(chunk, f"<pygen:{module_name or 'module'}:f{index}>", "exec")
    namespace = dict(pool_values, **_ACCESSORS)
    exec(code, namespace)
    return (chunk, mode, namespace[f"_f{index}"])


def translate_functions(slots: list, module: WasmModule, *, force_list: bool = False) -> ModuleTranslation:
    """Translate a decoded function table (``FlatFunction``/host per slot)."""

    pool = _ConstPool()
    pool.values.update(_base_pool_values())
    chunks: list[str] = []
    modes: list = []
    for index, slot in enumerate(slots):
        if isinstance(slot, FlatFunction):
            lines, mode = _emit_function(index, slot, slots, module, pool, force_list)
            chunks.append("\n".join(lines))
            modes.append(mode)
        else:
            modes.append(None)
    source = "\n\n".join(chunks)
    namespace = dict(pool.values, **_ACCESSORS)
    exec(compile(source, f"<pygen:{module.name or 'module'}>", "exec"), namespace)
    functions = tuple(
        namespace.get(f"_f{index}") if isinstance(slot, FlatFunction) else None
        for index, slot in enumerate(slots)
    )
    return ModuleTranslation(source, functions, tuple(modes))


def _translate_units(
    slots: list, module: WasmModule, unit_cache, *, force_list: bool = False
) -> ModuleTranslation:
    """Per-function translation: each defined slot becomes its own unit.

    Only reachable through :func:`translate_module`, where ``slots`` is the
    module's own decode — so ``slots[i]`` *is* the flat code of
    ``module.functions[i]`` and the (function digest, signature digest,
    index) unit key addresses the chunk exactly.  Each unit is emitted with
    a private const pool and exec'd into a private namespace; the generated
    code reads everything else (including direct-call targets) off the
    per-invoke runtime object, so a cached callable recombines into any
    module version whose key matches.
    """

    chunks: list[str] = []
    functions: list = []
    modes: list = []
    for index, slot in enumerate(slots):
        if not isinstance(slot, FlatFunction):
            functions.append(None)
            modes.append(None)
            continue
        key = unit_cache.translate_key(
            module.functions[index], module, index, force_list=force_list
        )
        unit = unit_cache.get("translate", key)
        if unit is None:
            chunk, mode, pool_values = emit_function_chunk(index, slots, module, force_list=force_list)
            unit = build_translation_unit(index, chunk, mode, pool_values, module_name=module.name)
            unit_cache.put("translate", key, unit)
        chunk, mode, compiled = unit
        chunks.append(chunk)
        functions.append(compiled)
        modes.append(mode)
    return ModuleTranslation("\n\n".join(chunks), tuple(functions), tuple(modes))


# Per-module translation memo, keyed like the decode memo: by id() with a
# weakref guard so id reuse after collection cannot alias.
_MODULE_TRANSLATE_CACHE: dict[int, tuple[weakref.ref, ModuleTranslation]] = {}


def _remember_translation(module: WasmModule, translation: ModuleTranslation) -> None:
    key = id(module)

    def _evict(ref, _key=key):
        cached = _MODULE_TRANSLATE_CACHE.get(_key)
        if cached is not None and cached[0] is ref:
            del _MODULE_TRANSLATE_CACHE[_key]

    _MODULE_TRANSLATE_CACHE[key] = (weakref.ref(module, _evict), translation)


def translate_module(module: WasmModule, *, unit_cache=None) -> ModuleTranslation:
    """Translate every defined function of ``module``, memoized per object.

    With a ``unit_cache`` (:class:`repro.compilepipe.FunctionUnitCache`),
    translation is assembled from per-function units so a new module version
    re-translates only the functions whose content actually changed.
    """

    entry = _MODULE_TRANSLATE_CACHE.get(id(module))
    if entry is not None and entry[0]() is module:
        return entry[1]
    slots = decode_module(module, unit_cache=unit_cache).flat
    if unit_cache is not None:
        translation = _translate_units(slots, module, unit_cache)
    else:
        translation = translate_functions(slots, module)
    _remember_translation(module, translation)
    return translation


def adopt_translation(module: WasmModule, translation: ModuleTranslation) -> None:
    """Seed the per-module memo with a translation produced for a
    structurally identical module (the content-addressed cache hit path)."""

    entry = _MODULE_TRANSLATE_CACHE.get(id(module))
    if entry is None or entry[0]() is not module:
        _remember_translation(module, translation)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _Runtime:
    """Per-instance state the generated code reads (refreshed per invoke)."""

    __slots__ = ("engine", "globals", "memory", "table", "decoded", "targets")

    def __init__(self) -> None:
        self.engine = None
        self.globals = None
        self.memory = None
        self.table = None
        self.decoded = None
        self.targets = None


class _CompiledInstance:
    __slots__ = ("rt", "targets", "funcs_snapshot")

    def __init__(self, rt: _Runtime, targets: list, funcs_snapshot: list):
        self.rt = rt
        self.targets = targets
        self.funcs_snapshot = funcs_snapshot


def _matches_module_decode(decoded: list, shared: DecodedModule) -> bool:
    if len(decoded) != len(shared.flat):
        return False
    for entry, module_entry in zip(decoded, shared.flat):
        if module_entry is None:
            if not isinstance(entry, HostEntry):
                return False
        elif entry is not module_entry:
            return False
    return True


class CompiledPyEngine(ExecutionEngine):
    """Template-compiled engine: flat code exec'd as Python source.

    Semantics (results, traps, memory, globals, ``steps``) are bit-identical
    to the flat and tree engines — enforced by the three-way differential
    cross-check and the step-parity suites.  Translation happens once per
    module object (and is shared across content-identical modules via the
    module cache); patched instances are retranslated against a function
    snapshot exactly like the flat VM's decode cache.
    """

    name: ClassVar[str] = "compiled"

    #: Lazily-built flat VM twin for arity-mismatched entry invocations.
    _flat_twin: Optional[FlatVMEngine] = None

    def _prepare_instance(self, instance: WasmInstance) -> None:
        self._compile_instance(instance)

    # -- step boundary helpers (shared with the generated code) ------------

    def _current_boundary(self):
        limit = self.max_steps
        trap_at = limit + 1 if limit is not None else _INF
        profiler = self.profiler
        if profiler is None:
            return trap_at
        next_at = profiler.next_at
        return trap_at if trap_at < next_at else next_at

    def _on_boundary(self, steps: int, function_name):
        """Handle a batched step counter crossing the trap/sample boundary."""

        limit = self.max_steps
        if limit is not None and steps > limit:
            self.steps = steps
            raise WasmTrap("step budget exhausted")
        profiler = self.profiler
        if profiler is not None and steps >= profiler.next_at:
            profiler.record(function_name, steps)
        return self._current_boundary()

    # -- translation management --------------------------------------------

    def _compile_instance(self, instance: WasmInstance) -> _CompiledInstance:
        decoded = decode_instance(instance)
        shared = decode_module(instance.module)
        if _matches_module_decode(decoded, shared):
            translation = translate_module(instance.module)
        else:
            # Patched function table: translate this instance's decode fresh
            # (the module-level artifact would run stale code).
            translation = translate_functions(decoded, instance.module)
        rt = _Runtime()
        rt.decoded = decoded
        targets = list(translation.functions)
        rt.targets = targets
        compiled = _CompiledInstance(rt, targets, list(instance.funcs))
        instance.compiled_py = compiled
        # Keep the flat VM's decode cache coherent too: we just decoded.
        instance.decoded = decoded
        instance.decoded_funcs = list(instance.funcs)
        return compiled

    @staticmethod
    def _compiled_is_current(instance: WasmInstance, compiled: _CompiledInstance) -> bool:
        snapshot = compiled.funcs_snapshot
        funcs = instance.funcs
        if len(snapshot) != len(funcs):
            return False
        for cached, current in zip(snapshot, funcs):
            if cached is not current:
                return False
        return True

    # -- invocation ---------------------------------------------------------

    def invoke_index(self, instance: WasmInstance, index: int, args: list[WasmValue]) -> list[WasmValue]:
        target = instance.funcs[index]
        if callable(target) and not isinstance(target, WasmFunction):
            results = target(*args)
            return list(results) if results is not None else []
        compiled: Optional[_CompiledInstance] = getattr(instance, "compiled_py", None)
        if compiled is None or not self._compiled_is_current(instance, compiled):
            compiled = self._compile_instance(instance)
        flat = compiled.rt.decoded[index]
        if len(args) != flat.n_params:
            adapted = self._adapt_entry_args(flat, args)
            if adapted is None:
                return self._invoke_mismatched_arity(instance, index, args)
            args = adapted
        rt = compiled.rt
        rt.engine = self
        rt.globals = instance.globals
        rt.memory = instance.memory
        rt.table = instance.table
        result = compiled.targets[index](rt, self.steps, self._current_boundary(), *args)
        self.steps = result[0]
        return list(result[1:])

    @staticmethod
    def _adapt_entry_args(flat, args: list[WasmValue]) -> Optional[list[WasmValue]]:
        """Map a surplus-argument entry call onto the generated signature.

        The flat VM's entry frame is ``list(args)`` with the local inits
        appended, so surplus arguments occupy leading local slots and push
        the inits outward.  The generated functions take locals as defaulted
        parameters, so passing the surplus arguments through reproduces that
        frame exactly — provided every slot still covered by a default would
        receive the same init value the flat VM's shifted frame gives it.
        Returns the argument list to pass, or ``None`` when only the flat
        twin can reproduce the historical semantics (missing arguments, or
        an init shift that changes a slot's value/type)."""

        supplied, n_params = len(args), flat.n_params
        if supplied < n_params:
            return None
        inits = flat.local_inits
        total = n_params + len(inits)
        if supplied >= total:
            # Every readable slot is an argument; extras are unreachable.
            return args[:total]
        for position in range(supplied, total):
            lead, shifted = inits[position - n_params], inits[position - supplied]
            if type(lead) is not type(shifted) or lead != shifted:
                return None
        return args

    def _invoke_mismatched_arity(
        self, instance: WasmInstance, index: int, args: list[WasmValue]
    ) -> list[WasmValue]:
        """Entry invocations whose argument count disagrees with the
        function signature.  The historical engines build the entry frame as
        ``list(args) + local_inits``, so surplus arguments silently occupy
        local slots — semantics the fixed-signature generated code cannot
        express.  Validation guarantees exact arity for internal calls, so
        only external invocations land here; they run on a flat VM twin
        sharing this engine's step counter, budget and profiler, which keeps
        results, traps and ``steps`` bit-identical to the flat engine."""

        twin = self._flat_twin
        if twin is None:
            twin = self._flat_twin = FlatVMEngine()
        twin.max_steps = self.max_steps
        twin.profiler = self.profiler
        twin.steps = self.steps
        try:
            return twin.invoke_index(instance, index, args)
        finally:
            self.steps = twin.steps


ENGINES[CompiledPyEngine.name] = CompiledPyEngine
