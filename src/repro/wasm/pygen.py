"""The compiled execution tier: flat code translated to Python source.

The flat VM (:mod:`repro.wasm.engine`) already removed the tree walker's
re-discovery of structure, but every step still pays a dispatch-loop
iteration, a handler lookup and a step-budget comparison.  This module is
the next tier — the standard template-compilation move: decoded
:class:`~repro.wasm.decode.FlatFunction` code is translated *once per
module* into Python source (one Python function per Wasm function), and
each function's source is ``compile()``'d and ``exec``'d at its first call,
so the CPython bytecode interpreter becomes the dispatch loop and a function
that never runs costs only its emission.

Translation strategy:

* pc-addressed control flow is re-nested into the ``block``/``loop``/``if``
  tree the decoder flattened, then rendered as ``while True:`` regions —
  ``br`` to a block is ``break``, ``br`` to a loop is ``continue``, and
  multi-level branches set a ``_br`` counter unwound by a small cascade
  after each inner region;
* Wasm locals become Python locals ``l0..lN``;
* the operand stack becomes Python locals ``s0..sN``: an engine runs only
  validated code (``ExecutionEngine.instantiate`` validates), and in
  validated code the stack depth at every instruction is static.  The
  emitter keeps a *symbolic* operand stack, Binaryen's expression-tree
  idea applied at emit time: pure operands (local and global reads,
  constants, the inline integer binops, integer relops and tests, the other
  non-trapping integer numerics, ``wrap``/``extend`` and ``select``) stay
  Python expressions and are folded into the instruction that consumes
  them, so ``local.get; i32.const; i32.add; local.set`` is one line and a
  compare feeding ``if``/``br_if``/``select`` becomes the condition itself.
  Loads, trapping numerics, calls, ``memory.size``/``memory.grow`` and the
  float operators still run at their own instruction, so a trap keeps its
  step.  A pending operand is *materialized* into its ``s*`` slot only
  where its value could change or be observed: before a write to a local,
  global or slot it reads, before a call (the arguments themselves pass as
  expressions; a callee or host may write globals), on a branch's stack
  adjustment, and at every chunk end — a chunk's deopt guard hands
  ``s0..s{depth-1}`` to the flat VM through ``locals()``;
* linear memory is read and written through precompiled little-endian
  :class:`struct.Struct` accessors, with a failed access caught as
  ``struct.error`` and re-raised as the flat VM's out-of-bounds trap.
  Every integer producer yields a non-negative value (arguments and host
  results are masked on entry; ``tests/wasm/test_pygen_fold.py`` checks
  each producer over edge inputs), so an address is never negative and
  needs no guard against ``unpack_from``'s end-relative offsets; for the
  same reason a full-width store writes its operand unmasked.

:class:`CompiledPyEngine` (``"compiled"``) exposes the tier behind the
:class:`~repro.wasm.engine.ExecutionEngine` ABC.  Translation is memoized
per module object (like the decode memo) and adopted across structurally
identical modules by :class:`repro.runtime.cache.ModuleCache`'s
``translate`` stage, so workers and repeat runs skip it the same way they
skip decode.
"""

from __future__ import annotations

import re
import struct
import time
import weakref
from typing import ClassVar, Optional, Sequence

from ..core.semantics import numerics
from ..obs.metrics import default_registry
from .ast import PAGE_SIZE, WasmImportedFunction, WasmModule
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
    _cvt_extend,
    _cvt_trunc,
    _cvt_wrap,
    _unop_int,
    decode_instance,
    decode_module,
)
from .engine import ENGINES, ExecutionEngine, FlatVMEngine, _call_host
from .interpreter import CodeSnapshot, WasmInstance, WasmTrap, WasmValue, _normalize, arity_error
from .validation import validate_module

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
# chunk was counted whole before it runs, so both take back the ``rest``
# instructions that follow in it (and vanish at the chunk's last one).
_HERE = "$here"
_EXIT = "$exit"

# Precompiled little-endian accessors for every format a load or store uses,
# bound into each exec namespace as ``_ld<fmt>``/``_st<fmt>`` (shared by
# every unit rather than filed in each unit's const pool).
_ACCESSORS: dict[str, object] = {"_SE": struct.error}
for _fmt in "BbHhIiQqfd":
    _struct = struct.Struct("<" + _fmt)
    _ACCESSORS[f"_ld{_fmt}"] = _struct.unpack_from
    _ACCESSORS[f"_st{_fmt}"] = _struct.pack_into
del _fmt, _struct

_UNSIGNED_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_SIGNED_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}

_RELOP_SYMBOLS = {"eq": "==", "ne": "!=", "lt": "<", "gt": ">", "le": "<=", "ge": ">="}

# A folded operand nested deeper than this goes to its slot at once, which
# keeps generated expressions far below CPython's limit of 200 nested
# parentheses.
_MAX_NEST = 16


class _ConstPool:
    """Names for objects the generated source cannot spell as literals."""

    def __init__(self) -> None:
        self._names: dict[object, str] = {}  # id(obj), or obj itself by value
        self.values: dict[str, object] = {}

    def add(self, obj, prefix: str = "k", *, by_value: bool = False) -> str:
        key = obj if by_value else id(obj)
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
# Each node is a ``(pc, node)`` pair.  Construct nodes are tuples tagged with
# a *string* first element so they can never collide with instruction tuples
# (whose first element is an int); their last element is the flat VM's
# branch target for the construct's label.


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
            nodes.append((pos, ("block", ins[2], ins[3], body, ins[1])))
            pos = ins[1]
        elif op == OP_LOOP:
            end = _find_end(code, pos + 1)
            body = _parse_seq(code, pos + 1, end)
            nodes.append((pos, ("loop", ins[2], ins[3], body, ins[1])))
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
            nodes.append((pos, ("if", ins[3], ins[4], then_nodes, else_nodes, after_end)))
            pos = after_end
        else:
            nodes.append((pos, ins))
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
    __slots__ = ("kind", "br_arity", "end_arity", "base", "target")

    def __init__(self, kind, br_arity, end_arity, base, target):
        self.kind = kind  # "block" | "loop" | "if"
        self.br_arity = br_arity
        self.end_arity = end_arity
        self.base = base  # stack depth under the construct's parameters
        self.target = target  # the flat VM's branch target pc


# ---------------------------------------------------------------------------
# Symbolic operands
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[\w.]+(\[\d+\])?")
_CALL_HEAD = re.compile(r"\w+\(")


def _is_atom(expr: str) -> bool:
    """Whether ``expr`` can be an operand without parentheses: a name, a
    literal, ``gl[i]`` or one call."""

    if _NAME.fullmatch(expr):
        return True
    head = _CALL_HEAD.match(expr)
    if head is None:
        return False
    depth = 0
    for position in range(head.end() - 1, len(expr)):
        char = expr[position]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth == 0:
                return position == len(expr) - 1
    return False


class _Operand:
    """One entry of the register emitter's symbolic stack.

    ``expr`` is a side-effect-free Python expression for the value, ``term``
    the same parenthesized for use inside a larger expression, and ``cond``
    (when not ``None``) a comparison equivalent to ``expr != 0`` that an
    ``if``/``br_if``/``select`` tests directly.  ``reads`` names what the
    expression reads — ``l<i>``, ``g<i>`` (``gl[i]``) and ``s<j>`` — so the
    entry is materialized before any of them is written.  ``slot`` is the
    stack position when the value already lives in ``s<slot>``.  A pending
    entry at position ``p`` only reads slots at ``p`` or above: it was built
    from operands that sat there.
    """

    __slots__ = ("expr", "term", "cond", "reads", "slot", "nest")

    def __init__(self, expr: str, reads: frozenset, cond: Optional[str] = None, nest: int = 0, slot=None,
                 atom: Optional[bool] = None):
        self.expr = expr
        self.term = expr if (_is_atom(expr) if atom is None else atom) else f"({expr})"
        self.cond = cond
        self.reads = reads
        self.nest = nest
        self.slot = slot


_SLOT_OPERANDS: dict[int, _Operand] = {}  # immutable, so shared


def _slot(position: int) -> _Operand:
    operand = _SLOT_OPERANDS.get(position)
    if operand is None:
        name = f"s{position}"
        operand = _SLOT_OPERANDS.setdefault(position, _Operand(name, frozenset((name,)), slot=position, atom=True))
    return operand


def _lines(pre: list[str], assign: Optional[str]) -> list[str]:
    return pre + [assign] if assign is not None else pre


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------


class _FunctionEmitter:
    """One function's emission state: the operand stack as Python locals
    ``s0..sN`` (validated code has a static depth), with pure operands
    folded into their consumers (see :class:`_Operand`).

    The stack primitives every leaf translation is written against:

    * ``push(expr, reads)`` — push a pure value;
    * ``apply(n, build, pure=, cond=)`` — replace the top ``n`` operands by
      ``build(*terms)``, returning ``(lines, assign)``; ``assign`` is the
      statement that computes an impure result now (``None`` once folded);
    * ``top()`` — the top operand as a term, without consuming it;
    * ``pop()``/``pop_cond()`` — consume the top operand as a term or as a
      branch condition;
    * ``assign(target, key)``/``tee(name)`` — ``local.set``/``global.set``
      and ``local.tee``;
    * ``settle()`` — the lines that leave every operand in its slot at a
      chunk end, and ``drop_pending()`` after an unconditional transfer.

    Each primitive asserts the depth it needs: validated code has it.
    """

    def __init__(self, index: int, flat: FlatFunction, slots: list, module: WasmModule, pool: _ConstPool):
        self.index = index
        self.flat = flat
        self.slots = slots  # decoded table: FlatFunction | HostEntry | None
        self.module = module
        self.pool = pool
        self.lines: list[str] = []
        self.indent = 1
        self.chunk: list[list[str]] = []
        self.chunk_start: tuple = (0, 0)  # (pc, stack depth) of the chunk
        self.labels: list[_Label] = []
        self.stack: list[_Operand] = []
        self._leaves: dict[str, _Operand] = {}  # pushed names and literals
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
        self.uses_memory = any(
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
        write(f"steps += {count}")
        write("if steps >= boundary:")
        if count == 1:
            # The boundary is this very step: trap or sample in place.
            write(f"    boundary = eng._on_boundary(steps, {self.fname_ref})")
        else:
            # Due somewhere inside the chunk: ``_deopt`` re-reads the
            # boundary and, if it really is, resumes on the flat VM with
            # these label records.
            records = tuple(
                (label.target, label.br_arity, label.end_arity, label.base, label.kind == "loop")
                for label in self.labels
            )
            labels = self.pool.add(records, "L", by_value=True)
            pc, depth = self.chunk_start
            write(f"    boundary = _dp(rt, steps, locals(), {self.index}, {pc}, {count}, {depth}, {labels})")
            write("    if boundary.__class__ is tuple:")
            write("        return boundary")
        for position, lines in enumerate(chunk):
            for line in _resolve_steps(lines, count - 1 - position):
                write(line)
        for line in self.settle():
            write(line)

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

    # -- the symbolic stack ------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.stack)

    @depth.setter
    def depth(self, value: int) -> None:
        # Control-flow joins: every value is in its slot there.
        self.stack = [_slot(position) for position in range(value)]

    # -- materialization ---------------------------------------------------

    def _take(self, count: int) -> list[_Operand]:
        stack = self.stack
        assert len(stack) >= count, "stack underflow"
        if count == 1:
            return [stack.pop()]
        taken = stack[len(stack) - count:]
        del stack[len(stack) - count:]
        return taken

    def _spill(self, position: int) -> list[str]:
        """Write the entry at ``position`` to its slot."""

        entry = self.stack[position]
        if entry.slot is not None:
            return []
        name = f"s{position}"
        lines = self._spill_readers(name, position)
        lines.append(f"{name} = {entry.expr}")
        self.stack[position] = _slot(position)
        return lines

    def _spill_readers(self, name: str, below: int) -> list[str]:
        """Materialize the pending entries under ``below`` that read
        ``name``, which is about to be written."""

        lines: list[str] = []
        for position in range(below):
            entry = self.stack[position]
            if entry.slot is None and name in entry.reads:
                lines += self._spill(position)
        return lines

    def spill_below(self, keep: int) -> list[str]:
        """Materialize every pending entry under the top ``keep``."""

        lines: list[str] = []
        stack = self.stack
        for position in range(len(stack) - keep):
            if stack[position].slot is None:
                lines += self._spill(position)
        return lines

    def settle(self) -> list[str]:
        # Ascending order is hazard-free: an entry reads no slot below it.
        return self.spill_below(0)

    def drop_pending(self) -> None:
        self.depth = len(self.stack)

    # -- stack primitives --------------------------------------------------

    def push(self, expr: str, reads=()) -> list[str]:
        operand = self._leaves.get(expr)
        if operand is None:
            operand = self._leaves[expr] = _Operand(expr, frozenset(reads), atom=True)
        self.stack.append(operand)
        return []

    def apply(self, count: int, build, *, pure: bool = True, cond=None) -> tuple[list[str], Optional[str]]:
        stack = self.stack
        assert len(stack) >= count, "stack underflow"
        if count == 2:
            rhs, lhs = stack.pop(), stack.pop()
            terms = (lhs.term, rhs.term)
            reads, nest = lhs.reads | rhs.reads, 1 + max(lhs.nest, rhs.nest)
        elif count == 1:
            operand = stack.pop()
            terms, reads, nest = (operand.term,), operand.reads, 1 + operand.nest
        else:
            terms, reads, nest = (), frozenset(), 1
        expr = build(*terms)
        if pure:
            stack.append(_Operand(expr, reads, cond(*terms) if cond else None, nest))
            if nest <= _MAX_NEST:
                return [], None
            return self._spill(len(stack) - 1), None
        position = len(stack)
        lines = self._spill_readers(f"s{position}", position)
        self.stack.append(_slot(position))
        return lines, f"s{position} = {expr}"

    def top(self) -> str:
        assert self.stack, "stack underflow"
        return self.stack[-1].term

    def pop(self, reuse: bool = False) -> tuple[str, list[str]]:
        (operand,) = self._take(1)
        if reuse and not _NAME.fullmatch(operand.expr):
            return "_i", [f"_i = {operand.expr}"]
        return operand.term, []

    def pop_cond(self) -> tuple[str, list[str]]:
        (operand,) = self._take(1)
        return operand.cond or operand.term, []

    def discard(self) -> list[str]:
        self._take(1)
        return []

    def assign(self, target: str, key: str) -> list[str]:
        (value,) = self._take(1)
        return self._spill_readers(key, len(self.stack)) + [f"{target} = {value.expr}"]

    def tee(self, name: str) -> list[str]:
        assert self.stack, "stack underflow"
        top = self.stack[-1]
        lines = self._spill_readers(name, len(self.stack) - 1)
        lines.append(f"{name} = {top.expr}")
        if top.slot is None:
            # The local now holds the value: read it back rather than
            # evaluating the expression a second time.
            self.stack[-1] = _Operand(name, frozenset((name,)), atom=True)
        return lines

    def select(self) -> list[str]:
        first, second, cond = self._take(3)
        test = cond.cond or cond.term
        self.stack.append(_Operand(
            f"{first.term} if {test} else {second.term}",
            first.reads | second.reads | cond.reads,
            nest=1 + max(first.nest, second.nest, cond.nest),
        ))
        if self.stack[-1].nest <= _MAX_NEST:
            return []
        return self._spill(len(self.stack) - 1)

    # -- label plumbing ----------------------------------------------------

    def make_label(self, kind: str, n_params: int, br_arity: int, end_arity: int, target: int) -> _Label:
        base = self.depth - n_params
        assert base >= 0, "negative label base"
        return _Label(kind, br_arity, end_arity, base, target)

    def branch_adjust(self, label: _Label) -> list[str]:
        # Entries under the label's base went to their slots at its header.
        # Writing targets in ascending order is hazard-free: each source
        # sits at or above its target and reads no slot below itself.
        arity, base = label.br_arity, label.base
        depth = len(self.stack)
        assert depth >= base + arity, "branch underflow"
        lines = []
        for j in range(arity):
            source = self.stack[depth - arity + j]
            if source.slot != base + j:
                lines.append(f"s{base + j} = {source.expr}")
        return lines

    def end_adjust(self, label: _Label) -> list[str]:
        assert self.depth == label.base + label.end_arity, "fallthrough depth mismatch"
        return []

    def return_lines(self) -> list[str]:
        nres = self.flat.n_results
        assert self.depth >= nres, "return underflow"
        values = ", ".join(operand.expr for operand in self.stack[len(self.stack) - nres:])
        return [f"return (steps, {values})" if nres else "return (steps,)"]

    def call_args(self, n_params: int) -> tuple[str, list[str]]:
        # A callee or host may write globals: nothing pending may survive
        # the call (the chunk ends there anyway).
        assert self.depth >= n_params, "call underflow"
        lines = self.spill_below(n_params)
        return ", ".join(operand.expr for operand in self._take(n_params)), lines

    def defined_call_results(self, call: str, n_results: int) -> list[str]:
        base = self.depth
        self.stack.extend(_slot(base + j) for j in range(n_results))
        if n_results == 0:
            return [f"steps = {call}[0]"]
        targets = ", ".join(f"s{base + j}" for j in range(n_results))
        return [f"steps, {targets} = {call}"]

    def host_call_results(self, functype) -> list[str]:
        lines = ["_r = list(_r) if _r is not None else []"]
        for j, valtype in enumerate(functype.results):
            lines.append(f"s{self.depth} = {self.norm_expr(valtype, f'_r[{j}]')}")
            self.stack.append(_slot(self.depth))
        return lines


# ---------------------------------------------------------------------------
# Leaf and structure translation (built on the stack primitives)
# ---------------------------------------------------------------------------


def _emit_body(em: _FunctionEmitter, nodes: list, tail: bool = False) -> bool:
    """Emit a node sequence; returns True when control provably left it.

    ``tail`` marks a function's outermost body: its implicit return joins
    the last chunk, so the values it returns need no slots."""

    for pc, node in nodes:
        if not em.chunk:
            em.chunk_start = (pc, em.depth)
        if isinstance(node[0], str):
            # The construct header costs one step; an ``if`` consumes its
            # condition there, before the chunk's operands settle.
            cond, lines = em.pop_cond() if node[0] == "if" else (None, [])
            em.step(lines)
            em.flush()
            _emit_construct(em, node, cond)
            continue
        if _emit_leaf(em, node):
            # Unconditional transfer: the rest of this body is dead code the
            # flat VM also never reaches (its pc has left the region).
            em.drop_pending()
            em.flush()
            return True
    if tail and em.chunk:
        em.chunk[-1] = em.chunk[-1] + em.return_lines()
        em.drop_pending()
        em.flush()
        return True
    em.flush()
    return False


def _emit_construct(em: _FunctionEmitter, node, cond: Optional[str]) -> None:
    kind = node[0]
    if kind == "if":
        _, arity, n_params, then_nodes, else_nodes, target = node
        label = em.make_label("if", n_params, arity, arity, target)
        entry_depth = em.depth
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
        em.depth = entry_depth
        if not _emit_body(em, else_nodes):
            for line in em.end_adjust(label):
                em.write(line)
            em.write("break")
        em.labels.pop()
        em.indent -= 1
    else:
        if kind == "loop":
            _, n_params, n_results, body, target = node
            label = em.make_label("loop", n_params, n_params, n_results, target)
        else:
            _, arity, n_params, body, target = node
            label = em.make_label("block", n_params, arity, arity, target)
        em.write("while True:")
        em.indent += 1
        em.labels.append(label)
        if not _emit_body(em, body):
            for line in em.end_adjust(label):
                em.write(line)
            em.write("break")
        em.labels.pop()
        em.indent -= 1
    em.depth = label.base + label.end_arity
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
    """Adjust-stack-and-transfer code for a branch to ``depth``: past the
    innermost ``len(em.labels)`` labels is the function body's own, whose
    branch is a return."""

    if depth == len(em.labels):
        return em.return_lines()
    label = em.labels[len(em.labels) - 1 - depth]
    lines = em.branch_adjust(label)
    if depth == 0:
        lines.append("continue" if label.kind == "loop" else "break")
    else:
        lines.append(f"_br = {depth}")
        lines.append("break")
    return lines


def _compare(symbol: str, signed: bool, width: int):
    """A relop as a Python comparison of two terms.  Operands are
    normalized, so flipping the sign bit maps signed order onto unsigned."""

    if not signed or symbol in ("==", "!="):
        return lambda a, b: f"{a} {symbol} {b}"
    bias = f"{1 << (width - 1):#x}"
    return lambda a, b: f"{a} ^ {bias} {symbol} {b} ^ {bias}"


def _emit_leaf(em: _FunctionEmitter, ins: tuple) -> bool:
    """Emit one flat instruction; returns True for unconditional transfers."""

    op = ins[0]
    pool = em.pool

    if op == OP_LOCAL_GET:
        name = f"l{ins[1]}"
        em.step(em.push(name, (name,)))
    elif op == OP_LOCAL_SET:
        em.step(em.assign(f"l{ins[1]}", f"l{ins[1]}"))
    elif op == OP_LOCAL_TEE:
        em.step(em.tee(f"l{ins[1]}"))
    elif op == OP_CONST:
        value = ins[1]
        em.step(em.push(repr(value) if isinstance(value, int) else pool.add(value, "c")))
    elif op in _NUMERIC_OPS:
        _emit_numeric(em, ins)
    elif op == OP_DROP:
        em.step(em.discard())
    elif op == OP_SELECT:
        em.step(em.select())
    elif op == OP_NOP:
        em.step([])
    elif op == OP_UNREACHABLE:
        em.step(["eng.steps = steps", 'raise _WT("unreachable executed")'])
        return True
    elif op == OP_GLOBAL_GET:
        em.step(em.push(f"gl[{ins[1]}]", (f"g{ins[1]}",)))
    elif op == OP_GLOBAL_SET:
        em.step(em.assign(f"gl[{ins[1]}]", f"g{ins[1]}"))
    elif op in (OP_LOAD_I, OP_LOAD_F, OP_STORE_I, OP_STORE_F, OP_MEMORY_SIZE, OP_MEMORY_GROW):
        return _emit_memory_leaf(em, ins)
    elif op == OP_BR:
        em.step(_branch_lines(em, ins[1]))
        return True
    elif op == OP_BR_IF:
        cond, lines = em.pop_cond()
        taken = [_EXIT] + _branch_lines(em, ins[1])
        em.step(lines + [f"if {cond}:"] + ["    " + line for line in taken])
    elif op == OP_BR_TABLE:
        depths, default = ins[1], ins[2]
        index, lines = em.pop(reuse=True)
        if depths:
            for case, depth in enumerate(depths):
                lines.append(f"{'if' if case == 0 else 'elif'} {index} == {case}:")
                lines.extend("    " + line for line in _branch_lines(em, depth))
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
    else:
        assert op == OP_CALL_INDIRECT, f"unknown opcode {op}"
        _emit_call_indirect(em, ins[1])
    return False


_NUMERIC_OPS = frozenset((OP_I_BINOP, OP_F_BINOP, OP_I_RELOP, OP_F_RELOP, OP_TESTOP, OP_UNOP, OP_CVT))


def _emit_numeric(em: _FunctionEmitter, ins: tuple) -> None:
    """Emit one numeric instruction.  (Kept out of :func:`_emit_leaf`: the
    closures here would make every one of its calls set up their cells.)"""

    op = ins[0]
    pool = em.pool
    if op == OP_I_BINOP:
        fn, width = ins[1], ins[2]
        inline = _INLINE_IBINOP.get(fn)
        if inline is not None:
            mask = (1 << width) - 1
            em.step(_lines(*em.apply(2, lambda a, b: inline(a, b, width, mask))))
        else:
            fn_ref = pool.add(fn, "fn")
            call = lambda a, b: f"{fn_ref}({a}, {b}, {width})"  # noqa: E731
            if fn in _TRAPPING_IBINOPS:
                lines, assign = em.apply(2, call, pure=False)
                em.step(lines + _numeric_trap_lines(assign))
            else:
                em.step(_lines(*em.apply(2, call)))
    elif op == OP_F_BINOP:
        fbin = pool.add(numerics.float_binop, "fn")
        fop, width = ins[1], ins[2]
        em.step(_lines(*em.apply(2, lambda a, b: f"{fbin}({fop!r}, {a}, {b}, {width})", pure=False)))
    elif op == OP_I_RELOP:
        compare = _compare(_RELOP_SYMBOLS[ins[1]], ins[2], ins[3])
        em.step(_lines(*em.apply(2, lambda a, b: f"1 if {compare(a, b)} else 0", cond=compare)))
    elif op == OP_F_RELOP:
        frel = pool.add(numerics.float_relop, "fn")
        fop = ins[1]
        em.step(_lines(*em.apply(2, lambda a, b: f"{frel}({fop!r}, {a}, {b})", pure=False)))
    elif op == OP_TESTOP:
        em.step(_lines(*em.apply(1, lambda a: f"1 if {a} == 0 else 0", cond=lambda a: f"{a} == 0")))
    elif op == OP_UNOP:
        fn_ref = pool.add(ins[1], "fn")
        pure = getattr(ins[1], "func", None) is _unop_int
        em.step(_lines(*em.apply(1, lambda a: f"{fn_ref}({a})", pure=pure)))
    elif op == OP_CVT:
        cvt = ins[1]
        kind = getattr(cvt, "func", cvt)
        # Operands are normalized, so wrap and extend are plain integer
        # arithmetic (extend_u is the identity); only truncations can trap.
        if kind is _cvt_wrap:
            em.step(_lines(*em.apply(1, lambda a: f"{a} & 0xffffffff")))
        elif kind is _cvt_extend:
            signed = lambda a: f"(({a} ^ 0x80000000) - 0x80000000) & 0xffffffffffffffff"  # noqa: E731
            em.step(_lines(*em.apply(1, signed)) if cvt.args[0] else [])
        else:
            fn_ref = pool.add(cvt, "fn")
            lines, assign = em.apply(1, lambda a: f"{fn_ref}({a})", pure=False)
            em.step(lines + (_numeric_trap_lines(assign) if kind is _cvt_trunc else [assign]))


def _numeric_trap_lines(assign: str) -> list[str]:
    """``assign`` with a ``NumericTrap`` re-raised as the step-exact trap."""

    return [
        "try:",
        "    " + assign,
        "except _NT as exc:",
        f"    eng.steps = {_HERE}",
        "    raise _WT(str(exc)) from exc",
    ]


def _address(base: str, offset: int) -> str:
    return f"{base} + {offset}" if offset else base


def _access_lines(address: str, access: str, nbytes: int) -> list[str]:
    """Run ``access`` (a ``Struct`` accessor call at ``address``) with the
    flat VM's out-of-bounds trap.  Addresses are never negative (every
    integer producer is), so ``unpack_from``/``pack_into`` raising
    ``struct.error`` is exactly the out-of-bounds case; the failed access
    changed nothing, so the trap recomputes the pure ``address``."""

    return [
        "try:",
        "    " + access,
        "except _SE:",
        f"    eng.steps = {_HERE}",
        f"    raise _OOB({address}, {nbytes}, _md) from None",
    ]


def _oob_trap(address: int, nbytes: int, data) -> WasmTrap:
    """The flat VM's out-of-bounds trap, built for generated code."""

    return WasmTrap(f"out-of-bounds memory access at {address} (+{nbytes}), memory is {len(data)} bytes")


def _emit_memory_leaf(em: _FunctionEmitter, ins: tuple) -> bool:
    op = ins[0]
    if op == OP_MEMORY_SIZE:
        em.step(_lines(*em.apply(0, lambda: f"len(_md) // {PAGE_SIZE}", pure=False)))
        return False
    if op == OP_MEMORY_GROW:
        em.step(_lines(*em.apply(1, lambda delta: f"rt.memory.grow({delta}) & 0xffffffff", pure=False)))
        return False
    offset = ins[1]
    if op == OP_LOAD_I or op == OP_LOAD_F:
        if op == OP_LOAD_I:
            nbytes, signed_width, wrap_width = ins[2], ins[3], ins[4]
            fmt = _SIGNED_FORMATS[nbytes] if signed_width else _UNSIGNED_FORMATS[nbytes]
            wrap = f" & {(1 << wrap_width) - 1:#x}" if signed_width else ""
        else:
            fmt, nbytes, wrap = ins[2][1], ins[3], ""
        address = _address(em.top(), offset)
        lines, assign = em.apply(1, lambda _base: f"_ld{fmt}(_md, {address})[0]{wrap}", pure=False)
        em.step(lines + _access_lines(address, assign, nbytes))
        return False
    value, lines1 = em.pop()
    base, lines2 = em.pop()
    address = _address(base, offset)
    if op == OP_STORE_I:
        nbytes, mask, whole = ins[2], ins[3], ins[4]
        # A store of the operand's full width takes it as normalized; a
        # narrower one keeps its low bytes.
        store = f"_st{_UNSIGNED_FORMATS[nbytes]}(_md, {address}, {value if whole else f'{value} & {mask:#x}'})"
    else:  # OP_STORE_F
        fmt, nbytes = ins[2], ins[3]
        store = f"_st{fmt[1]}(_md, {address}, float({value}))"
    em.step(lines1 + lines2 + _access_lines(address, store, nbytes))
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
        args, lines = em.call_args(callee.n_params)
        call = f"_tg[{findex}](rt, steps, boundary{', ' + args if args else ''})"
        em.step(lines + em.defined_call_results(call, callee.n_results))
    else:
        em.step(_host_call_lines(em, f"rt.decoded[{findex}]", em.host_functype(findex)))
    em.flush()


def _emit_call_indirect(em: _FunctionEmitter, expected) -> None:
    pool = em.pool
    expected_ref = pool.add(expected, "t")
    n_params = len(expected.params)
    # Settle everything under the arguments once, ahead of both call paths.
    lines = em.spill_below(n_params + 1)
    index, index_lines = em.pop(reuse=True)
    lines += index_lines + [
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
    state = list(em.stack)
    args, arg_lines = em.call_args(n_params)
    lines.extend("    " + line for line in arg_lines)
    call = f"_tg[_fx](rt, steps, boundary{', ' + args if args else ''})"
    lines.extend("    " + line for line in em.defined_call_results(call, len(expected.results)))
    em.stack = state
    lines.append("else:")
    lines.extend("    " + line for line in _host_call_lines(em, "_ce", expected))
    em.step(lines)
    em.flush()


# ---------------------------------------------------------------------------
# Whole-function / whole-module translation
# ---------------------------------------------------------------------------


class ModuleTranslation:
    """The per-module translation artifact: source plus one callable per slot.

    ``functions[i]`` is the callable of defined slot ``i`` and ``None`` at
    host slots.  Every function's source is emitted up front, but a slot's
    callable is its unit's first-call stub (:class:`_FirstCallStub`):
    Python's ``compile()`` runs for a function only when it is first
    called.  The artifact is instance-independent (all instance state flows
    through the per-instance runtime object), so it is shared across every
    instance of the module — and, via the module cache's content keyspace,
    across structurally identical module objects.
    """

    __slots__ = ("source", "functions", "function_count")

    def __init__(self, source: str, functions: tuple):
        self.source = source
        self.functions = functions
        self.function_count = sum(1 for fn in functions if fn is not None)

    def targets(self) -> list:
        """A new instance's target table: the generated function of every
        slot whose stub has already compiled it, the stub elsewhere."""

        return [getattr(fn, "generated", None) or fn for fn in self.functions]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModuleTranslation({self.function_count} functions, {len(self.source)} chars)"


# Translation work, process-wide: seconds emitting source, seconds in
# ``compile()`` (at functions' first calls) and characters emitted.  The
# facade's ``compile.translate`` span carries the deltas of one stage.
_EMIT_SECONDS = default_registry().counter(
    "compile.translate.emit_seconds", "seconds spent emitting compiled-tier source"
)
_PYCOMPILE_SECONDS = default_registry().counter(
    "compile.translate.pycompile_seconds", "seconds spent in compile() on compiled-tier source"
)
_SOURCE_CHARS = default_registry().counter(
    "compile.translate.source_chars", "characters of compiled-tier source emitted"
)


def translate_work() -> tuple[float, float, int]:
    """``(emit seconds, compile() seconds, source characters)`` so far."""

    return (_EMIT_SECONDS.value, _PYCOMPILE_SECONDS.value, _SOURCE_CHARS.value)


def emit_function_chunk(index: int, slots: list, module: WasmModule) -> tuple[str, dict[str, object]]:
    """Emit one function's translation unit source without exec'ing it.

    Returns ``(chunk, pool_values)`` — the generated source and the
    const-pool namespace it must be exec'd against
    (:func:`build_translation_unit` wraps both in a first-call stub).  The
    function must be valid: the emitter relies on its static stack depth.
    """

    flat = slots[index]
    nodes = _parse_seq(flat.code, 0, len(flat.code))
    pool = _ConstPool()
    pool.values.update(_WT=WasmTrap, _NT=numerics.NumericTrap, _FF=FlatFunction, _OOB=_oob_trap, _dp=_deopt)
    em = _FunctionEmitter(index, flat, slots, module, pool)
    # Locals are defaulted parameters: every call, internal or external,
    # passes exactly ``n_params`` arguments, so the defaults are the local
    # inits.  Parameters arrive normalized: ``invoke_index`` normalizes the
    # entry arguments and every internal producer's value already is.
    slots_sig = [f"l{i}" for i in range(flat.n_params)]
    slots_sig += [f"l{flat.n_params + j}={init!r}" for j, init in enumerate(flat.local_inits)]
    head = ", ".join(slots_sig)
    em.lines.append(f"def _f{index}(rt, steps, boundary{', ' + head if head else ''}):")
    em.write("eng = rt.engine")
    if em.uses_targets:
        em.write("_tg = rt.targets")
    if em.uses_globals:
        em.write("gl = rt.globals")
    if em.uses_memory:
        em.write("_md = rt.memory.data")
    if em.need_br:
        em.write("_br = 0")
    if not _emit_body(em, nodes, tail=True):
        for line in em.return_lines():
            em.write(line)
    return "\n".join(em.lines), dict(pool.values)


def _compile_chunk(index: int, chunk: str, pool_values: dict[str, object], filename: str):
    """Run ``compile()`` and ``exec`` on one emitted chunk: its generated
    function, exec'd against the const pool and the ``Struct`` accessors."""

    started = time.perf_counter()
    # ``compile`` stays a module-global lookup, so it can be wrapped.
    code = compile(chunk, filename, "exec")
    _PYCOMPILE_SECONDS.inc(time.perf_counter() - started)
    namespace = dict(pool_values, **_ACCESSORS)
    exec(code, namespace)
    return namespace[f"_f{index}"]


class _FirstCallStub:
    """The callable of a translate unit until its function first runs.

    The first call compiles the emitted chunk and files the generated
    function as ``generated``, on the stub every translation sharing the
    unit holds, so :meth:`ModuleTranslation.targets` binds it directly into
    later instances.  Every call through the stub patches the calling
    instance's ``rt.targets[index]`` to the generated function, then runs it
    with the same arguments: the activation is the one the generated
    function would have run had it been compiled up front.
    """

    __slots__ = ("index", "chunk", "pool_values", "filename", "generated")

    def __init__(self, index: int, chunk: str, pool_values: dict[str, object], filename: str):
        self.index = index
        self.chunk = chunk
        self.pool_values = pool_values
        self.filename = filename
        self.generated = None

    def compile(self):
        """The generated function, compiled on the first request."""

        generated = self.generated
        if generated is None:
            generated = self.generated = _compile_chunk(self.index, self.chunk, self.pool_values, self.filename)
        return generated

    def __call__(self, rt, steps, boundary, *args):
        generated = self.compile()
        targets = rt.targets
        if targets[self.index] is self:
            targets[self.index] = generated
        return generated(rt, steps, boundary, *args)


def build_translation_unit(
    index: int, chunk: str, pool_values: dict[str, object], *, module_name: str | None = None
) -> tuple[str, object]:
    """Wrap a chunk from :func:`emit_function_chunk` into a translate unit.

    The returned ``(chunk, callable)`` pair is the exact value
    ``translate_functions`` caches; the callable is the chunk's first-call
    stub, so nothing is compiled here.
    """

    filename = f"<pygen:{module_name or 'module'}:f{index}>"
    return (chunk, _FirstCallStub(index, chunk, pool_values, filename))


def translate_functions(slots: list, module: WasmModule, *, unit_cache=None) -> ModuleTranslation:
    """Translate a decoded function table (``FlatFunction``/host per slot).

    Each defined slot becomes its own unit: its source is emitted here with
    a private const pool, and ``compile()`` + ``exec`` into a private
    namespace run at the function's first call (:class:`_FirstCallStub`),
    so a function that never runs is never compiled.  The generated code reads
    everything else (including direct-call targets) off the per-invoke
    runtime object, so with a ``unit_cache`` a cached callable recombines
    into any module version whose key matches.  Caching is only sound where
    ``slots`` is the module's own decode (:func:`translate_module`), so
    ``slots[i]`` *is* the flat code of ``module.functions[i]`` and the
    (function digest, signature digest, index) unit key addresses the chunk
    exactly; a patched instance's table is translated without one.  Every
    slot's code must be valid (the engines validate before they translate).
    """

    chunks: list[str] = []
    functions: list = []
    for index, slot in enumerate(slots):
        if not isinstance(slot, FlatFunction):
            functions.append(None)
            continue
        unit = key = None
        if unit_cache is not None:
            key = unit_cache.translate_key(module.functions[index], module, index)
            unit = unit_cache.get("translate", key)
        if unit is None:
            started = time.perf_counter()
            emitted = emit_function_chunk(index, slots, module)
            _EMIT_SECONDS.inc(time.perf_counter() - started)
            _SOURCE_CHARS.inc(len(emitted[0]))
            unit = build_translation_unit(index, *emitted, module_name=module.name)
            if unit_cache is not None:
                unit_cache.put("translate", key, unit)
        chunk, compiled = unit
        chunks.append(chunk)
        functions.append(compiled)
    return ModuleTranslation("\n\n".join(chunks), tuple(functions))


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
    re-translates only the functions whose content actually changed.  An
    invalid module raises :class:`~repro.wasm.validation.WasmValidationError`
    (a module validated before is not checked again).
    """

    entry = _MODULE_TRANSLATE_CACHE.get(id(module))
    if entry is not None and entry[0]() is module:
        return entry[1]
    validate_module(module)
    slots = decode_module(module, unit_cache=unit_cache).flat
    translation = translate_functions(slots, module, unit_cache=unit_cache)
    _remember_translation(module, translation)
    return translation


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


def _deopt(rt, steps: int, frame: dict, index: int, pc: int, count: int, depth: int, labels: tuple):
    """The guard of a ``count``-step chunk found ``steps >= boundary``.

    A caller's ``boundary`` goes stale once a callee takes a sample, so the
    boundary is re-read first: if nothing is due inside the chunk, the fresh
    boundary goes back and the compiled frame carries on.  Otherwise the
    activation is resumed on the engine's flat VM at the chunk's first
    ``pc`` — locals ``l*`` and the ``depth`` operand slots ``s*`` read out
    of the compiled ``frame`` (``locals()``) — and run to its return, which the flat VM steps one instruction at a time: budget traps
    and samples land on the same step, with the same partial side effects,
    as on the flat engine.  Returns the compiled ``(steps, *results)``.
    """

    eng = rt.engine
    boundary = eng._current_boundary()
    if steps < boundary:
        return boundary
    flat = rt.decoded[index]
    locals_ = [frame[f"l{i}"] for i in range(flat.n_params + len(flat.local_inits))]
    stack = [frame[f"s{j}"] for j in range(depth)]
    eng.steps = steps - count
    results = eng._flat._run(rt.instance, rt.decoded, index, None, (pc, locals_, stack, list(labels)))
    return (eng.steps, *results)


class _Runtime:
    """Per-instance state the generated code reads: ``instance``,
    ``decoded`` and ``targets`` are set per translation; the engine and the
    instance's globals, memory and table are bound at the first invoke and
    rebound only when one of them changes identity."""

    __slots__ = ("engine", "instance", "globals", "memory", "table", "decoded", "targets")


class _CompiledInstance:
    __slots__ = ("rt", "targets", "snapshot")

    def __init__(self, rt: _Runtime, targets: list, snapshot: CodeSnapshot):
        self.rt = rt
        self.targets = targets
        self.snapshot = snapshot


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

    def __init__(self, *, max_steps: Optional[int] = None) -> None:
        super().__init__(max_steps=max_steps)
        self._flat = _FlatTwin(self)

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
        rt.engine = rt.globals = rt.memory = rt.table = None  # bound at the first invoke
        rt.instance = instance
        rt.decoded = decoded
        targets = translation.targets()
        rt.targets = targets
        snapshot = CodeSnapshot(instance.funcs)
        compiled = _CompiledInstance(rt, targets, snapshot)
        instance.compiled_py = compiled
        # Keep the flat VM's decode cache coherent too: we just decoded.
        instance.decoded = decoded
        instance.decoded_snapshot = snapshot
        return compiled

    # -- invocation ---------------------------------------------------------

    def invoke_index(self, instance: WasmInstance, index: int, args: Sequence[WasmValue]) -> list[WasmValue]:
        compiled: Optional[_CompiledInstance] = instance.compiled_py
        if compiled is None or (
            instance.funcs.version != compiled.snapshot.version and not compiled.snapshot.is_current(instance.funcs)
        ):
            compiled = self._compile_instance(instance)
        rt = compiled.rt
        flat = rt.decoded[index]
        if type(flat) is HostEntry:
            return _call_host(instance, index, flat.fn, flat.functype, args)
        # Internal calls never come through here: the generated code calls
        # its targets directly, so this is the one external entry.  Its
        # arguments are normalized once, as the flat VM's entry frame does.
        if len(args) != flat.n_params:
            raise arity_error(instance, index, flat.n_params, len(args))
        if rt.engine is not self or rt.globals is not instance.globals or rt.memory is not instance.memory \
                or rt.table is not instance.table:
            rt.engine = self
            rt.globals = instance.globals
            rt.memory = instance.memory
            rt.table = instance.table
        limit = self.max_steps
        boundary = limit + 1 if limit is not None else _INF
        if self.profiler is not None:
            boundary = self._current_boundary()
        if args:
            result = compiled.targets[index](rt, self.steps, boundary, *map(_normalize, flat.functype.params, args))
        else:
            result = compiled.targets[index](rt, self.steps, boundary)
        self.steps = result[0]
        # Most functions return one value; that case skips the slice.
        return [result[1]] if len(result) == 2 else list(result[1:])


class _FlatTwin(FlatVMEngine):
    """A compiled engine's flat VM: its step counter, budget and profiler
    are the compiled engine's own, so a host import re-entering either
    engine mid-activation sees one coherent ``steps``."""

    def __init__(self, owner: CompiledPyEngine) -> None:
        self._owner = owner

    steps = property(
        lambda self: self._owner.steps, lambda self, value: setattr(self._owner, "steps", value)
    )
    max_steps = property(lambda self: self._owner.max_steps)
    profiler = property(lambda self: self._owner.profiler)


ENGINES[CompiledPyEngine.name] = CompiledPyEngine
