"""The L3 → RichWasm compiler (paper §5).

L3 is much lower level than ML, so compilation is a single code-generation
phase (no closure conversion: functions are top level).  The interesting
choices:

* ``Owned τ`` (``∃ρ. !Ptr ρ ⊗ Cap ρ τ``) is compiled *faithfully* as an
  existential location package over a pair of a linear read-write capability
  and an unrestricted pointer, so the RichWasm ``ref.split`` / ``ref.join`` /
  ``mem.pack`` machinery is exercised exactly as the paper describes;
* ``new`` allocates a single-field struct in the **linear** memory and splits
  the resulting reference into capability and pointer;
* ``free`` swaps the content out (strong update with ``unit``, which always
  fits), frees the cell, and returns the content;
* ``swap`` is a strong update through ``struct.swap``;
* the interop extension ``Ref τ`` (``MLRef``) is represented as the joined
  linear reference ``∃ρ.(ref rw ρ (struct (T,|T|)))^lin`` — exactly the type
  ML's ``(ref τ)lin`` linking type compiles to, which is what makes the
  ML/L3 FFI of Fig. 3 link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.syntax import (
    Call,
    Drop,
    Function,
    GetLocal,
    Import,
    ImportedFunction,
    Instr,
    IntBinop,
    IntRelop,
    LIN,
    MemPack,
    MemUnpack,
    Module,
    NumBinop,
    NumConst,
    NumRelop,
    NumType,
    Privilege,
    RefJoin,
    RefSplit,
    RefT,
    Return,
    SeqGroup,
    SeqUngroup,
    SetLocal,
    SizeConst,
    StructFree,
    StructHT,
    StructMalloc,
    StructSwap,
    Table,
    Type,
    UNR,
    UnitV,
    arrow,
    cap,
    exloc,
    funtype as make_funtype,
    i32,
    prod,
    ptr,
    unit,
)
from ..core.syntax.intern import structural_digest
from ..core.syntax.locations import LocVar
from ..core.syntax.types import CapT, ExLocT, ProdT, PtrT
from ..core.typing.errors import CompilationError
from ..core.typing.sizing import closed_size_of_type
from .ast import (
    L3Expr,
    L3Function,
    L3Module,
    L3Type,
    LBang,
    LBangI,
    LBinOp,
    LCall,
    LFree,
    LInt,
    LIntLit,
    LJoin,
    LLet,
    LLetBang,
    LLetPair,
    LMLRef,
    LNew,
    LOwned,
    LPair,
    LSplit,
    LSwap,
    LTensor,
    LUnit,
    LUnitV,
    LVar,
)
from .typecheck import FunSig, L3Checker, L3TypeError, LinearEnv


# ---------------------------------------------------------------------------
# Type translation
# ---------------------------------------------------------------------------


def compile_type(l3type: L3Type) -> Type:
    """Translate an L3 type to its RichWasm representation."""

    if isinstance(l3type, LUnit):
        return unit()
    if isinstance(l3type, LInt):
        return i32()
    if isinstance(l3type, LBang):
        return compile_type(l3type.inner)
    if isinstance(l3type, LTensor):
        left = compile_type(l3type.left)
        right = compile_type(l3type.right)
        qual = LIN if (left.qual == LIN or right.qual == LIN) else UNR
        return prod([left, right], qual)
    if isinstance(l3type, LOwned):
        return owned_type(l3type.content)
    if isinstance(l3type, LMLRef):
        return mlref_type(l3type.content)
    raise CompilationError(f"cannot compile L3 type {l3type!r}")


def cell_heaptype(content: L3Type) -> StructHT:
    """The single-field struct heap type of an L3 cell holding ``content``."""

    compiled = compile_type(content)
    return StructHT(((compiled, closed_size_of_type(compiled)),))


def owned_type(content: L3Type) -> Type:
    """``∃ρ. ((cap rw ρ ψ)^lin ⊗ (ptr ρ)^unr)^lin`` — the type of ``new``'s result."""

    heaptype = cell_heaptype(content)
    pair = Type(
        ProdT((Type(CapT(Privilege.RW, LocVar(0), heaptype), LIN), Type(PtrT(LocVar(0)), UNR))),
        LIN,
    )
    return Type(ExLocT(pair), LIN)


def mlref_type(content: L3Type) -> Type:
    """``∃ρ.(ref rw ρ ψ)^lin`` — the joined, ML-compatible linear reference."""

    heaptype = cell_heaptype(content)
    return Type(ExLocT(Type(RefT(Privilege.RW, LocVar(0), heaptype), LIN)), LIN)


def is_linear(ty: Type) -> bool:
    return ty.qual == LIN


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


@dataclass
class _Builder:
    param_count: int
    locals_sizes: list = field(default_factory=list)

    def new_local(self, size_bits: int) -> int:
        index = self.param_count + len(self.locals_sizes)
        self.locals_sizes.append(SizeConst(max(size_bits, 32)))
        return index


@dataclass(frozen=True)
class _Local:
    index: int
    l3type: L3Type


class L3Compiler:
    """Compiles an L3 module to RichWasm, linearity-checking each function.

    ``signatures`` default to the module's own
    (:attr:`~repro.l3.typecheck.L3Checker.signatures`).  Each function is
    checked and compiled as one unit; with a ``unit_cache`` (a
    :class:`repro.compilepipe.FunctionUnitCache`) a function whose source
    and module environment (:meth:`env_digest`) are unchanged comes back as
    the same ``Function`` object, with no check and no codegen.
    """

    def __init__(self, module: L3Module, signatures: Optional[dict[str, FunSig]] = None,
                 unit_cache=None):
        self.module = module
        # One checker per compile: ``_infer`` re-runs it on subexpressions.
        self._checker = L3Checker(module)
        self.signatures = signatures if signatures is not None else self._checker.signatures
        self.unit_cache = unit_cache
        self.function_index: dict[str, int] = {}
        self.functions: list = []
        self._env_digest: Optional[bytes] = None

    def compile(self) -> Module:
        for imported in self.module.imports:
            index = len(self.functions)
            funtype = make_funtype(
                [compile_type(imported.param_type)], [compile_type(imported.result_type)]
            )
            self.functions.append(
                ImportedFunction(funtype, Import(imported.module, imported.name), (), imported.binding_name)
            )
            self.function_index[imported.binding_name] = index
        for function in self.module.functions:
            self.function_index[function.name] = len(self.functions)
            self.functions.append(None)
        for function in self.module.functions:
            self.functions[self.function_index[function.name]] = self._compile_function_unit(function)
        return Module(
            functions=tuple(self.functions),
            globals=(),
            table=Table(),
            name=self.module.name,
        )

    def env_digest(self) -> bytes:
        """Digest of what one function's check and compilation can see of
        the rest of the module: the imports and every function's name, index
        and signature — everything except other function bodies."""

        if self._env_digest is None:
            self._env_digest = structural_digest((
                self.module.imports,
                tuple((f.name, f.param_type, f.result_type) for f in self.module.functions),
            ))
        return self._env_digest

    def _compile_function_unit(self, function: L3Function) -> Function:
        """Check and compile one function, through the unit cache (type
        errors raise before anything is cached)."""

        units = self.unit_cache
        if units is not None:
            key = units.frontend_key("l3", function, self.env_digest())
            cached = units.get("frontend", key)
            if cached is not None:
                return cached
        self._checker.check_function(function)
        compiled = self._compile_function(function)
        if units is not None:
            units.put("frontend", key, compiled)
        return compiled

    def _compile_function(self, function: L3Function) -> Function:
        param_type = compile_type(function.param_type)
        result_type = compile_type(function.result_type)
        builder = _Builder(param_count=1)
        env = {function.param: _Local(0, function.param_type)}
        body, _ = self.compile_expr(env, function.body, builder)
        return Function(
            funtype=make_funtype([param_type], [result_type]),
            locals_sizes=tuple(builder.locals_sizes),
            body=tuple(body) + (Return(),),
            exports=(function.name,) if function.export else (),
            name=function.name,
        )

    # -- type inference helper (re-runs the source checker on subexpressions) ----

    def _infer(self, env: dict[str, _Local], expr: L3Expr) -> L3Type:
        linear_env = LinearEnv()
        for name, binding in env.items():
            linear_env.bind(name, binding.l3type)
        return self._checker.check_expr(linear_env, expr)

    # -- expressions --------------------------------------------------------------

    def compile_expr(
        self, env: dict[str, _Local], expr: L3Expr, builder: _Builder
    ) -> tuple[list[Instr], Type]:
        if isinstance(expr, LUnitV):
            return [UnitV()], unit()
        if isinstance(expr, LIntLit):
            return [NumConst(NumType.I32, expr.value)], i32()
        if isinstance(expr, LVar):
            binding = env[expr.name]
            compiled = compile_type(binding.l3type)
            qual = LIN if is_linear(compiled) else UNR
            return [GetLocal(binding.index, qual)], compiled
        if isinstance(expr, LLet):
            bound_l3 = self._infer(env, expr.bound)
            bound, bound_type = self.compile_expr(env, expr.bound, builder)
            local = builder.new_local(_bits(bound_type))
            inner = dict(env)
            inner[expr.name] = _Local(local, bound_l3)
            body, body_type = self.compile_expr(inner, expr.body, builder)
            return [*bound, SetLocal(local), *body], body_type
        if isinstance(expr, LBangI):
            return self.compile_expr(env, expr.value, builder)
        if isinstance(expr, LLetBang):
            bound_l3 = self._infer(env, expr.bound)
            if not isinstance(bound_l3, LBang):
                raise L3TypeError(f"let ! of non-! value {bound_l3}")
            bound, bound_type = self.compile_expr(env, expr.bound, builder)
            local = builder.new_local(_bits(bound_type))
            inner = dict(env)
            inner[expr.name] = _Local(local, bound_l3.inner)
            body, body_type = self.compile_expr(inner, expr.body, builder)
            return [*bound, SetLocal(local), *body], body_type
        if isinstance(expr, LPair):
            left, left_type = self.compile_expr(env, expr.left, builder)
            right, right_type = self.compile_expr(env, expr.right, builder)
            qual = LIN if (is_linear(left_type) or is_linear(right_type)) else UNR
            return [*left, *right, SeqGroup(2, qual)], prod([left_type, right_type], qual)
        if isinstance(expr, LLetPair):
            bound_l3 = self._infer(env, expr.bound)
            if not isinstance(bound_l3, LTensor):
                raise L3TypeError(f"let-pair of non-pair {bound_l3}")
            bound, bound_type = self.compile_expr(env, expr.bound, builder)
            left_type = compile_type(bound_l3.left)
            right_type = compile_type(bound_l3.right)
            left_local = builder.new_local(_bits(left_type))
            right_local = builder.new_local(_bits(right_type))
            inner = dict(env)
            inner[expr.left_name] = _Local(left_local, bound_l3.left)
            inner[expr.right_name] = _Local(right_local, bound_l3.right)
            body, body_type = self.compile_expr(inner, expr.body, builder)
            return [
                *bound,
                SeqUngroup(),
                SetLocal(right_local),
                SetLocal(left_local),
                *body,
            ], body_type
        if isinstance(expr, LNew):
            return self._compile_new(env, expr, builder)
        if isinstance(expr, LFree):
            return self._compile_free(env, expr, builder)
        if isinstance(expr, LSwap):
            return self._compile_swap(env, expr, builder)
        if isinstance(expr, LJoin):
            return self._compile_join(env, expr, builder)
        if isinstance(expr, LSplit):
            return self._compile_split(env, expr, builder)
        if isinstance(expr, LBinOp):
            left, _ = self.compile_expr(env, expr.left, builder)
            right, _ = self.compile_expr(env, expr.right, builder)
            arith = {"+": IntBinop.ADD, "-": IntBinop.SUB, "*": IntBinop.MUL}
            compare = {"=": IntRelop.EQ, "<": IntRelop.LT_S}
            if expr.op in arith:
                return [*left, *right, NumBinop(NumType.I32, arith[expr.op])], i32()
            if expr.op in compare:
                return [*left, *right, NumRelop(NumType.I32, compare[expr.op])], i32()
            raise CompilationError(f"unknown L3 operator {expr.op!r}")
        if isinstance(expr, LCall):
            if expr.name not in self.function_index:
                raise CompilationError(f"call of unknown function {expr.name!r}")
            signature = self.signatures[expr.name]
            arg, _ = self.compile_expr(env, expr.arg, builder)
            return [*arg, Call(self.function_index[expr.name], ())], compile_type(signature.result_type)
        raise CompilationError(f"cannot compile L3 expression {expr!r}")

    # -- heap operations --------------------------------------------------------------

    def _compile_new(self, env, expr: LNew, builder: _Builder) -> tuple[list[Instr], Type]:
        content_l3 = self._infer(env, expr.value)
        value, value_type = self.compile_expr(env, expr.value, builder)
        result = owned_type(content_l3)
        size = closed_size_of_type(value_type)
        instrs = [
            *value,
            StructMalloc((size,), LIN),
            MemUnpack(
                arrow([], [result]),
                (),
                (
                    RefSplit(),
                    SeqGroup(2, LIN),
                    MemPack(LocVar(0)),
                ),
            ),
        ]
        return instrs, result

    def _compile_free(self, env, expr: LFree, builder: _Builder) -> tuple[list[Instr], Type]:
        owned_l3 = self._infer(env, expr.owned)
        if not isinstance(owned_l3, LOwned):
            raise L3TypeError(f"free of non-owned {owned_l3}")
        owned, _ = self.compile_expr(env, expr.owned, builder)
        content_type = compile_type(owned_l3.content)
        tmp = builder.new_local(_bits(content_type))
        instrs = [
            *owned,
            MemUnpack(
                arrow([], [content_type]),
                (),
                (
                    SeqUngroup(),
                    RefJoin(),
                    UnitV(),
                    StructSwap(0),
                    SetLocal(tmp),
                    StructFree(),
                    GetLocal(tmp, LIN if is_linear(content_type) else UNR),
                ),
            ),
        ]
        return instrs, content_type

    def _compile_swap(self, env, expr: LSwap, builder: _Builder) -> tuple[list[Instr], Type]:
        owned_l3 = self._infer(env, expr.owned)
        value_l3 = self._infer(env, expr.value)
        if not isinstance(owned_l3, LOwned):
            raise L3TypeError(f"swap on non-owned {owned_l3}")
        value, value_type = self.compile_expr(env, expr.value, builder)
        owned, _ = self.compile_expr(env, expr.owned, builder)
        old_type = compile_type(owned_l3.content)
        new_owned = owned_type(value_l3)
        result = prod([old_type, new_owned], LIN)

        value_local = builder.new_local(_bits(value_type))
        ref_local = builder.new_local(32)
        old_local = builder.new_local(_bits(old_type))
        owned_local = builder.new_local(_bits(new_owned))
        value_qual = LIN if is_linear(value_type) else UNR
        old_qual = LIN if is_linear(old_type) else UNR
        instrs = [
            *value,
            *owned,
            MemUnpack(
                arrow([value_type], [result]),
                (),
                (
                    # stack: value, (cap ⊗ ptr)
                    SeqUngroup(),
                    RefJoin(),
                    SetLocal(ref_local),
                    SetLocal(value_local),
                    GetLocal(ref_local, LIN),
                    GetLocal(value_local, value_qual),
                    StructSwap(0),
                    # stack: ref', old-content
                    SetLocal(old_local),
                    RefSplit(),
                    SeqGroup(2, LIN),
                    MemPack(LocVar(0)),
                    SetLocal(owned_local),
                    GetLocal(old_local, old_qual),
                    GetLocal(owned_local, LIN),
                    SeqGroup(2, LIN),
                ),
            ),
        ]
        return instrs, result

    def _compile_join(self, env, expr: LJoin, builder: _Builder) -> tuple[list[Instr], Type]:
        owned_l3 = self._infer(env, expr.owned)
        if not isinstance(owned_l3, LOwned):
            raise L3TypeError(f"join of non-owned {owned_l3}")
        owned, _ = self.compile_expr(env, expr.owned, builder)
        result = mlref_type(owned_l3.content)
        instrs = [
            *owned,
            MemUnpack(
                arrow([], [result]),
                (),
                (SeqUngroup(), RefJoin(), MemPack(LocVar(0))),
            ),
        ]
        return instrs, result

    def _compile_split(self, env, expr: LSplit, builder: _Builder) -> tuple[list[Instr], Type]:
        ref_l3 = self._infer(env, expr.ref)
        if not isinstance(ref_l3, LMLRef):
            raise L3TypeError(f"split of non-reference {ref_l3}")
        ref, _ = self.compile_expr(env, expr.ref, builder)
        result = owned_type(ref_l3.content)
        instrs = [
            *ref,
            MemUnpack(
                arrow([], [result]),
                (),
                (RefSplit(), SeqGroup(2, LIN), MemPack(LocVar(0))),
            ),
        ]
        return instrs, result


def _bits(ty: Type) -> int:
    from ..core.syntax.sizes import eval_size

    return eval_size(closed_size_of_type(ty))


def compile_l3_module(module: L3Module, *, unit_cache=None) -> Module:
    """Linearity-check and compile an L3 module to RichWasm (the ``"l3"``
    frontend of :func:`repro.api.compile`).

    ``unit_cache`` (a :class:`repro.compilepipe.FunctionUnitCache`) reuses
    the per-function frontend units of earlier compiles (see
    :class:`L3Compiler`).  To lower the result, pass it (or the L3 module)
    to :func:`repro.api.lower` or :func:`repro.api.compile`.
    """

    return L3Compiler(module, unit_cache=unit_cache).compile()
