"""The ML → RichWasm compiler (paper §5).

The compiler has the three phases the paper describes, fused over one
traversal:

* **typed closure conversion** — every ``fun`` expression is lifted to a
  fresh top-level RichWasm function taking ``(argument, environment)``; the
  captured variables are stored in a garbage-collected struct and the pair of
  code reference and environment is hidden behind an existential package, so
  closures of the same ML type agree on their RichWasm type regardless of
  what they capture;
* **annotation** — size and qualifier annotations (slot sizes for every
  local, the ``64``-bit bound of closure environments, linear qualifiers for
  linking types) are computed from the compiled RichWasm types;
* **code generation** — a stack-discipline translation of expressions.

Representation choices (all in the garbage-collected memory unless noted):

====================  =====================================================
ML type               RichWasm type
====================  =====================================================
``unit``/``int``      ``unit^unr`` / ``i32^unr``
``τ1 * τ2``           ``(prod T1 T2)^q``
``τ1 + τ2``           ``∃ρ.(ref rw ρ (variant T1 T2))^unr``
``ref τ``             ``∃ρ.(ref rw ρ (struct (T, |T|)))^unr``
``τ1 -> τ2``          ``∃ρ.(ref rw ρ (∃unr ⪯ α ≲ 64. (prod (coderef (T1, α) -> T2) α)))^unr``
``(ref τ)lin``        ``∃ρ.(ref rw ρ (struct (T, |T|)))^lin``   (linear memory)
``ref_to_lin τ``      ``∃ρ.(ref rw ρ (struct (Option, 32)))^unr`` where
                      ``Option = ∃ρ'.(ref rw ρ' (variant unit Tlin))^lin``
====================  =====================================================

``ref_to_lin`` reads and writes are compiled to ``struct.swap`` of the whole
option cell followed by a *linear* ``variant.case``: reading an empty cell or
overwriting a full one executes ``unreachable`` — the runtime failure the
paper describes for operations that would otherwise violate linearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.syntax import (
    ArrowType,
    Block,
    Call,
    CallIndirect,
    CodeRefI,
    Drop,
    ExHT,
    ExLocT,
    ExistPack,
    ExistUnpack,
    FunType,
    Function,
    GetGlobal,
    GetLocal,
    Global,
    If as RIf,
    Import,
    ImportedFunction,
    Instr,
    IntBinop,
    IntRelop,
    LIN,
    MemUnpack,
    Module,
    NumBinop,
    NumConst,
    NumRelop,
    NumType,
    Privilege,
    RefT,
    Return,
    SeqGroup,
    SeqUngroup,
    SetGlobal,
    SetLocal,
    SizeConst,
    StructHT,
    StructMalloc,
    StructSet,
    StructSwap,
    StructGet,
    Table,
    Type,
    UNR,
    UnitT,
    UnitV,
    Unreachable,
    VarT,
    VariantCase,
    VariantHT,
    VariantMalloc,
    arrow,
    funtype as make_funtype,
    i32,
    prod,
    unit,
    variant_ht,
)
from ..core.syntax.instructions import Nop
from ..core.syntax.intern import structural_digest
from ..core.typing.errors import CompilationError
from ..core.typing.sizing import closed_size_of_type
from .ast import (
    App,
    Assign,
    BinOp,
    BoolLit,
    Case,
    Deref,
    Expr,
    Fst,
    If,
    Inl,
    Inr,
    IntLit,
    Lam,
    Let,
    LinType,
    MkRef,
    MkRefToLin,
    MLFunction,
    MLImport,
    MLModule,
    MLType,
    Pair,
    RefToLin,
    Seq,
    Snd,
    TBool,
    TFun,
    TInt,
    TPair,
    TRef,
    TSum,
    TUnit,
    Unit,
    Var,
)
from .typecheck import (
    CheckedModule,
    MLTypeError,
    TypeEnv,
    check_declarations,
    check_expr,
    check_function,
)

#: Size bound used for closure environments (a GC'd pointer: 32 bits, with
#: headroom as in the paper's Fig. 9 layout which uses 64-bit slots).
ENV_SIZE_BOUND = SizeConst(64)


# ---------------------------------------------------------------------------
# Type translation
# ---------------------------------------------------------------------------


def ref_struct(content: Type, qual) -> Type:
    """``∃ρ.(ref rw ρ (struct (content, |content|)))^qual``."""

    size = closed_size_of_type(content)
    heaptype = StructHT(((content, size),))
    return Type(ExLocT(Type(RefT(Privilege.RW, _loc_var0(), heaptype), qual)), qual)


def _loc_var0():
    from ..core.syntax.locations import LocVar

    return LocVar(0)


def compile_type(mltype: MLType) -> Type:
    """Translate an ML type to its RichWasm representation."""

    if isinstance(mltype, TUnit):
        return unit()
    if isinstance(mltype, (TInt, TBool)):
        return i32()
    if isinstance(mltype, TPair):
        left = compile_type(mltype.left)
        right = compile_type(mltype.right)
        qual = LIN if (left.qual == LIN or right.qual == LIN) else UNR
        return prod([left, right], qual)
    if isinstance(mltype, TSum):
        left = compile_type(mltype.left)
        right = compile_type(mltype.right)
        heaptype = VariantHT((left, right))
        return Type(ExLocT(Type(RefT(Privilege.RW, _loc_var0(), heaptype), UNR)), UNR)
    if isinstance(mltype, TRef):
        return ref_struct(compile_type(mltype.content), UNR)
    if isinstance(mltype, TFun):
        return closure_type(compile_type(mltype.param), compile_type(mltype.result))
    if isinstance(mltype, LinType):
        return compile_linear_type(mltype.inner)
    if isinstance(mltype, RefToLin):
        option = option_type(mltype.inner)
        size = closed_size_of_type(option)
        heaptype = StructHT(((option, size),))
        return Type(ExLocT(Type(RefT(Privilege.RW, _loc_var0(), heaptype), UNR)), UNR)
    raise CompilationError(f"cannot compile ML type {mltype!r}")


def compile_linear_type(inner: MLType) -> Type:
    """The linear (manually managed) representation of ``(inner)lin``."""

    if isinstance(inner, TRef):
        return ref_struct(compile_type(inner.content), LIN)
    compiled = compile_type(inner)
    return compiled.with_qual(LIN)


def option_type(inner: MLType) -> Type:
    """The linear option cell used by ``ref_to_lin``: empty or a linear value."""

    lin_value = compile_linear_type(inner)
    heaptype = VariantHT((unit(), lin_value))
    return Type(ExLocT(Type(RefT(Privilege.RW, _loc_var0(), heaptype), LIN)), LIN)


def closure_code_type(param: Type, result: Type) -> FunType:
    """The function type of lifted closure code: ``(param, α) -> result``."""

    return make_funtype([param, Type(VarT(0), UNR)], [result])


def closure_existential(param: Type, result: Type) -> ExHT:
    """``∃ unr ⪯ α ≲ 64. (prod (coderef (param, α) -> result) α)``."""

    code = Type(
        __import__("repro.core.syntax.types", fromlist=["CodeRefT"]).CodeRefT(
            closure_code_type(param, result)
        ),
        UNR,
    )
    body = prod([code, Type(VarT(0), UNR)], UNR)
    return ExHT(UNR, ENV_SIZE_BOUND, body)


def closure_type(param: Type, result: Type) -> Type:
    """The RichWasm type of an ML function value (a heap-allocated closure)."""

    heaptype = closure_existential(param, result)
    return Type(ExLocT(Type(RefT(Privilege.RW, _loc_var0(), heaptype), UNR)), UNR)


def is_linear(ty: Type) -> bool:
    return ty.qual == LIN


# ---------------------------------------------------------------------------
# Compile-time environments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalBinding:
    index: int
    mltype: MLType


@dataclass(frozen=True)
class GlobalBinding:
    index: int
    mltype: MLType


@dataclass(frozen=True)
class FunctionBinding:
    index: int
    mltype: TFun


@dataclass
class CompileEnv:
    """Maps ML variable names to their storage in the generated code."""

    bindings: dict[str, object] = field(default_factory=dict)

    def extend_local(self, name: str, index: int, mltype: MLType) -> "CompileEnv":
        new = dict(self.bindings)
        new[name] = LocalBinding(index, mltype)
        return CompileEnv(new)

    def lookup(self, name: str):
        if name not in self.bindings:
            raise CompilationError(f"unbound variable {name!r} during code generation")
        return self.bindings[name]


# ---------------------------------------------------------------------------
# Function builder
# ---------------------------------------------------------------------------


@dataclass
class FunctionBuilder:
    """Accumulates locals for one RichWasm function under construction."""

    param_count: int
    locals_sizes: list = field(default_factory=list)

    def new_local(self, size_bits: int) -> int:
        index = self.param_count + len(self.locals_sizes)
        self.locals_sizes.append(SizeConst(max(size_bits, 32)))
        return index


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


class MLCompiler:
    """Compiles an ML module whose declarations are checked
    (:func:`~repro.ml.typecheck.check_declarations`) to a RichWasm module.

    Each top-level function is type-checked and compiled as one unit; with a
    ``unit_cache`` (a :class:`repro.compilepipe.FunctionUnitCache`) a unit
    whose source function, module environment (:meth:`env_digest`) and
    lifted-function/table bases are unchanged is reused — the same
    ``Function`` objects, lifted lambdas and table entries, with no check
    and no codegen.
    """

    def __init__(self, checked: CheckedModule, unit_cache=None):
        self.checked = checked
        self.module = checked.module
        self.unit_cache = unit_cache
        self.functions: list = []          # RichWasm FunctionDecl, indices fixed as we go
        self.table_entries: list[int] = []
        self.global_decls: list[Global] = []
        self.global_index: dict[str, int] = {}
        self.function_index: dict[str, int] = {}
        self.import_index: dict[str, int] = {}
        self.lifted_count = 0
        # The top-level bindings in scope for the code being compiled: each
        # global initializer sees the globals before it, every function all
        # of them.  Built once per phase, not once per function or lambda.
        self._bindings: dict[str, object] = {}
        self._env_digest: Optional[bytes] = None

    # -- entry point -------------------------------------------------------------

    def compile(self) -> Module:
        # Imports come first so their indices are stable.
        for imported in self.module.imports:
            index = len(self.functions)
            funtype = make_funtype(
                [compile_type(imported.param_type)], [compile_type(imported.result_type)]
            )
            self.functions.append(
                ImportedFunction(funtype, Import(imported.module, imported.name), (), imported.binding_name)
            )
            self.import_index[imported.binding_name] = index

        # Reserve indices for the top-level functions (so they can refer to
        # each other and lifted lambdas can be appended after them).
        for function in self.module.functions:
            self.function_index[function.name] = len(self.functions)
            self.functions.append(None)  # placeholder, filled in below

        # Globals.
        for position, global_decl in enumerate(self.module.globals):
            compiled = compile_type(global_decl.type)
            self._bindings = self._top_level_bindings()
            init_instrs, init_type = self.compile_expr(
                CompileEnv(self._bindings), global_decl.init, FunctionBuilder(0)
            )
            self.global_index[global_decl.name] = position
            self.global_decls.append(
                Global(compiled.pretype, True, tuple(init_instrs), (), global_decl.name)
            )
        self._bindings = self._top_level_bindings()

        # Check and compile the top-level functions.
        for function in self.module.functions:
            compiled = self._compile_function_unit(function)
            self.functions[self.function_index[function.name]] = compiled

        # An exported ``_init`` function re-establishes the globals; the Wasm
        # lowering relies on it because Wasm global initializers must be
        # constant expressions.
        if self.module.globals:
            self.functions.append(self._build_init_function())

        table = Table(entries=tuple(self.table_entries))
        return Module(
            functions=tuple(self.functions),
            globals=tuple(self.global_decls),
            table=table,
            name=self.module.name,
        )

    # -- per-function units ----------------------------------------------------------

    def env_digest(self) -> bytes:
        """Digest of what one function's check and compilation can see of
        the rest of the module: the imports, every global's name and type,
        and every function's name, index and signature (indices follow from
        the order) — everything except other function bodies and global
        initializers."""

        if self._env_digest is None:
            self._env_digest = structural_digest((
                self.module.imports,
                tuple((g.name, g.type) for g in self.module.globals),
                tuple((f.name, f.param_type, f.result_type) for f in self.module.functions),
            ))
        return self._env_digest

    def _compile_function_unit(self, function: MLFunction) -> Function:
        """Check and compile one top-level function, through the unit cache.

        The unit holds the function plus the lambdas it lifted and the
        table entries it appended; the key carries the lifted-function and
        table bases, which the cached code bakes in as absolute indices.
        Type errors raise before anything is cached.
        """

        units = self.unit_cache
        lifted_base = len(self.functions)
        table_base = len(self.table_entries)
        if units is not None:
            key = units.frontend_key("ml", function, self.env_digest(), lifted_base, table_base)
            cached = units.get("frontend", key)
            if cached is not None:
                compiled, lifted, table = cached
                self.functions.extend(lifted)
                self.table_entries.extend(table)
                self.lifted_count += len(lifted)
                return compiled
        check_function(self.checked, function)
        compiled = self._compile_top_function(function)
        if units is not None:
            units.put("frontend", key, (
                compiled,
                tuple(self.functions[lifted_base:]),
                tuple(self.table_entries[table_base:]),
            ))
        return compiled

    # -- helpers ---------------------------------------------------------------------

    def _top_level_bindings(self) -> dict[str, object]:
        bindings: dict[str, object] = {}
        for imported in self.module.imports:
            bindings[imported.binding_name] = FunctionBinding(
                self.import_index[imported.binding_name],
                TFun(imported.param_type, imported.result_type),
            )
        for name, index in self.function_index.items():
            bindings[name] = FunctionBinding(index, self.checked.function_types[name])
        for global_decl in self.module.globals:
            if global_decl.name in self.global_index:
                bindings[global_decl.name] = GlobalBinding(
                    self.global_index[global_decl.name], global_decl.type
                )
        return bindings

    def _infer(self, env_types: dict[str, MLType], expr: Expr) -> MLType:
        return check_expr(TypeEnv({**self.checked.env.bindings, **env_types}), expr)

    def _compile_top_function(self, function: MLFunction) -> Function:
        param_type = compile_type(function.param_type)
        result_type = compile_type(function.result_type)
        builder = FunctionBuilder(param_count=1)
        env = CompileEnv(self._bindings).extend_local(
            function.param, 0, function.param_type
        )
        body_instrs, body_type = self.compile_expr(env, function.body, builder)
        instrs = tuple(body_instrs) + (Return(),)
        exports = (function.name,) if function.export else ()
        return Function(
            funtype=make_funtype([param_type], [result_type]),
            locals_sizes=tuple(builder.locals_sizes),
            body=instrs,
            exports=exports,
            name=function.name,
        )

    def _build_init_function(self) -> Function:
        body: list[Instr] = []
        builder = FunctionBuilder(param_count=0)
        env = CompileEnv(self._bindings)
        for global_decl in self.module.globals:
            init_instrs, _ = self.compile_expr(env, global_decl.init, builder)
            body.extend(init_instrs)
            body.append(SetGlobal(self.global_index[global_decl.name]))
        body.append(Return())
        return Function(
            funtype=make_funtype([], []),
            locals_sizes=tuple(builder.locals_sizes),
            body=tuple(body),
            exports=("_init",),
            name="_init",
        )

    def _lift_lambda(self, lam: Lam, captured: list[tuple[str, MLType]]) -> tuple[int, Type]:
        """Lift a lambda to a top-level function ``(arg, env) -> result``.

        Returns the table index of the lifted code and the RichWasm type of
        its environment struct.
        """

        env_field_types = [compile_type(t) for _, t in captured]
        env_heaptype = StructHT(
            tuple((t, closed_size_of_type(t)) for t in env_field_types)
        )
        env_type = Type(ExLocT(Type(RefT(Privilege.RW, _loc_var0(), env_heaptype), UNR)), UNR)

        param_type = compile_type(lam.param_type)
        env_ml_types = {name: t for name, t in captured}
        env_ml_types[lam.param] = lam.param_type
        result_ml = self._infer(env_ml_types, lam.body)
        result_type = compile_type(result_ml)

        builder = FunctionBuilder(param_count=2)
        compile_env = CompileEnv(self._bindings).extend_local(lam.param, 0, lam.param_type)

        # Unpack the environment struct into fresh locals.  The block declares
        # its local effects so the new types of the field locals are visible to
        # the rest of the body (paper: blocks are annotated with ``(i, τ)*``).
        prologue: list[Instr] = []
        if captured:
            from ..core.syntax import local_effects

            body_block: list[Instr] = []
            field_locals: list[int] = []
            for (name, mltype), compiled in zip(captured, env_field_types):
                local = builder.new_local(_size_bits(compiled))
                field_locals.append(local)
                compile_env = compile_env.extend_local(name, local, mltype)
            # env parameter is local 1: an existential package over a struct ref.
            for position, local in enumerate(field_locals):
                body_block.append(StructGet(position))
                body_block.append(SetLocal(local))
            body_block.append(Drop())
            effects = local_effects(
                [(local, t) for local, t in zip(field_locals, env_field_types)]
            )
            prologue.append(GetLocal(1, UNR))
            prologue.append(MemUnpack(arrow([], []), effects, tuple(body_block)))

        body_instrs, body_type = self.compile_expr(compile_env, lam.body, builder)
        instrs = tuple(prologue) + tuple(body_instrs) + (Return(),)

        funtype = make_funtype([param_type, env_type], [result_type])
        index = len(self.functions)
        self.lifted_count += 1
        self.functions.append(
            Function(
                funtype=funtype,
                locals_sizes=tuple(builder.locals_sizes),
                body=instrs,
                exports=(),
                name=f"lambda_{self.lifted_count}",
            )
        )
        table_index = len(self.table_entries)
        self.table_entries.append(index)
        return table_index, env_type

    # -- expression compilation ---------------------------------------------------------

    def compile_expr(self, env: CompileEnv, expr: Expr, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        """Compile an expression; returns instructions and the RichWasm type
        of the value they leave on the stack."""

        if isinstance(expr, Unit):
            return [UnitV()], unit()
        if isinstance(expr, IntLit):
            return [NumConst(NumType.I32, expr.value)], i32()
        if isinstance(expr, BoolLit):
            return [NumConst(NumType.I32, 1 if expr.value else 0)], i32()
        if isinstance(expr, Var):
            return self._compile_var(env, expr, builder)
        if isinstance(expr, Lam):
            return self._compile_lambda(env, expr, builder)
        if isinstance(expr, App):
            return self._compile_app(env, expr, builder)
        if isinstance(expr, Let):
            return self._compile_let(env, expr, builder)
        if isinstance(expr, Seq):
            first, first_type = self.compile_expr(env, expr.first, builder)
            second, second_type = self.compile_expr(env, expr.second, builder)
            return [*first, Drop(), *second], second_type
        if isinstance(expr, Pair):
            left, left_type = self.compile_expr(env, expr.left, builder)
            right, right_type = self.compile_expr(env, expr.right, builder)
            qual = LIN if (is_linear(left_type) or is_linear(right_type)) else UNR
            return [*left, *right, SeqGroup(2, qual)], prod([left_type, right_type], qual)
        if isinstance(expr, Fst):
            pair_instrs, pair_type = self.compile_expr(env, expr.pair, builder)
            left_type, right_type = pair_type.pretype.components  # type: ignore[union-attr]
            return [*pair_instrs, SeqUngroup(), Drop()], left_type
        if isinstance(expr, Snd):
            pair_instrs, pair_type = self.compile_expr(env, expr.pair, builder)
            left_type, right_type = pair_type.pretype.components  # type: ignore[union-attr]
            tmp = builder.new_local(_size_bits(right_type))
            return [
                *pair_instrs,
                SeqUngroup(),
                SetLocal(tmp),
                Drop(),
                GetLocal(tmp, LIN if is_linear(right_type) else UNR),
            ], right_type
        if isinstance(expr, (Inl, Inr)):
            return self._compile_injection(env, expr, builder)
        if isinstance(expr, Case):
            return self._compile_case(env, expr, builder)
        if isinstance(expr, MkRef):
            value, value_type = self.compile_expr(env, expr.value, builder)
            size = closed_size_of_type(value_type)
            instrs = [*value, StructMalloc((size,), UNR)]
            return instrs, ref_struct(value_type, UNR)
        if isinstance(expr, Deref):
            return self._compile_deref(env, expr, builder)
        if isinstance(expr, Assign):
            return self._compile_assign(env, expr, builder)
        if isinstance(expr, MkRefToLin):
            return self._compile_mk_ref_to_lin(expr)
        if isinstance(expr, BinOp):
            return self._compile_binop(env, expr, builder)
        if isinstance(expr, If):
            return self._compile_if(env, expr, builder)
        raise CompilationError(f"cannot compile expression {expr!r}")

    # -- variables -----------------------------------------------------------------------

    def _compile_var(self, env: CompileEnv, expr: Var, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        binding = env.lookup(expr.name)
        if isinstance(binding, LocalBinding):
            compiled = compile_type(binding.mltype)
            qual = LIN if is_linear(compiled) else UNR
            return [GetLocal(binding.index, qual)], compiled
        if isinstance(binding, GlobalBinding):
            compiled = compile_type(binding.mltype)
            return [GetGlobal(binding.index)], Type(compiled.pretype, UNR)
        if isinstance(binding, FunctionBinding):
            # A top-level function used as a value: eta-expand into a closure.
            eta = Lam("x", binding.mltype.param, App(Var(expr.name), Var("x")))
            return self._compile_lambda(env, eta, builder)
        raise CompilationError(f"unknown binding {binding!r}")

    # -- closures ------------------------------------------------------------------------

    def _free_variables(self, expr: Expr, bound: set[str]) -> dict[str, None]:
        """Free variables of an expression in deterministic (first-use) order."""

        free: dict[str, None] = {}

        def visit(node: Expr, bound_now: set[str]) -> None:
            if isinstance(node, Var):
                if node.name not in bound_now:
                    free.setdefault(node.name, None)
            elif isinstance(node, Lam):
                visit(node.body, bound_now | {node.param})
            elif isinstance(node, Let):
                visit(node.bound, bound_now)
                visit(node.body, bound_now | {node.name})
            elif isinstance(node, Case):
                visit(node.scrutinee, bound_now)
                visit(node.left_body, bound_now | {node.left_name})
                visit(node.right_body, bound_now | {node.right_name})
            else:
                for child_name in getattr(node, "__dataclass_fields__", {}):
                    child = getattr(node, child_name)
                    if isinstance(child, tuple(EXPR_CLASSES)):
                        visit(child, bound_now)

        visit(expr, set(bound))
        return free

    def _compile_lambda(self, env: CompileEnv, lam: Lam, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        free = self._free_variables(lam.body, {lam.param})
        captured: list[tuple[str, MLType]] = []
        for name in free:
            binding = env.bindings.get(name)
            if isinstance(binding, LocalBinding):
                captured.append((name, binding.mltype))
        # Globals, imports and top-level functions stay directly addressable
        # inside the lifted code, so they are not captured.

        table_index, env_type = self._lift_lambda(lam, captured)

        param_type = compile_type(lam.param_type)
        env_ml = {name: t for name, t in captured}
        env_ml[lam.param] = lam.param_type
        result_type = compile_type(self._infer(env_ml, lam.body))

        instrs: list[Instr] = [CodeRefI(table_index)]
        env_struct_fields = []
        for name, mltype in captured:
            var_instrs, var_type = self._compile_var(env, Var(name), builder)
            instrs.extend(var_instrs)
            env_struct_fields.append(closed_size_of_type(var_type))
        instrs.append(StructMalloc(tuple(env_struct_fields), UNR))
        instrs.append(SeqGroup(2, UNR))
        instrs.append(ExistPack(env_type.pretype, closure_existential(param_type, result_type), UNR))
        return instrs, closure_type(param_type, result_type)

    def _compile_app(self, env: CompileEnv, expr: App, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        # Direct call of a known top-level function or import.
        if isinstance(expr.func, Var):
            binding = env.bindings.get(expr.func.name)
            if isinstance(binding, FunctionBinding):
                arg_instrs, _ = self.compile_expr(env, expr.arg, builder)
                result_type = compile_type(binding.mltype.result)
                return [*arg_instrs, Call(binding.index, ())], result_type

        func_instrs, func_type = self.compile_expr(env, expr.func, builder)
        arg_instrs, arg_type = self.compile_expr(env, expr.arg, builder)

        # func_type = ∃ρ.(ref rw ρ (∃α. prod (coderef (A, α) -> B) α))^unr
        heaptype = func_type.pretype.body.pretype.heaptype  # type: ignore[union-attr]
        result_type = heaptype.body.pretype.components[0].pretype.funtype.arrow.results[0]  # type: ignore[union-attr]

        env_local = builder.new_local(64)
        code_local = builder.new_local(64)
        ref_local = builder.new_local(32)
        arg_local = builder.new_local(_size_bits(arg_type))
        result_local = builder.new_local(_size_bits(result_type))
        arg_qual = LIN if is_linear(arg_type) else UNR
        unpack_body = (
            # mem.unpack leaves [arg, closure_ref]; exist.unpack expects the
            # reference *below* its block arguments, so reorder via locals.
            SetLocal(ref_local),
            SetLocal(arg_local),
            GetLocal(ref_local, UNR),
            GetLocal(arg_local, arg_qual),
            ExistUnpack(
                UNR,
                heaptype,
                arrow([arg_type], [result_type]),
                (),
                (
                    SeqUngroup(),
                    SetLocal(env_local),
                    SetLocal(code_local),
                    GetLocal(env_local, UNR),
                    GetLocal(code_local, UNR),
                    CallIndirect(),
                ),
            ),
            # The (unrestricted) closure reference is returned below the result:
            # stash the result, drop the reference, restore the result.
            SetLocal(result_local),
            Drop(),
            GetLocal(result_local, LIN if is_linear(result_type) else UNR),
        )
        instrs = [
            *arg_instrs,
            *func_instrs,
            MemUnpack(arrow([arg_type], [result_type]), (), unpack_body),
        ]
        return instrs, result_type

    # -- sums -----------------------------------------------------------------------------

    def _compile_injection(self, env: CompileEnv, expr, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        tag = 0 if isinstance(expr, Inl) else 1
        payload, payload_type = self.compile_expr(env, expr.value, builder)
        left = compile_type(expr.sum_type.left)
        right = compile_type(expr.sum_type.right)
        instrs = [*payload, VariantMalloc(tag, (left, right), UNR)]
        return instrs, compile_type(expr.sum_type)

    def _compile_case(self, env: CompileEnv, expr: Case, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        scrutinee, scrutinee_type = self.compile_expr(env, expr.scrutinee, builder)
        heaptype = scrutinee_type.pretype.body.pretype.heaptype  # type: ignore[union-attr]
        left_type, right_type = heaptype.cases

        scrutinee_ml = self._infer({n: b.mltype for n, b in env.bindings.items() if isinstance(b, LocalBinding)}, expr.scrutinee)
        assert isinstance(scrutinee_ml, TSum)
        left_local = builder.new_local(_size_bits(left_type))
        right_local = builder.new_local(_size_bits(right_type))
        left_env = env.extend_local(expr.left_name, left_local, scrutinee_ml.left)
        right_env = env.extend_local(expr.right_name, right_local, scrutinee_ml.right)
        left_body, result_type = self.compile_expr(left_env, expr.left_body, builder)
        right_body, _ = self.compile_expr(right_env, expr.right_body, builder)

        result_local = builder.new_local(_size_bits(result_type))
        case_instr = VariantCase(
            UNR,
            heaptype,
            arrow([], [result_type]),
            (),
            (
                (SetLocal(left_local), *left_body),
                (SetLocal(right_local), *right_body),
            ),
        )
        unpack_body = (
            case_instr,
            # stack: ref, result — drop the unrestricted reference underneath.
            SetLocal(result_local),
            Drop(),
            GetLocal(result_local, LIN if is_linear(result_type) else UNR),
        )
        instrs = [*scrutinee, MemUnpack(arrow([], [result_type]), (), unpack_body)]
        return instrs, result_type

    # -- references ------------------------------------------------------------------------

    def _compile_deref(self, env: CompileEnv, expr: Deref, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        ref_ml = self._infer({n: b.mltype for n, b in env.bindings.items() if isinstance(b, LocalBinding)}, expr.ref)
        ref_instrs, ref_type = self.compile_expr(env, expr.ref, builder)
        if isinstance(ref_ml, RefToLin):
            return self._compile_ref_to_lin_read(ref_instrs, ref_ml, builder)
        content_type = ref_type.pretype.body.pretype.heaptype.field_types[0]  # type: ignore[union-attr]
        tmp = builder.new_local(_size_bits(content_type))
        unpack_body = (
            StructGet(0),
            SetLocal(tmp),
            Drop(),
            GetLocal(tmp, UNR),
        )
        instrs = [*ref_instrs, MemUnpack(arrow([], [content_type]), (), unpack_body)]
        return instrs, content_type

    def _compile_assign(self, env: CompileEnv, expr: Assign, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        ref_ml = self._infer({n: b.mltype for n, b in env.bindings.items() if isinstance(b, LocalBinding)}, expr.ref)
        value_instrs, value_type = self.compile_expr(env, expr.value, builder)
        ref_instrs, ref_type = self.compile_expr(env, expr.ref, builder)
        if isinstance(ref_ml, RefToLin):
            return self._compile_ref_to_lin_write(value_instrs, value_type, ref_instrs, ref_ml, builder)
        ref_local = builder.new_local(32)
        value_local = builder.new_local(_size_bits(value_type))
        unpack_body = (
            SetLocal(ref_local),
            SetLocal(value_local),
            GetLocal(ref_local, UNR),
            GetLocal(value_local, UNR),
            StructSet(0),
            Drop(),
            UnitV(),
        )
        instrs = [
            *value_instrs,
            *ref_instrs,
            MemUnpack(arrow([value_type], [unit()]), (), unpack_body),
        ]
        return instrs, unit()

    def _compile_mk_ref_to_lin(self, expr: MkRefToLin) -> tuple[list[Instr], Type]:
        lin_type = compile_linear_type(expr.content_type)
        option = option_type(expr.content_type)
        instrs: list[Instr] = [
            UnitV(),
            VariantMalloc(0, (unit(), lin_type), LIN),
            StructMalloc((closed_size_of_type(option),), UNR),
        ]
        return instrs, compile_type(RefToLin(expr.content_type))

    def _compile_ref_to_lin_read(
        self, ref_instrs: list[Instr], ref_ml: RefToLin, builder: FunctionBuilder
    ) -> tuple[list[Instr], Type]:
        lin_type = compile_linear_type(ref_ml.inner)
        option = option_type(ref_ml.inner)
        option_ht = VariantHT((unit(), lin_type))
        old_local = builder.new_local(_size_bits(option))

        # Swap a fresh "empty" option into the cell; the swapped-out old option
        # is case-analysed linearly: an empty cell means the linear value was
        # already taken (or never stored) — a runtime failure, exactly as the
        # paper prescribes for the ref_to_lin extension.
        unpack_body = (
            UnitV(),
            VariantMalloc(0, (unit(), lin_type), LIN),
            StructSwap(0),
            SetLocal(old_local),
            Drop(),
            GetLocal(old_local, LIN),
            MemUnpack(
                arrow([], [lin_type]),
                (),
                (
                    VariantCase(
                        LIN,
                        option_ht,
                        arrow([], [lin_type]),
                        (),
                        (
                            (Drop(), Unreachable()),
                            (Nop(),),
                        ),
                    ),
                ),
            ),
        )
        instrs = [*ref_instrs, MemUnpack(arrow([], [lin_type]), (), unpack_body)]
        return instrs, lin_type

    def _compile_ref_to_lin_write(
        self,
        value_instrs: list[Instr],
        value_type: Type,
        ref_instrs: list[Instr],
        ref_ml: RefToLin,
        builder: FunctionBuilder,
    ) -> tuple[list[Instr], Type]:
        lin_type = compile_linear_type(ref_ml.inner)
        option = option_type(ref_ml.inner)
        option_ht = VariantHT((unit(), lin_type))
        old_local = builder.new_local(_size_bits(option))
        ref_local = builder.new_local(32)
        pkg_local = builder.new_local(_size_bits(option))

        # Wrap the new value into a "full" option, swap it into the cell, and
        # case-analyse the old option: if it still held a value, completing the
        # write would drop a linear value, so the program traps.
        unpack_body = (
            # stack: value, cell-ref — wrap the value, then re-order for swap.
            SetLocal(ref_local),
            VariantMalloc(1, (unit(), lin_type), LIN),
            SetLocal(pkg_local),
            GetLocal(ref_local, UNR),
            GetLocal(pkg_local, LIN),
            StructSwap(0),
            SetLocal(old_local),
            Drop(),
            GetLocal(old_local, LIN),
            MemUnpack(
                arrow([], [unit()]),
                (),
                (
                    VariantCase(
                        LIN,
                        option_ht,
                        arrow([], [unit()]),
                        (),
                        (
                            (Nop(),),
                            (Unreachable(),),
                        ),
                    ),
                ),
            ),
        )
        instrs = [
            *value_instrs,
            *ref_instrs,
            MemUnpack(arrow([value_type], [unit()]), (), unpack_body),
        ]
        return instrs, unit()

    # -- primitives ------------------------------------------------------------------------

    def _compile_binop(self, env: CompileEnv, expr: BinOp, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        left, _ = self.compile_expr(env, expr.left, builder)
        right, _ = self.compile_expr(env, expr.right, builder)
        arith = {"+": IntBinop.ADD, "-": IntBinop.SUB, "*": IntBinop.MUL, "/": IntBinop.DIV_S}
        compare = {"=": IntRelop.EQ, "<": IntRelop.LT_S, "<=": IntRelop.LE_S, ">": IntRelop.GT_S, ">=": IntRelop.GE_S}
        if expr.op in arith:
            return [*left, *right, NumBinop(NumType.I32, arith[expr.op])], i32()
        if expr.op in compare:
            return [*left, *right, NumRelop(NumType.I32, compare[expr.op])], i32()
        raise CompilationError(f"unknown operator {expr.op!r}")

    def _compile_if(self, env: CompileEnv, expr: If, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        condition, _ = self.compile_expr(env, expr.condition, builder)
        then_body, then_type = self.compile_expr(env, expr.then_branch, builder)
        else_body, _ = self.compile_expr(env, expr.else_branch, builder)
        instrs = [
            *condition,
            RIf(arrow([], [then_type]), (), tuple(then_body), tuple(else_body)),
        ]
        return instrs, then_type

    # -- lets -------------------------------------------------------------------------------

    def _compile_let(self, env: CompileEnv, expr: Let, builder: FunctionBuilder) -> tuple[list[Instr], Type]:
        bound_ml = self._infer({n: b.mltype for n, b in env.bindings.items() if isinstance(b, LocalBinding)}, expr.bound)
        bound, bound_type = self.compile_expr(env, expr.bound, builder)
        local = builder.new_local(_size_bits(bound_type))
        body_env = env.extend_local(expr.name, local, bound_ml)
        body, body_type = self.compile_expr(body_env, expr.body, builder)
        return [*bound, SetLocal(local), *body], body_type


EXPR_CLASSES = (
    Unit, IntLit, BoolLit, Var, Lam, App, Let, Seq, Pair, Fst, Snd, Inl, Inr, Case,
    MkRef, Deref, Assign, MkRefToLin, BinOp, If,
)


def _size_bits(ty: Type) -> int:
    from ..core.syntax.sizes import eval_size

    return eval_size(closed_size_of_type(ty))


def compile_ml_module(
    module: MLModule, *, lower: bool = False, cache=None, config=None, unit_cache=None,
):
    """Type-check and compile an ML module to RichWasm.

    By default this returns the RichWasm :class:`Module` (this is also the
    ``"ml"`` frontend of :func:`repro.api.compile`).  With ``lower=True``,
    a ``config=`` (:class:`repro.api.CompileConfig`), or a ``cache=``
    (:class:`repro.runtime.ModuleCache`, which memoizes the lower/optimize
    stage by content) it continues down the pipeline and returns the
    :class:`repro.lower.LoweredModule` instead, optionally post-processed by
    the config's named :mod:`repro.opt` pipeline.  An explicit ``cache``
    wins over the config's cache policy; without a config, lowering runs
    under the defaults and is memoized only in an explicit ``cache``.

    ``unit_cache`` (a :class:`repro.compilepipe.FunctionUnitCache`) reuses
    the per-function frontend units of earlier compiles (see
    :class:`MLCompiler`).
    """

    checked = check_declarations(module)
    richwasm = MLCompiler(checked, unit_cache).compile()
    if not (lower or cache is not None or config is not None):
        return richwasm
    from ..api.config import CompileConfig

    config = CompileConfig.of(config if config is not None else {"cache": "none"})
    if cache is None:
        from ..api.facade import _resolve_cache

        cache = _resolve_cache(config, None)
    if cache is not None:
        return cache.lower(richwasm, config=config)
    from ..lower import lower_module

    return lower_module(richwasm, config=config)
