"""The ML type checker (paper §5).

A completely standard simply-typed checker.  Two points are specific to the
linking-type extensions:

* ``LinType(τ)`` values are *not* checked for linear usage — the paper's
  design point is that the ML programmer keeps their native reasoning and the
  RichWasm type checker catches any duplication of linear values after
  compilation (Fig. 3).
* ``RefToLin`` cells support the normal ``!``/``:=`` operations but at type
  ``LinType`` content; the compiler inserts the runtime emptiness checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.typing.errors import CompilationError
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


class MLTypeError(CompilationError):
    """An ML source program is ill-typed."""


def types_equal(lhs: MLType, rhs: MLType) -> bool:
    """Structural equality of ML types."""

    return lhs == rhs


@dataclass
class TypeEnv:
    """A type environment mapping variables to their ML types."""

    bindings: dict[str, MLType]

    def extend(self, name: str, ty: MLType) -> "TypeEnv":
        new = dict(self.bindings)
        new[name] = ty
        return TypeEnv(new)

    def lookup(self, name: str) -> MLType:
        if name not in self.bindings:
            raise MLTypeError(f"unbound variable {name!r}")
        return self.bindings[name]


def check_expr(env: TypeEnv, expr: Expr) -> MLType:
    """Infer the type of an expression (raises :class:`MLTypeError`)."""

    if isinstance(expr, Unit):
        return TUnit()
    if isinstance(expr, IntLit):
        return TInt()
    if isinstance(expr, BoolLit):
        return TBool()
    if isinstance(expr, Var):
        return env.lookup(expr.name)
    if isinstance(expr, Lam):
        result = check_expr(env.extend(expr.param, expr.param_type), expr.body)
        return TFun(expr.param_type, result)
    if isinstance(expr, App):
        func_type = check_expr(env, expr.func)
        arg_type = check_expr(env, expr.arg)
        if not isinstance(func_type, TFun):
            raise MLTypeError(f"application of a non-function of type {func_type}")
        if not types_equal(func_type.param, arg_type):
            raise MLTypeError(
                f"function expects {func_type.param}, argument has type {arg_type}"
            )
        return func_type.result
    if isinstance(expr, Let):
        bound_type = check_expr(env, expr.bound)
        return check_expr(env.extend(expr.name, bound_type), expr.body)
    if isinstance(expr, Seq):
        check_expr(env, expr.first)
        return check_expr(env, expr.second)
    if isinstance(expr, Pair):
        return TPair(check_expr(env, expr.left), check_expr(env, expr.right))
    if isinstance(expr, Fst):
        pair_type = check_expr(env, expr.pair)
        if not isinstance(pair_type, TPair):
            raise MLTypeError(f"fst of a non-pair of type {pair_type}")
        return pair_type.left
    if isinstance(expr, Snd):
        pair_type = check_expr(env, expr.pair)
        if not isinstance(pair_type, TPair):
            raise MLTypeError(f"snd of a non-pair of type {pair_type}")
        return pair_type.right
    if isinstance(expr, Inl):
        value_type = check_expr(env, expr.value)
        if not types_equal(value_type, expr.sum_type.left):
            raise MLTypeError(f"inl payload has type {value_type}, expected {expr.sum_type.left}")
        return expr.sum_type
    if isinstance(expr, Inr):
        value_type = check_expr(env, expr.value)
        if not types_equal(value_type, expr.sum_type.right):
            raise MLTypeError(f"inr payload has type {value_type}, expected {expr.sum_type.right}")
        return expr.sum_type
    if isinstance(expr, Case):
        scrutinee_type = check_expr(env, expr.scrutinee)
        if not isinstance(scrutinee_type, TSum):
            raise MLTypeError(f"case on a non-sum of type {scrutinee_type}")
        left_type = check_expr(env.extend(expr.left_name, scrutinee_type.left), expr.left_body)
        right_type = check_expr(env.extend(expr.right_name, scrutinee_type.right), expr.right_body)
        if not types_equal(left_type, right_type):
            raise MLTypeError(f"case branches disagree: {left_type} vs {right_type}")
        return left_type
    if isinstance(expr, MkRef):
        return TRef(check_expr(env, expr.value))
    if isinstance(expr, Deref):
        ref_type = check_expr(env, expr.ref)
        if isinstance(ref_type, TRef):
            return ref_type.content
        if isinstance(ref_type, RefToLin):
            return LinType(ref_type.inner)
        raise MLTypeError(f"dereference of a non-reference of type {ref_type}")
    if isinstance(expr, Assign):
        ref_type = check_expr(env, expr.ref)
        value_type = check_expr(env, expr.value)
        if isinstance(ref_type, TRef):
            if not types_equal(ref_type.content, value_type):
                raise MLTypeError(
                    f"assignment of {value_type} into a reference holding {ref_type.content}"
                )
            return TUnit()
        if isinstance(ref_type, RefToLin):
            if not types_equal(LinType(ref_type.inner), value_type):
                raise MLTypeError(
                    f"assignment of {value_type} into a ref_to_lin holding ({ref_type.inner})lin"
                )
            return TUnit()
        raise MLTypeError(f"assignment to a non-reference of type {ref_type}")
    if isinstance(expr, MkRefToLin):
        return RefToLin(expr.content_type)
    if isinstance(expr, BinOp):
        left = check_expr(env, expr.left)
        right = check_expr(env, expr.right)
        if not isinstance(left, TInt) or not isinstance(right, TInt):
            raise MLTypeError(f"arithmetic on non-integers: {left} {expr.op} {right}")
        if expr.op in ("+", "-", "*", "/"):
            return TInt()
        if expr.op in ("=", "<", "<=", ">", ">="):
            return TBool()
        raise MLTypeError(f"unknown operator {expr.op!r}")
    if isinstance(expr, If):
        condition = check_expr(env, expr.condition)
        if not isinstance(condition, TBool):
            raise MLTypeError(f"if condition must be bool, got {condition}")
        then_type = check_expr(env, expr.then_branch)
        else_type = check_expr(env, expr.else_branch)
        if not types_equal(then_type, else_type):
            raise MLTypeError(f"if branches disagree: {then_type} vs {else_type}")
        return then_type
    raise MLTypeError(f"unknown expression {expr!r}")


@dataclass(frozen=True)
class CheckedModule:
    """The result of checking a module: per-function and per-global types.

    ``env`` is the type environment every function body is checked in
    (imports, globals, then all function signatures).
    """

    module: MLModule
    global_types: dict[str, MLType]
    function_types: dict[str, TFun]
    env: Optional[TypeEnv] = field(default=None, compare=False, repr=False)


def check_declarations(module: MLModule) -> CheckedModule:
    """Check the global initializers and collect every signature — the
    whole module except the function bodies (see :func:`check_function`)."""

    base: dict[str, MLType] = {}
    for imported in module.imports:
        base[imported.binding_name] = TFun(imported.param_type, imported.result_type)

    global_types: dict[str, MLType] = {}
    env = TypeEnv(dict(base))
    for global_decl in module.globals:
        actual = check_expr(env, global_decl.init)
        if not types_equal(actual, global_decl.type):
            raise MLTypeError(
                f"global {global_decl.name!r} declared at {global_decl.type} but initialised at {actual}"
            )
        global_types[global_decl.name] = global_decl.type
        env = env.extend(global_decl.name, global_decl.type)

    function_types: dict[str, TFun] = {}
    for function in module.functions:
        function_types[function.name] = TFun(function.param_type, function.result_type)

    # Functions may refer to each other and to the module state.
    full_env = TypeEnv({**env.bindings, **function_types})
    return CheckedModule(module, global_types, function_types, full_env)


def check_function(checked: CheckedModule, function: MLFunction) -> None:
    """Check one function body against its module's declarations."""

    body_type = check_expr(checked.env.extend(function.param, function.param_type), function.body)
    if not types_equal(body_type, function.result_type):
        raise MLTypeError(
            f"function {function.name!r} declared to return {function.result_type}"
            f" but its body has type {body_type}"
        )


def check_module(module: MLModule) -> CheckedModule:
    """Type-check a whole ML module."""

    checked = check_declarations(module)
    for function in module.functions:
        check_function(checked, function)
    return checked
