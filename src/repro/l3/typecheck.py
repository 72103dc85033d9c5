"""The L3 linear type checker (paper §5, following [12]).

Unlike the ML checker, this one *does* enforce linearity at the source level:
every linear variable (anything that is not of an unrestricted type) must be
used exactly once, and unrestricted variables may be used any number of
times.  The checker threads a usage environment through the expression and
reports variables that are duplicated or silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.typing.errors import CompilationError
from .ast import (
    L3Expr,
    L3Function,
    L3Import,
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
    is_unrestricted_type,
    type_size_bits,
)


class L3TypeError(CompilationError):
    """An L3 source program is ill-typed (including linearity violations)."""


@dataclass
class LinearEnv:
    """Variables in scope, with usage tracking for the linear ones."""

    types: dict[str, L3Type] = field(default_factory=dict)
    used: set[str] = field(default_factory=set)

    def bind(self, name: str, ty: L3Type) -> None:
        self.types[name] = ty

    def use(self, name: str) -> L3Type:
        if name not in self.types:
            raise L3TypeError(f"unbound variable {name!r}")
        ty = self.types[name]
        if not is_unrestricted_type(ty):
            if name in self.used:
                raise L3TypeError(f"linear variable {name!r} used more than once")
            self.used.add(name)
        return ty

    def check_consumed(self, name: str) -> None:
        ty = self.types.get(name)
        if ty is None:
            return
        if not is_unrestricted_type(ty) and name not in self.used:
            raise L3TypeError(f"linear variable {name!r} is never used (it would be dropped)")


@dataclass(frozen=True)
class FunSig:
    param_type: L3Type
    result_type: L3Type


def types_equal(lhs: L3Type, rhs: L3Type) -> bool:
    return lhs == rhs


class L3Checker:
    """Checks one module."""

    def __init__(self, module: L3Module):
        self.module = module
        self.signatures: dict[str, FunSig] = {}
        for imported in module.imports:
            self.signatures[imported.binding_name] = FunSig(imported.param_type, imported.result_type)
        for function in module.functions:
            self.signatures[function.name] = FunSig(function.param_type, function.result_type)

    def check(self) -> dict[str, FunSig]:
        for function in self.module.functions:
            self.check_function(function)
        return self.signatures

    def check_function(self, function: L3Function) -> None:
        """Check one function body against the module's signatures."""

        env = LinearEnv()
        env.bind(function.param, function.param_type)
        result = self.check_expr(env, function.body)
        if not types_equal(result, function.result_type):
            raise L3TypeError(
                f"function {function.name!r} declared to return {function.result_type},"
                f" body has type {result}"
            )
        env.check_consumed(function.param)

    # -- expressions ------------------------------------------------------------

    def check_expr(self, env: LinearEnv, expr: L3Expr) -> L3Type:
        if isinstance(expr, LUnitV):
            return LUnit()
        if isinstance(expr, LIntLit):
            return LInt()
        if isinstance(expr, LVar):
            return env.use(expr.name)
        if isinstance(expr, LLet):
            bound = self.check_expr(env, expr.bound)
            env.bind(expr.name, bound)
            result = self.check_expr(env, expr.body)
            env.check_consumed(expr.name)
            return result
        if isinstance(expr, LBangI):
            inner = self.check_expr(env, expr.value)
            if not is_unrestricted_type(inner):
                raise L3TypeError(f"! applied to a linear value of type {inner}")
            return LBang(inner)
        if isinstance(expr, LLetBang):
            bound = self.check_expr(env, expr.bound)
            if not isinstance(bound, LBang):
                raise L3TypeError(f"let ! on a non-! value of type {bound}")
            env.bind(expr.name, bound.inner)
            result = self.check_expr(env, expr.body)
            return result
        if isinstance(expr, LPair):
            left = self.check_expr(env, expr.left)
            right = self.check_expr(env, expr.right)
            return LTensor(left, right)
        if isinstance(expr, LLetPair):
            bound = self.check_expr(env, expr.bound)
            if not isinstance(bound, LTensor):
                raise L3TypeError(f"let-pair on a non-pair of type {bound}")
            env.bind(expr.left_name, bound.left)
            env.bind(expr.right_name, bound.right)
            result = self.check_expr(env, expr.body)
            env.check_consumed(expr.left_name)
            env.check_consumed(expr.right_name)
            return result
        if isinstance(expr, LNew):
            content = self.check_expr(env, expr.value)
            return LOwned(content)
        if isinstance(expr, LFree):
            owned = self.check_expr(env, expr.owned)
            if not isinstance(owned, LOwned):
                raise L3TypeError(f"free of a non-owned value of type {owned}")
            return owned.content
        if isinstance(expr, LSwap):
            owned = self.check_expr(env, expr.owned)
            value = self.check_expr(env, expr.value)
            if not isinstance(owned, LOwned):
                raise L3TypeError(f"swap on a non-owned value of type {owned}")
            # Strong update: the cell now holds the new value's type; the old
            # content comes back paired with the new ownership.  Capabilities
            # track the size of the cell (§5), so the new value must occupy
            # the same slot size as the original allocation.
            if type_size_bits(value) != type_size_bits(owned.content):
                raise L3TypeError(
                    f"strong update changes the slot size: cell holds {owned.content}"
                    f" ({type_size_bits(owned.content)} bits), new value has type {value}"
                    f" ({type_size_bits(value)} bits)"
                )
            return LTensor(owned.content, LOwned(value))
        if isinstance(expr, LJoin):
            owned = self.check_expr(env, expr.owned)
            if not isinstance(owned, LOwned):
                raise L3TypeError(f"join of a non-owned value of type {owned}")
            return LMLRef(owned.content)
        if isinstance(expr, LSplit):
            ref = self.check_expr(env, expr.ref)
            if not isinstance(ref, LMLRef):
                raise L3TypeError(f"split of a non-reference value of type {ref}")
            return LOwned(ref.content)
        if isinstance(expr, LBinOp):
            left = self.check_expr(env, expr.left)
            right = self.check_expr(env, expr.right)
            if not isinstance(_strip_bang(left), LInt) or not isinstance(_strip_bang(right), LInt):
                raise L3TypeError(f"arithmetic on non-integers: {left} {expr.op} {right}")
            return LInt()
        if isinstance(expr, LCall):
            if expr.name not in self.signatures:
                raise L3TypeError(f"call of unknown function {expr.name!r}")
            signature = self.signatures[expr.name]
            arg = self.check_expr(env, expr.arg)
            if not types_equal(arg, signature.param_type):
                raise L3TypeError(
                    f"call of {expr.name!r}: argument has type {arg},"
                    f" function expects {signature.param_type}"
                )
            return signature.result_type
        raise L3TypeError(f"unknown expression {expr!r}")


def _strip_bang(ty: L3Type) -> L3Type:
    return ty.inner if isinstance(ty, LBang) else ty


def check_l3_module(module: L3Module) -> dict[str, FunSig]:
    """Type-check an L3 module, returning the function signatures."""

    return L3Checker(module).check()
