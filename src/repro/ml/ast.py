"""Abstract syntax of the core ML source language (paper §5).

The language has units, integers, booleans, pairs, binary sums, ML-style
references, and first-class functions; modules consist of top-level value
bindings (typically references used as module-local state), function
definitions, imports of functions from other modules, and exports.

Linking-type extensions (paper §2.2 and §5):

* ``LinType(τ)`` — "compile this type as linear in RichWasm": the type of
  foreign linear values (e.g. an L3 reference) that ML code may pass around
  but must not duplicate.  The ML type checker deliberately does *not* check
  linearity for these — RichWasm does.
* ``RefToLin(τ)`` — the type of ``ref_to_lin`` cells: GC'd references that may
  hold a linear value or be empty; reads and writes are compiled to
  runtime-checked swaps so that a second read / overwrite traps instead of
  violating linearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..core.syntax.intern import memoize_digest, state_without_memos

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@memoize_digest
@dataclass(frozen=True)
class TUnit:
    def __str__(self) -> str:  # pragma: no cover - trivial
        return "unit"


@memoize_digest
@dataclass(frozen=True)
class TInt:
    def __str__(self) -> str:  # pragma: no cover - trivial
        return "int"


@memoize_digest
@dataclass(frozen=True)
class TBool:
    def __str__(self) -> str:  # pragma: no cover - trivial
        return "bool"


@memoize_digest
@dataclass(frozen=True)
class TPair:
    left: "MLType"
    right: "MLType"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.left} * {self.right})"


@memoize_digest
@dataclass(frozen=True)
class TSum:
    left: "MLType"
    right: "MLType"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.left} + {self.right})"


@memoize_digest
@dataclass(frozen=True)
class TRef:
    content: "MLType"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"(ref {self.content})"


@memoize_digest
@dataclass(frozen=True)
class TFun:
    param: "MLType"
    result: "MLType"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.param} -> {self.result})"


@memoize_digest
@dataclass(frozen=True)
class LinType:
    """A linking type: a foreign type that RichWasm must treat as linear."""

    inner: "MLType"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.inner})lin"


@memoize_digest
@dataclass(frozen=True)
class RefToLin:
    """The type of ``ref_to_lin`` cells holding an optional linear value."""

    inner: "MLType"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"(ref_to_lin {self.inner})"


MLType = Union[TUnit, TInt, TBool, TPair, TSum, TRef, TFun, LinType, RefToLin]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    """``fun (param : param_type) -> body``"""

    param: str
    param_type: MLType
    body: "Expr"


@dataclass(frozen=True)
class App:
    func: "Expr"
    arg: "Expr"


@dataclass(frozen=True)
class Let:
    name: str
    bound: "Expr"
    body: "Expr"


@dataclass(frozen=True)
class Seq:
    first: "Expr"
    second: "Expr"


@dataclass(frozen=True)
class Pair:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Fst:
    pair: "Expr"


@dataclass(frozen=True)
class Snd:
    pair: "Expr"


@dataclass(frozen=True)
class Inl:
    value: "Expr"
    sum_type: TSum


@dataclass(frozen=True)
class Inr:
    value: "Expr"
    sum_type: TSum


@dataclass(frozen=True)
class Case:
    """``case e of inl x -> e1 | inr y -> e2``"""

    scrutinee: "Expr"
    left_name: str
    left_body: "Expr"
    right_name: str
    right_body: "Expr"


@dataclass(frozen=True)
class MkRef:
    """``ref e`` — allocate a garbage-collected reference."""

    value: "Expr"


@dataclass(frozen=True)
class Deref:
    """``!e``"""

    ref: "Expr"


@dataclass(frozen=True)
class Assign:
    """``e1 := e2``"""

    ref: "Expr"
    value: "Expr"


@dataclass(frozen=True)
class MkRefToLin:
    """``ref_to_lin τ`` — allocate an (empty) cell that can hold a linear value."""

    content_type: MLType


@dataclass(frozen=True)
class BinOp:
    """Arithmetic and comparison: ``+ - * = < <=``."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class If:
    condition: "Expr"
    then_branch: "Expr"
    else_branch: "Expr"


Expr = Union[
    Unit,
    IntLit,
    BoolLit,
    Var,
    Lam,
    App,
    Let,
    Seq,
    Pair,
    Fst,
    Snd,
    Inl,
    Inr,
    Case,
    MkRef,
    Deref,
    Assign,
    MkRefToLin,
    BinOp,
    If,
]


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


@memoize_digest
@dataclass(frozen=True)
class MLGlobal:
    """A top-level binding ``let name = expr`` (module-local state)."""

    name: str
    type: MLType
    init: Expr


@memoize_digest
@dataclass(frozen=True)
class MLFunction:
    """A top-level function definition ``fun name (param : τ) : σ = body``."""

    name: str
    param: str
    param_type: MLType
    result_type: MLType
    body: Expr
    export: bool = True

    # Frontend unit-key memos (repro.compilepipe) stay out of pickles.
    __getstate__ = state_without_memos


@memoize_digest
@dataclass(frozen=True)
class MLImport:
    """An imported function ``import other.name : τ -> σ``."""

    module: str
    name: str
    param_type: MLType
    result_type: MLType
    local_name: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.local_name if self.local_name is not None else self.name


@memoize_digest
@dataclass(frozen=True)
class MLModule:
    """An ML module: imports, module state, and function definitions."""

    name: str
    imports: tuple[MLImport, ...] = ()
    globals: tuple[MLGlobal, ...] = ()
    functions: tuple[MLFunction, ...] = ()


def ml_module(
    name: str,
    functions: Sequence[MLFunction] = (),
    globals: Sequence[MLGlobal] = (),
    imports: Sequence[MLImport] = (),
) -> MLModule:
    """Convenience constructor."""

    return MLModule(name, tuple(imports), tuple(globals), tuple(functions))
