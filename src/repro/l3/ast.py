"""Abstract syntax of the L3 source language (paper §5, following [12]).

L3 is a linear language with locations and safe strong updates.  The core
surface implemented here:

* types — unit, integers, ``!τ`` (unrestricted values), tensor products
  ``τ1 ⊗ τ2``, and ``Owned τ``: the existential package
  ``∃ρ. !Ptr ρ ⊗ Cap ρ τ`` that ``new`` returns.  Following §5, capabilities
  track the size of the memory they govern, which here is derived from the
  stored type.
* the linking-type extension — ``MLRef τ``: an ML-style reference type, plus
  ``join`` / ``split`` to convert between a pointer⊗capability pair and a
  reference at the boundary with ML code.
* terms — variables, let, ``!``-introduction (``Bang``) and elimination
  (``LetBang``), pairs and pair-elimination, ``new`` / ``free`` / ``swap``,
  ``join`` / ``split``, integer arithmetic, and calls of top-level or
  imported functions.  Functions are top level only: the paper's L3 compiler
  does not perform closure conversion, so lambdas may not capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from ..core.syntax.intern import memoize_digest, state_without_memos

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@memoize_digest
@dataclass(frozen=True)
class LUnit:
    def __str__(self) -> str:  # pragma: no cover - trivial
        return "unit"


@memoize_digest
@dataclass(frozen=True)
class LInt:
    def __str__(self) -> str:  # pragma: no cover - trivial
        return "int"


@memoize_digest
@dataclass(frozen=True)
class LBang:
    """``!τ`` — an unrestricted (freely duplicable) value."""

    inner: "L3Type"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"!{self.inner}"


@memoize_digest
@dataclass(frozen=True)
class LTensor:
    """``τ1 ⊗ τ2`` — a linear pair."""

    left: "L3Type"
    right: "L3Type"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"({self.left} ⊗ {self.right})"


@memoize_digest
@dataclass(frozen=True)
class LOwned:
    """``∃ρ. !Ptr ρ ⊗ Cap ρ τ`` — ownership of a heap cell holding ``τ``."""

    content: "L3Type"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"(owned {self.content})"


@memoize_digest
@dataclass(frozen=True)
class LMLRef:
    """``Ref τ`` — the ML-like reference added for interop (paper §5)."""

    content: "L3Type"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"(mlref {self.content})"


L3Type = Union[LUnit, LInt, LBang, LTensor, LOwned, LMLRef]


def is_unrestricted_type(ty: L3Type) -> bool:
    """Types whose values may be freely duplicated and dropped."""

    if isinstance(ty, (LUnit, LInt, LBang)):
        return True
    return False


def type_size_bits(ty: L3Type) -> int:
    """The representation size of an L3 type in bits.

    Following the paper's §5 adjustment, L3 capabilities explicitly track the
    size of the memory they govern; the type checker uses this to restrict
    strong updates (``swap``) to values that fit the original allocation.
    """

    if isinstance(ty, LUnit):
        return 0
    if isinstance(ty, LInt):
        return 32
    if isinstance(ty, LBang):
        return type_size_bits(ty.inner)
    if isinstance(ty, LTensor):
        return type_size_bits(ty.left) + type_size_bits(ty.right)
    if isinstance(ty, (LOwned, LMLRef)):
        return 32
    raise TypeError(f"not an L3 type: {ty!r}")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LUnitV:
    pass


@dataclass(frozen=True)
class LIntLit:
    value: int


@dataclass(frozen=True)
class LVar:
    name: str


@dataclass(frozen=True)
class LLet:
    name: str
    bound: "L3Expr"
    body: "L3Expr"


@dataclass(frozen=True)
class LBangI:
    """``!e`` — introduce an unrestricted value (e must be unrestricted)."""

    value: "L3Expr"


@dataclass(frozen=True)
class LLetBang:
    """``let !x = e1 in e2`` — eliminate a bang; ``x`` may be used freely."""

    name: str
    bound: "L3Expr"
    body: "L3Expr"


@dataclass(frozen=True)
class LPair:
    left: "L3Expr"
    right: "L3Expr"


@dataclass(frozen=True)
class LLetPair:
    """``let (x, y) = e1 in e2``."""

    left_name: str
    right_name: str
    bound: "L3Expr"
    body: "L3Expr"


@dataclass(frozen=True)
class LNew:
    """``new e`` — allocate a linear heap cell, returning ownership of it."""

    value: "L3Expr"


@dataclass(frozen=True)
class LFree:
    """``free e`` — consume ownership, deallocate, return the stored value."""

    owned: "L3Expr"


@dataclass(frozen=True)
class LSwap:
    """``swap e1 e2`` — strong update: store ``e2``, return (old value ⊗ ownership)."""

    owned: "L3Expr"
    value: "L3Expr"


@dataclass(frozen=True)
class LJoin:
    """``join e`` — convert ownership (ptr⊗cap) into an ML-style reference."""

    owned: "L3Expr"


@dataclass(frozen=True)
class LSplit:
    """``split e`` — convert an ML-style reference back into ownership."""

    ref: "L3Expr"


@dataclass(frozen=True)
class LBinOp:
    op: str
    left: "L3Expr"
    right: "L3Expr"


@dataclass(frozen=True)
class LCall:
    """Call of a top-level or imported function."""

    name: str
    arg: "L3Expr"


L3Expr = Union[
    LUnitV,
    LIntLit,
    LVar,
    LLet,
    LBangI,
    LLetBang,
    LPair,
    LLetPair,
    LNew,
    LFree,
    LSwap,
    LJoin,
    LSplit,
    LBinOp,
    LCall,
]


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


@memoize_digest
@dataclass(frozen=True)
class L3Function:
    """A top-level L3 function (one argument, no captured variables)."""

    name: str
    param: str
    param_type: L3Type
    result_type: L3Type
    body: L3Expr
    export: bool = True

    # Frontend unit-key memos (repro.compilepipe) stay out of pickles.
    __getstate__ = state_without_memos


@memoize_digest
@dataclass(frozen=True)
class L3Import:
    """An imported function, typically exported by an ML module."""

    module: str
    name: str
    param_type: L3Type
    result_type: L3Type
    local_name: Optional[str] = None

    @property
    def binding_name(self) -> str:
        return self.local_name if self.local_name is not None else self.name


@memoize_digest
@dataclass(frozen=True)
class L3Module:
    name: str
    imports: tuple[L3Import, ...] = ()
    functions: tuple[L3Function, ...] = ()


def l3_module(
    name: str,
    functions: Sequence[L3Function] = (),
    imports: Sequence[L3Import] = (),
) -> L3Module:
    return L3Module(name, tuple(imports), tuple(functions))
