"""Abstract syntax for the WebAssembly 1.0 (+ multi-value) substrate.

RichWasm is lowered to this language (paper §6).  The subset implemented here
is the one the lowering needs — and which the paper's compiler targets:
numeric instructions over ``i32``/``i64``/``f32``/``f64``, full structured
control flow, locals and globals, a single linear byte memory with sized
loads/stores, direct and indirect calls through a function table, and
multi-value blocks/functions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

from ..core.syntax.intern import memoize_digest, state_without_memos


class ValType(enum.Enum):
    """Wasm value types."""

    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    F64 = "f64"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @property
    def is_integer(self) -> bool:
        return self in (ValType.I32, ValType.I64)

    @property
    def bit_width(self) -> int:
        return 32 if self in (ValType.I32, ValType.F32) else 64

    @property
    def byte_width(self) -> int:
        return self.bit_width // 8


@memoize_digest
@dataclass(frozen=True)
class WasmFuncType:
    """A Wasm function type ``[params] -> [results]`` (multi-value allowed)."""

    params: tuple[ValType, ...]
    results: tuple[ValType, ...]

    def __str__(self) -> str:  # pragma: no cover - trivial
        params = " ".join(str(p) for p in self.params)
        results = " ".join(str(r) for r in self.results)
        return f"(func ({params}) -> ({results}))"


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """``t.const c``."""

    valtype: ValType
    value: Union[int, float]


@dataclass(frozen=True)
class Unop:
    """A unary numeric operator, e.g. ``i32.clz`` or ``f64.sqrt``."""

    valtype: ValType
    op: str


@dataclass(frozen=True)
class Binop:
    """A binary numeric operator, e.g. ``i32.add``."""

    valtype: ValType
    op: str


@dataclass(frozen=True)
class Testop:
    """``t.eqz``."""

    valtype: ValType
    op: str = "eqz"


@dataclass(frozen=True)
class Relop:
    """A comparison operator, e.g. ``i32.lt_s``."""

    valtype: ValType
    op: str


@dataclass(frozen=True)
class Cvtop:
    """A conversion, e.g. ``i64.extend_i32_u``."""

    target: ValType
    op: str
    source: ValType


@dataclass(frozen=True)
class WUnreachable:
    pass


@dataclass(frozen=True)
class WNop:
    pass


@dataclass(frozen=True)
class WDrop:
    pass


@dataclass(frozen=True)
class WSelect:
    pass


@dataclass(frozen=True)
class WBlock:
    blocktype: WasmFuncType
    body: tuple["WInstr", ...]


@dataclass(frozen=True)
class WLoop:
    blocktype: WasmFuncType
    body: tuple["WInstr", ...]


@dataclass(frozen=True)
class WIf:
    blocktype: WasmFuncType
    then_body: tuple["WInstr", ...]
    else_body: tuple["WInstr", ...] = ()


@dataclass(frozen=True)
class WBr:
    depth: int


@dataclass(frozen=True)
class WBrIf:
    depth: int


@dataclass(frozen=True)
class WBrTable:
    depths: tuple[int, ...]
    default: int


@dataclass(frozen=True)
class WReturn:
    pass


@dataclass(frozen=True)
class WCall:
    func_index: int


@dataclass(frozen=True)
class WCallIndirect:
    functype: WasmFuncType


@dataclass(frozen=True)
class LocalGet:
    index: int


@dataclass(frozen=True)
class LocalSet:
    index: int


@dataclass(frozen=True)
class LocalTee:
    index: int


@dataclass(frozen=True)
class GlobalGet:
    index: int


@dataclass(frozen=True)
class GlobalSet:
    index: int


@dataclass(frozen=True)
class Load:
    """``t.load`` / ``t.loadN_sx`` with a static offset."""

    valtype: ValType
    offset: int = 0
    width: Optional[int] = None  # 8, 16 or 32 for narrow loads
    signed: bool = False


@dataclass(frozen=True)
class StoreI:
    """``t.store`` / ``t.storeN`` with a static offset."""

    valtype: ValType
    offset: int = 0
    width: Optional[int] = None


@dataclass(frozen=True)
class MemorySize:
    pass


@dataclass(frozen=True)
class MemoryGrow:
    pass


WInstr = Union[
    Const,
    Unop,
    Binop,
    Testop,
    Relop,
    Cvtop,
    WUnreachable,
    WNop,
    WDrop,
    WSelect,
    WBlock,
    WLoop,
    WIf,
    WBr,
    WBrIf,
    WBrTable,
    WReturn,
    WCall,
    WCallIndirect,
    LocalGet,
    LocalSet,
    LocalTee,
    GlobalGet,
    GlobalSet,
    Load,
    StoreI,
    MemorySize,
    MemoryGrow,
]


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------


@memoize_digest
@dataclass(frozen=True)
class WasmFunction:
    """A defined Wasm function."""

    functype: WasmFuncType
    locals: tuple[ValType, ...]
    body: tuple[WInstr, ...]
    name: Optional[str] = None
    exports: tuple[str, ...] = ()

    # Unit-key and callee-set memos (repro.compilepipe, repro.opt.deadfuncs)
    # stay out of pickles.
    __getstate__ = state_without_memos


@memoize_digest
@dataclass(frozen=True)
class WasmImportedFunction:
    """A function imported from another module (or the host)."""

    functype: WasmFuncType
    module: str
    name: str
    exports: tuple[str, ...] = ()


WasmFunctionDecl = Union[WasmFunction, WasmImportedFunction]


@memoize_digest
@dataclass(frozen=True)
class WasmGlobal:
    valtype: ValType
    mutable: bool
    init: tuple[WInstr, ...]
    exports: tuple[str, ...] = ()
    name: Optional[str] = None


@dataclass(frozen=True)
class WasmMemory:
    """A linear memory: ``min_pages`` 64 KiB pages, optionally bounded."""

    min_pages: int = 1
    max_pages: Optional[int] = None
    exports: tuple[str, ...] = ()


@dataclass(frozen=True)
class WasmTable:
    """A function table initialized with the given function indices."""

    entries: tuple[int, ...] = ()
    exports: tuple[str, ...] = ()


@dataclass(frozen=True)
class WasmData:
    """A data segment written into memory at instantiation."""

    offset: int
    data: bytes


@memoize_digest
@dataclass(frozen=True)
class WasmModule:
    functions: tuple[WasmFunctionDecl, ...] = ()
    globals: tuple[WasmGlobal, ...] = ()
    memory: Optional[WasmMemory] = None
    table: WasmTable = field(default_factory=WasmTable)
    data: tuple[WasmData, ...] = ()
    start: Optional[int] = None
    name: Optional[str] = None

    def exported_functions(self) -> dict[str, int]:
        exports: dict[str, int] = {}
        for index, function in enumerate(self.functions):
            for export in function.exports:
                exports[export] = index
        return exports

    def function_count(self) -> int:
        return len(self.functions)

    def instruction_count(self) -> int:
        total = 0
        for function in self.functions:
            if isinstance(function, WasmFunction):
                total += function_instruction_count(function)
        return total


PAGE_SIZE = 65536


def count_instrs(body: Sequence[WInstr]) -> int:
    """Count instructions, descending into nested blocks."""

    total = 0
    for instr in body:
        total += 1
        if isinstance(instr, (WBlock, WLoop)):
            total += count_instrs(instr.body)
        elif isinstance(instr, WIf):
            total += count_instrs(instr.then_body) + count_instrs(instr.else_body)
    return total


def function_instruction_count(function: WasmFunction) -> int:
    """:func:`count_instrs` over a function body, cached on the instance.

    Lowering statistics, module instruction counts and the optimizer all
    re-count the same immutable bodies; with function-level caching a reused
    function would otherwise pay an O(body) walk on every recompile.
    """

    cached = function.__dict__.get("_instr_count")
    if cached is None:
        cached = count_instrs(function.body)
        function.__dict__["_instr_count"] = cached
    return cached
