"""RichWasm top-level declarations: functions, globals, tables, modules.

Mirrors the paper's Fig. 2 "Top-level declarations": a module is a list of
functions, a list of globals and a function table; functions, globals and
tables may be exported by name or be imports from other modules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .instructions import Instr, instruction_count
from .intern import memoize_digest, state_without_memos
from .sizes import Size
from .types import FunType, Pretype, Type


@dataclass(frozen=True)
class Import:
    """An import reference ``import "module" "name"``."""

    module: str
    name: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f'(import "{self.module}" "{self.name}")'


@memoize_digest
@dataclass(frozen=True)
class Function:
    """A RichWasm function definition.

    ``locals_sizes`` gives the slot size for each declared local (parameters
    are locals too, but their sizes are derived from the parameter types);
    each declared local starts out holding the unrestricted unit value.
    """

    funtype: FunType
    locals_sizes: tuple[Size, ...]
    body: tuple[Instr, ...]
    exports: tuple[str, ...] = ()
    name: Optional[str] = None

    # Unit-key memos (repro.compilepipe) stay out of pickles.
    __getstate__ = state_without_memos

    @property
    def is_import(self) -> bool:
        return False

    def instruction_count(self) -> int:
        # The body is immutable; every check_module call re-reads this for
        # its statistics, so count the (recursive) instructions only once.
        cached = self.__dict__.get("_instruction_count")
        if cached is None:
            cached = instruction_count(self.body)
            self.__dict__["_instruction_count"] = cached
        return cached


@memoize_digest
@dataclass(frozen=True)
class ImportedFunction:
    """A function imported from another module."""

    funtype: FunType
    import_ref: Import
    exports: tuple[str, ...] = ()
    name: Optional[str] = None

    @property
    def is_import(self) -> bool:
        return True


FunctionDecl = Union[Function, ImportedFunction]


@memoize_digest
@dataclass(frozen=True)
class Global:
    """A global declaration ``glob mut? p i*``.

    Globals hold pretype values (the paper restricts globals to capability-free
    pretypes); ``init`` is the instruction sequence computing the initial
    value.
    """

    pretype: Pretype
    mutable: bool
    init: tuple[Instr, ...]
    exports: tuple[str, ...] = ()
    name: Optional[str] = None

    __getstate__ = state_without_memos

    @property
    def is_import(self) -> bool:
        return False


@memoize_digest
@dataclass(frozen=True)
class ImportedGlobal:
    """A global imported from another module."""

    pretype: Pretype
    mutable: bool
    import_ref: Import
    exports: tuple[str, ...] = ()
    name: Optional[str] = None

    @property
    def is_import(self) -> bool:
        return True


GlobalDecl = Union[Global, ImportedGlobal]


@dataclass(frozen=True)
class Table:
    """A function table: indices of in-module functions usable indirectly."""

    entries: tuple[int, ...] = ()
    exports: tuple[str, ...] = ()


@memoize_digest
@dataclass(frozen=True)
class Module:
    """A RichWasm module ``module f* glob* tab``."""

    functions: tuple[FunctionDecl, ...] = ()
    globals: tuple[GlobalDecl, ...] = ()
    table: Table = field(default_factory=Table)
    name: Optional[str] = None

    def exported_functions(self) -> dict[str, int]:
        """Map export name -> function index."""

        exports: dict[str, int] = {}
        for index, function in enumerate(self.functions):
            for export in function.exports:
                exports[export] = index
        return exports

    def exported_globals(self) -> dict[str, int]:
        """Map export name -> global index."""

        exports: dict[str, int] = {}
        for index, global_decl in enumerate(self.globals):
            for export in global_decl.exports:
                exports[export] = index
        return exports

    def function_imports(self) -> list[tuple[int, ImportedFunction]]:
        """All imported functions with their indices."""

        return [
            (index, function)
            for index, function in enumerate(self.functions)
            if isinstance(function, ImportedFunction)
        ]

    def defined_functions(self) -> list[tuple[int, Function]]:
        """All locally defined functions with their indices."""

        return [
            (index, function)
            for index, function in enumerate(self.functions)
            if isinstance(function, Function)
        ]

    def instruction_count(self) -> int:
        """Total number of instructions across all defined functions."""

        # No ``defined_functions()`` list: a recompile calls this on every
        # module version, and the counts are memoized per function.
        total = 0
        for function in self.functions:
            if isinstance(function, Function):
                total += function.instruction_count()
        for global_decl in self.globals:
            if isinstance(global_decl, Global):
                total += instruction_count(global_decl.init)
        return total


def signature_env_digest(module: Module) -> bytes:
    """Digest of the signature environment a function body compiles against.

    Covers exactly what per-function type checking and lowering read from the
    *rest* of the module: every function type in index order (their count
    also fixes the runtime malloc/free indices), every global's pretype and
    mutability in index order (which fix the lowered global layout map), and
    the table entries.  Function *bodies* are deliberately excluded — that is
    the point: editing one body leaves every other function's compilation
    unit key (body digest, signature-environment digest) unchanged, so
    :class:`repro.compilepipe.FunctionUnitCache` reuses their artifacts.

    The module is immutable, so the digest is computed once and cached on the
    instance (same idiom as :meth:`Function.instruction_count`).
    """

    cached = module.__dict__.get("_sig_env_digest")
    if cached is None:
        from .intern import structural_digest

        hasher = hashlib.sha256(b"sigenv")
        for decl in module.functions:
            hasher.update(structural_digest(decl.funtype))
        hasher.update(b"|globals")
        for global_decl in module.globals:
            hasher.update(structural_digest(global_decl.pretype))
            hasher.update(b"\x01" if global_decl.mutable else b"\x00")
        hasher.update(b"|table")
        for entry in module.table.entries:
            hasher.update(b"%d," % entry)
        cached = hasher.digest()
        module.__dict__["_sig_env_digest"] = cached
    return cached


def make_module(
    functions: Sequence[FunctionDecl] = (),
    globals: Sequence[GlobalDecl] = (),
    table: Optional[Table] = None,
    name: Optional[str] = None,
) -> Module:
    """Convenience constructor for modules."""

    return Module(
        functions=tuple(functions),
        globals=tuple(globals),
        table=table if table is not None else Table(),
        name=name,
    )
