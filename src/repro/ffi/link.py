"""Multi-module linking and the ML/L3 FFI (paper §2.2, §5).

Source modules are compiled *separately* to RichWasm; this module provides
the cross-module checks and the linker:

* :func:`check_link` — resolve every import against the exporting module and
  require the RichWasm function types to match exactly, then type-check every
  module.  This is where the unsafe interop of Fig. 1 is rejected: ML's
  ``stash`` exports an unrestricted-reference type while the manually-managed
  client imports it at a linear-reference type, so the declared types differ.
  When the declared types *do* match (the linking-types version of Fig. 3),
  any remaining violation — such as ``stash`` duplicating the linear
  reference — fails the per-module RichWasm type check instead.
* :func:`link_modules` — statically link several RichWasm modules into one,
  rewriting function, table and global indices, so the result can be lowered
  to a single Wasm module with one shared memory (fine-grained shared-memory
  interop, not shared-nothing copying).
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..core.syntax import (
    Block,
    Call,
    CodeRefI,
    ExistUnpack,
    Function,
    FunctionDecl,
    GetGlobal,
    Global,
    GlobalDecl,
    If,
    ImportedFunction,
    ImportedGlobal,
    Instr,
    Loop,
    MemUnpack,
    Module,
    SetGlobal,
    Table,
    VariantCase,
)
from ..core.typing import check_module, funtypes_equal
from ..core.typing.errors import LinkError, RichWasmTypeError


@dataclass
class LinkResult:
    """The outcome of cross-module checking."""

    modules: dict[str, Module]
    resolved_imports: list[tuple[str, str, str]] = field(default_factory=list)


def _export_maps(modules: dict[str, Module]) -> dict[str, dict[str, int]]:
    """Each module's export name -> function index map, built once per
    :func:`check_link` / :func:`link_modules` call."""

    return {name: module.exported_functions() for name, module in modules.items()}


def _find_export(modules: dict[str, Module], export_maps: dict[str, dict[str, int]],
                 module_name: str, export_name: str):
    if module_name not in modules:
        raise LinkError(f"import from unknown module {module_name!r}")
    exports = export_maps[module_name]
    if export_name not in exports:
        raise LinkError(f"module {module_name!r} does not export {export_name!r}")
    return modules[module_name].functions[exports[export_name]]


def check_link(modules: dict[str, Module], *, checker=check_module) -> LinkResult:
    """Check that every import matches its export and every module type-checks.

    Raises :class:`LinkError` for unresolved or mismatched imports and a
    :class:`RichWasmTypeError` subclass for modules that are internally
    ill-typed — both constitute the "potentially problematic interaction ...
    will fail to type check" guarantee of the paper.

    ``checker`` is the per-module type check — by default the plain
    :func:`repro.core.typing.check_module`; :class:`repro.runtime.ModuleCache`
    passes its memoized ``typecheck`` stage so shared library modules are
    checked once per cache rather than once per link.
    """

    return _check_link(modules, _export_maps(modules), checker)


def _check_link(modules: dict[str, Module], export_maps: dict[str, dict[str, int]],
                checker) -> LinkResult:
    result = LinkResult(modules=dict(modules))
    for name, module in modules.items():
        for index, decl in module.function_imports():
            exported = _find_export(
                modules, export_maps, decl.import_ref.module, decl.import_ref.name
            )
            if not funtypes_equal(exported.funtype, decl.funtype):
                raise LinkError(
                    f"import {decl.import_ref.module}.{decl.import_ref.name} in module {name!r}"
                    f" is declared at type {decl.funtype} but the exporter provides {exported.funtype}"
                )
            result.resolved_imports.append((name, decl.import_ref.module, decl.import_ref.name))
    for name, module in modules.items():
        checker(module)
    return result


# ---------------------------------------------------------------------------
# Static linking into a single module
# ---------------------------------------------------------------------------


@dataclass
class _Remap:
    """Index remapping for one module being merged."""

    func: dict[int, int]
    global_: dict[int, int]
    table: dict[int, int]


def _remap_instr(instr: Instr, remap: _Remap) -> Instr:
    """Rewrite function/global/table indices inside one instruction."""

    if isinstance(instr, Call):
        return replace(instr, func_index=remap.func[instr.func_index])
    if isinstance(instr, CodeRefI):
        return replace(instr, table_index=remap.table[instr.table_index])
    if isinstance(instr, GetGlobal):
        return replace(instr, index=remap.global_[instr.index])
    if isinstance(instr, SetGlobal):
        return replace(instr, index=remap.global_[instr.index])
    if isinstance(instr, Block):
        return replace(instr, body=_remap_body(instr.body, remap))
    if isinstance(instr, Loop):
        return replace(instr, body=_remap_body(instr.body, remap))
    if isinstance(instr, If):
        return replace(
            instr,
            then_body=_remap_body(instr.then_body, remap),
            else_body=_remap_body(instr.else_body, remap),
        )
    if isinstance(instr, (MemUnpack, ExistUnpack)):
        return replace(instr, body=_remap_body(instr.body, remap))
    if isinstance(instr, VariantCase):
        return replace(instr, branches=tuple(_remap_body(b, remap) for b in instr.branches))
    return instr


def _remap_body(body: Sequence[Instr], remap: _Remap) -> tuple[Instr, ...]:
    return tuple(_remap_instr(instr, remap) for instr in body)


def _remap_digest(remap: _Remap) -> bytes:
    """Digest of one module's remap tables — everything a remapped
    declaration depends on besides its own content and export names."""

    hasher = hashlib.sha256(b"remap")
    for table in (remap.func, remap.global_, remap.table):
        hasher.update(b"|")
        hasher.update(array("q", [v for item in sorted(table.items()) for v in item]).tobytes())
    return hasher.digest()


def _remapped(decl, build, units, remap_digest: Optional[bytes], exports: tuple = ()):
    """``build()`` — the remapped ``decl``, called at once — memoized as a
    link unit."""

    if units is None:
        return build()
    key = units.link_key(decl, remap_digest, exports)
    linked = units.get("link", key)
    if linked is None:
        linked = build()
        units.put("link", key, linked)
    return linked


def link_modules(modules: dict[str, Module], *, name: str = "linked", check: bool = True,
                 checker=check_module, unit_cache=None, annotations=None) -> Module:
    """Statically link modules into one (imports resolved to direct calls).

    The resulting module exports every export of every input module, holds
    the concatenation of their globals and tables, and contains no imports —
    it can be lowered to a single Wasm module sharing one memory.
    ``check=False`` skips :func:`check_link` (for callers whose modules were
    already checked, e.g. a :class:`repro.ffi.Program`).  ``checker`` is the
    module type check used for both the inputs and the linked result (see
    :func:`check_link`).  ``unit_cache`` (a
    :class:`repro.compilepipe.FunctionUnitCache`) memoizes each remapped
    declaration, so relinking after a one-function edit returns every
    other declaration as the same object.

    ``annotations`` (a :class:`repro.lower.AnnotationStreams`) asks the
    linked result's check for the per-function annotation streams the
    type-directed lowering replays; once that check passes, it is bound to
    the linked module.  The inputs' checks record nothing: linking
    renumbers indices, so their streams could not be replayed.
    """

    export_maps = _export_maps(modules)
    if check:
        _check_link(modules, export_maps, checker)

    order = list(modules.keys())
    # First pass: assign new indices to every *defined* function and global.
    func_base: dict[str, dict[int, int]] = {}
    global_base: dict[str, dict[int, int]] = {}
    table_base: dict[str, dict[int, int]] = {}
    new_functions: list[FunctionDecl] = []
    new_globals: list[GlobalDecl] = []
    new_table: list[int] = []

    for module_name in order:
        module = modules[module_name]
        func_map: dict[int, int] = {}
        for index, decl in enumerate(module.functions):
            if isinstance(decl, ImportedFunction):
                continue
            func_map[index] = len(new_functions)
            new_functions.append(decl)  # body remapped in the second pass
        func_base[module_name] = func_map

        global_map: dict[int, int] = {}
        for index, decl in enumerate(module.globals):
            if isinstance(decl, ImportedGlobal):
                continue
            global_map[index] = len(new_globals)
            new_globals.append(decl)
        global_base[module_name] = global_map

    # Resolve imported function indices to the exporter's new indices.
    for module_name in order:
        module = modules[module_name]
        func_map = func_base[module_name]
        for index, decl in enumerate(module.functions):
            if not isinstance(decl, ImportedFunction):
                continue
            export_index = export_maps[decl.import_ref.module][decl.import_ref.name]
            func_map[index] = func_base[decl.import_ref.module][export_index]

    # Tables: concatenate, remapping entries through the function map.
    for module_name in order:
        module = modules[module_name]
        table_map: dict[int, int] = {}
        for position, entry in enumerate(module.table.entries):
            table_map[position] = len(new_table)
            new_table.append(func_base[module_name][entry])
        table_base[module_name] = table_map

    # Which export names are unambiguous across the whole program?
    export_owners: dict[str, list[str]] = {}
    for module_name in order:
        for export in export_maps[module_name]:
            export_owners.setdefault(export, []).append(module_name)

    # Second pass: rewrite the bodies of the defined functions and globals and
    # namespace the exports (``module.export``), keeping the bare name when it
    # is unique across the program.
    rewritten: list[FunctionDecl] = list(new_functions)
    for module_name in order:
        module = modules[module_name]
        remap = _Remap(func_base[module_name], global_base[module_name], table_base[module_name])
        remap_digest = _remap_digest(remap) if unit_cache is not None else None
        for index, decl in enumerate(module.functions):
            if isinstance(decl, ImportedFunction):
                continue
            new_index = func_base[module_name][index]
            exports = []
            for export in decl.exports:
                exports.append(f"{module_name}.{export}")
                if len(export_owners.get(export, [])) == 1:
                    exports.append(export)
            exports = tuple(exports)
            rewritten[new_index] = _remapped(
                decl,
                lambda: replace(decl, body=_remap_body(decl.body, remap), exports=exports),
                unit_cache, remap_digest, exports,
            )
        for index, decl in enumerate(module.globals):
            if isinstance(decl, ImportedGlobal):
                continue
            new_index = global_base[module_name][index]
            new_globals[new_index] = _remapped(
                decl,
                lambda: replace(decl, init=_remap_body(decl.init, remap)),
                unit_cache, remap_digest,
            )

    linked = Module(
        functions=tuple(rewritten),
        globals=tuple(new_globals),
        table=Table(entries=tuple(new_table)),
        name=name,
    )
    if annotations is None:
        checker(linked)
    else:
        checker(linked, observer_for=annotations.observer_for)
        annotations.module = linked
    return linked
