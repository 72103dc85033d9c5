"""Module typing: checking functions, globals and tables of a RichWasm module.

This is the entry point compilers use: :func:`check_module` validates every
defined function body against its declared function type, every global
initializer against its declared pretype, and the table against the function
index space, producing the :class:`~repro.core.typing.env.ModuleEnv` used by
instruction typing.  Cross-module programs are checked by
:mod:`repro.ffi.link`, which resolves imports to the exporting module's
declarations before calling into this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..syntax.modules import Function, FunctionDecl, Global, GlobalDecl, ImportedFunction, ImportedGlobal, Module
from ..syntax.qualifiers import UNR
from ..syntax.sizes import Size
from ..syntax.types import (
    FunType,
    LocQuant,
    QualQuant,
    SizeQuant,
    Type,
    TypeQuant,
    UnitT,
)
from .constraints import QualContext
from .env import (
    FunctionEnv,
    GlobalType,
    LocalEnv,
    LocalSlot,
    ModuleEnv,
    StoreTyping,
    empty_function_env,
    empty_store_typing,
)
from .errors import LinearityError, ModuleTypeError
from .instruction_typing import InstructionChecker
from .sizing import size_of_type
from .validity import check_funtype_valid


@dataclass(frozen=True)
class ModuleCheckResult:
    """The outcome of checking a module: its environment and some statistics."""

    module_env: ModuleEnv
    functions_checked: int
    globals_checked: int
    instructions_checked: int


def module_env_of(module: Module) -> ModuleEnv:
    """Build the module environment (function/global/table types) of a module."""

    func_types = tuple(f.funtype for f in module.functions)
    global_types = tuple(GlobalType(g.pretype, g.mutable) for g in module.globals)
    table_types = []
    for entry in module.table.entries:
        if entry < 0 or entry >= len(module.functions):
            raise ModuleTypeError(f"table entry {entry} does not name a function")
        table_types.append(module.functions[entry].funtype)
    return ModuleEnv(func_types, global_types, tuple(table_types))


def function_env_of(funtype: FunType) -> tuple[FunctionEnv, list[Type]]:
    """Open a function type's quantifiers into a fresh function environment.

    Returns the environment (with the qualifier/size/type/location contexts
    populated from the quantifier prefix) and the parameter types as seen
    from inside the body.
    """

    env = empty_function_env(funtype.arrow.results)
    for quant in funtype.quants:
        if isinstance(quant, LocQuant):
            env = env.push_loc()
        elif isinstance(quant, SizeQuant):
            env = env.push_size(quant.lower, quant.upper)
        elif isinstance(quant, QualQuant):
            env = env.push_qual(quant.lower, quant.upper)
        elif isinstance(quant, TypeQuant):
            env = env.push_type(quant.qual_bound, quant.size_bound, quant.heapable)
        else:  # pragma: no cover - defensive
            raise ModuleTypeError(f"unknown quantifier {quant!r}")
    return env, list(funtype.arrow.params)


def check_function(
    store_typing: StoreTyping,
    module_env: ModuleEnv,
    function: Function,
    *,
    allow_caps_in_linear_memory: bool = True,
    observer=None,
) -> None:
    """Check one function definition against its declared type.

    ``observer`` is the :class:`InstructionChecker` callback
    ``observer(instr, stack, local_env)``, called before each instruction of
    the body in traversal order (the type-directed lowering records its
    annotation stream through it).
    """

    check_funtype_valid(empty_function_env(), function.funtype, "function type")
    fenv, params = function_env_of(function.funtype)
    checker = InstructionChecker(
        store_typing,
        module_env,
        allow_caps_in_linear_memory=allow_caps_in_linear_memory,
        observer=observer,
    )

    # Parameters become the first locals (sized by their types); declared
    # locals start as unrestricted unit values of the declared sizes.
    slots: list[LocalSlot] = []
    for param in params:
        slots.append(LocalSlot(param, size_of_type(param, fenv.type_ctx)))
    for size in function.locals_sizes:
        slots.append(LocalSlot(Type(UnitT(), UNR), size))
    local_env = LocalEnv(tuple(slots))

    final_env = checker.check_body(
        fenv, local_env, function.body, [], list(function.funtype.arrow.results)
    )

    # At the end of the function every local must be unrestricted: any linear
    # value still sitting in a local would be silently dropped.
    for index, slot in enumerate(final_env):
        if not fenv.qual_ctx.leq(slot.type.qual, UNR):
            raise LinearityError(
                f"function ends with a linear value of type {slot.type} in local {index}"
            )


def check_global(
    store_typing: StoreTyping,
    module_env: ModuleEnv,
    global_decl: Global,
    *,
    allow_caps_in_linear_memory: bool = True,
) -> None:
    """Check one global initializer."""

    checker = InstructionChecker(
        store_typing, module_env, allow_caps_in_linear_memory=allow_caps_in_linear_memory
    )
    fenv = empty_function_env()
    expected = Type(global_decl.pretype, UNR)
    checker.check_body(fenv, LocalEnv(), global_decl.init, [], [expected])


def check_module(
    module: Module,
    *,
    store_typing: Optional[StoreTyping] = None,
    allow_caps_in_linear_memory: bool = True,
    unit_cache=None,
    observer_for: Optional[Callable[[Function], Callable]] = None,
) -> ModuleCheckResult:
    """Check a whole module; raises a RichWasmTypeError subclass on failure.

    ``unit_cache`` (a :class:`repro.compilepipe.FunctionUnitCache`) memoizes
    per-function checks: a function whose (body, signature environment,
    ``allow_caps_in_linear_memory``) key was checked before is skipped, and
    only its cached instruction count feeds the statistics.  Only successful
    checks are cached, and only against the default store typing — a custom
    ``store_typing`` widens what a body may reference, so its results are
    not per-function keyed.

    ``observer_for(function)`` returns the ``observer`` (see
    :func:`check_function`) to check one defined function under; it is
    called only for functions this call actually checks, never for a unit
    hit.  The linker passes it for the linked result so the lowering can
    replay the recorded types instead of checking again.
    """

    module_env = module_env_of(module)
    store = store_typing if store_typing is not None else empty_store_typing([module_env])
    units = unit_cache if store_typing is None else None

    functions_checked = 0
    instructions_checked = 0
    for function in module.functions:
        if isinstance(function, ImportedFunction):
            check_funtype_valid(empty_function_env(), function.funtype, "imported function type")
            continue
        if units is not None:
            key = units.typecheck_key(function, module, allow_caps=allow_caps_in_linear_memory)
            cached_count = units.get("typecheck", key)
            if cached_count is not None:
                functions_checked += 1
                instructions_checked += cached_count
                continue
        check_function(
            store,
            module_env,
            function,
            allow_caps_in_linear_memory=allow_caps_in_linear_memory,
            observer=None if observer_for is None else observer_for(function),
        )
        if units is not None:
            units.put("typecheck", key, function.instruction_count())
        functions_checked += 1
        instructions_checked += function.instruction_count()

    globals_checked = 0
    for global_decl in module.globals:
        if isinstance(global_decl, ImportedGlobal):
            continue
        check_global(
            store, module_env, global_decl, allow_caps_in_linear_memory=allow_caps_in_linear_memory
        )
        globals_checked += 1

    return ModuleCheckResult(
        module_env=module_env,
        functions_checked=functions_checked,
        globals_checked=globals_checked,
        instructions_checked=instructions_checked,
    )
