"""Running multi-module RichWasm programs.

:class:`Program` is the convenience layer the examples and benchmarks use:
it takes separately-compiled RichWasm modules (e.g. one compiled from ML and
one from L3), performs the cross-module FFI check, and offers two execution
paths that share one heap:

* the **RichWasm interpreter** path — each module becomes an instance on one
  shared two-memory store, with imports wired by export name;
* the **Wasm** path — the modules are statically linked into a single
  RichWasm module, lowered to one Wasm module with one linear memory, and run
  on the Wasm interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.semantics import Interpreter
from ..core.syntax import Module, Value
from ..core.typing.errors import LinkError
from ..wasm import WasmInterpreter
from .link import check_link, link_modules


@dataclass
class Program:
    """A multi-module program with cross-language linking."""

    modules: dict[str, Module]
    check_on_init: bool = True

    def __post_init__(self) -> None:
        if self.check_on_init:
            check_link(self.modules)

    # -- dependency order -------------------------------------------------------

    def instantiation_order(self) -> list[str]:
        """Modules ordered so that exporters come before their importers."""

        order: list[str] = []
        visiting: set[str] = set()

        def visit(name: str) -> None:
            if name in order:
                return
            if name in visiting:
                raise LinkError(f"import cycle involving module {name!r}")
            visiting.add(name)
            for _, decl in self.modules[name].function_imports():
                if decl.import_ref.module in self.modules:
                    visit(decl.import_ref.module)
            visiting.discard(name)
            order.append(name)

        for name in self.modules:
            visit(name)
        return order

    # -- RichWasm interpreter path ------------------------------------------------

    def instantiate(self, interpreter: Optional[Interpreter] = None) -> "ProgramInstance":
        interpreter = interpreter if interpreter is not None else Interpreter()
        instances: dict[str, int] = {}
        handles: dict[str, object] = {}
        for name in self.instantiation_order():
            module = self.modules[name]
            imports = {other: interpreter.store.instance(instances[other]) for other in instances}
            index = interpreter.instantiate(module, imports)
            instances[name] = index
            handles[name] = interpreter.store.instance(index)
        instance = ProgramInstance(self, interpreter, instances)
        instance.run_initializers()
        return instance

    # -- Wasm path -----------------------------------------------------------------

    def link(self, *, name: str = "linked") -> Module:
        """Statically link all modules into one RichWasm module."""

        return link_modules(self.modules, name=name)

    def lower(self, *, config=None, cache=None):
        """Link and lower the whole program to a single Wasm module.

        ``config`` (a :class:`repro.api.CompileConfig`) is the entry surface:
        its ``opt_level`` runs a named :mod:`repro.opt` pipeline over the
        *linked* module, so cross-language programs get whole-program
        optimization (the linker already resolved imports to direct calls).
        ``cache`` pins an explicit :class:`repro.runtime.ModuleCache`
        (otherwise the config's cache policy decides; without a config,
        nothing is memoized), memoizing the link and lower/optimize stages by
        content so repeated lowerings of the same program compile once.
        """

        from ..api import lower as api_lower

        return api_lower(self, _config_or(config, "none"), cache=cache)

    def compile(self, *, config=None, cache=None):
        """Compile to the shareable :class:`repro.runtime.CompiledProgram`
        (the input to instance pools and batch runners) via
        :func:`repro.api.compile`.

        Without an explicit ``cache`` the config's cache policy decides
        (historical default: a private per-call cache).  ``config.engine``
        accepts a name or an :class:`~repro.wasm.engine.ExecutionEngine`
        instance (reduced to its registry name — compiled artifacts record
        preferences, not live engines).
        """

        from ..api import compile as api_compile

        return api_compile(self, _config_or(config, "private"), cache=cache)

    def instantiate_wasm(self, *, config=None, cache=None) -> "WasmProgramInstance":
        """Lower and run the whole program on a Wasm execution engine.

        ``config.engine`` selects the engine (``"flat"``/``"tree"``); the
        default is the flat VM.  With a cache (explicit ``cache=`` or the
        config's policy; without a config, nothing is memoized) the pipeline
        stages are memoized — already validated on first compile — so only
        instantiation is paid per call.
        """

        from ..api import compile as api_compile

        compiled = api_compile(self, _config_or(config, "none"), cache=cache)
        interpreter = WasmInterpreter(
            max_steps=compiled.config.max_steps, engine=compiled.engine
        )
        instance = interpreter.instantiate(compiled.wasm)
        program = WasmProgramInstance(self, interpreter, instance, compiled.lowered)
        program.run_initializers()
        return program


def _config_or(config, cache_policy: str):
    """``config``, or a default config under this entry point's historical
    cache policy when none is given."""

    if config is not None:
        return config
    from ..api.config import CompileConfig

    return CompileConfig(cache=cache_policy)


@dataclass
class ProgramInstance:
    """A running multi-module program on the RichWasm interpreter."""

    program: Program
    interpreter: Interpreter
    instances: dict[str, int]

    def run_initializers(self) -> None:
        for name, index in self.instances.items():
            exports = self.program.modules[name].exported_functions()
            if "_init" in exports:
                self.interpreter.invoke_export(index, "_init")

    def invoke(self, module: str, export: str, args: Sequence[Value] = ()):
        """Invoke ``module.export`` and return its result values."""

        return self.interpreter.invoke_export(self.instances[module], export, list(args)).values

    def store_stats(self) -> dict[str, int]:
        return self.interpreter.store.stats()


@dataclass
class WasmProgramInstance:
    """A running program lowered to a single Wasm module (one shared memory)."""

    program: Program
    interpreter: WasmInterpreter
    instance: object
    lowered: object

    def run_initializers(self) -> None:
        for export in self.instance.exports:  # type: ignore[attr-defined]
            if export.endswith("._init"):
                self.interpreter.invoke(self.instance, export)

    def invoke(self, module: str, export: str, args: Sequence = ()):
        """Invoke ``module.export`` on the linked Wasm module.

        Linking namespaces every export as ``module.export``; a bare
        ``export`` name is accepted only when the qualified name is absent
        and the bare one exists (pre-linked inputs).  Neither existing — or
        both existing and naming *different* functions — raises
        :class:`LinkError` naming the candidates instead of silently picking
        one.
        """

        exports = self.instance.exports  # type: ignore[attr-defined]
        qualified = f"{module}.{export}"
        candidates = [name for name in (qualified, export) if name in exports]
        if not candidates:
            raise LinkError(
                f"no export {qualified!r} (nor bare {export!r}) in the linked program; "
                f"available: {', '.join(sorted(exports))}"
            )
        if len(candidates) == 2 and exports[qualified] != exports[export]:
            raise LinkError(
                f"ambiguous export: both {qualified!r} and {export!r} exist "
                "and name different functions; invoke the qualified name explicitly "
                "via interpreter.invoke"
            )
        return self.interpreter.invoke(self.instance, candidates[0], list(args))
