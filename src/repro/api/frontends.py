"""The frontend registry: every source language behind one interface.

A :class:`Frontend` turns one source-language module into a RichWasm
:class:`~repro.core.syntax.Module`; :func:`repro.api.compile` accepts any mix
of registered frontends in one source set and links the results into a
single program.  Three frontends ship:

* ``ml`` — the §5 GC'd functional language (:class:`repro.ml.MLModule`,
  compiled via :func:`repro.ml.compile_ml_module`);
* ``l3`` — the §5 linear language (:class:`repro.l3.L3Module`, compiled via
  :func:`repro.l3.compile_l3_module`);
* ``richwasm`` — hand-built RichWasm term modules
  (:class:`repro.core.syntax.Module`, e.g. from the textual constructors in
  ``repro.core.syntax``), passed through unchanged.

Sources are dispatched by type (:func:`detect_frontend`) or explicitly by
name (``("l3", module)`` pairs, :func:`resolve_frontend`).  The registry is
open: new languages plug in via :func:`register_frontend` without touching
the facade.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar

from .config import CompileConfig, ConfigError


class Frontend(ABC):
    """One source language: a name, a source type, and a compile step."""

    name: ClassVar[str] = "abstract"

    @abstractmethod
    def source_types(self) -> tuple[type, ...]:
        """The source AST types this frontend accepts."""

    @abstractmethod
    def compile_source(self, source, config: CompileConfig, unit_cache=None):
        """Compile ``source`` to a RichWasm :class:`~repro.core.syntax.Module`.

        ``unit_cache`` is the compiling cache's
        :class:`repro.compilepipe.FunctionUnitCache` (``None`` off the cache
        paths); a frontend may file and reuse per-function ``frontend``
        units there, and is free to ignore it.
        """

    def handles(self, source) -> bool:
        return isinstance(source, self.source_types())


class MLFrontend(Frontend):
    name = "ml"

    def source_types(self) -> tuple[type, ...]:
        from ..ml.ast import MLModule

        return (MLModule,)

    def compile_source(self, source, config: CompileConfig, unit_cache=None):
        from ..ml import compile_ml_module

        return compile_ml_module(source, unit_cache=unit_cache)


class L3Frontend(Frontend):
    name = "l3"

    def source_types(self) -> tuple[type, ...]:
        from ..l3.ast import L3Module

        return (L3Module,)

    def compile_source(self, source, config: CompileConfig, unit_cache=None):
        from ..l3 import compile_l3_module

        return compile_l3_module(source, unit_cache=unit_cache)


class RichWasmFrontend(Frontend):
    """Already-RichWasm term modules pass through unchanged."""

    name = "richwasm"

    def source_types(self) -> tuple[type, ...]:
        from ..core.syntax import Module

        return (Module,)

    def compile_source(self, source, config: CompileConfig, unit_cache=None):
        return source


_FRONTENDS: dict[str, Frontend] = {}


def register_frontend(frontend: Frontend, *, replace: bool = False) -> Frontend:
    """Install a frontend under its ``name`` (``replace=True`` to override)."""

    if not isinstance(frontend, Frontend):
        raise ConfigError(f"expected a Frontend instance, got {type(frontend).__name__}")
    if frontend.name in _FRONTENDS and not replace:
        raise ConfigError(
            f"frontend {frontend.name!r} is already registered; pass replace=True to override"
        )
    _FRONTENDS[frontend.name] = frontend
    return frontend


def available_frontends() -> tuple[str, ...]:
    """The registered frontend names, sorted."""

    return tuple(sorted(_FRONTENDS))


def resolve_frontend(name: str) -> Frontend:
    """Look a frontend up by name, or raise naming the registered ones."""

    try:
        return _FRONTENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown frontend {name!r}; registered frontends: {', '.join(available_frontends())}"
        ) from None


def detect_frontend(source) -> Frontend:
    """Dispatch a source object to the frontend that accepts its type."""

    for frontend in _FRONTENDS.values():
        if frontend.handles(source):
            return frontend
    raise ConfigError(
        f"no registered frontend accepts a source of type {type(source).__name__}; "
        f"registered frontends: {', '.join(available_frontends())}"
    )


for _frontend in (MLFrontend(), L3Frontend(), RichWasmFrontend()):
    register_frontend(_frontend)
del _frontend
