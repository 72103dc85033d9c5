"""The one configuration object the whole compile/run pipeline keys on.

:class:`CompileConfig` replaces the ``memory_pages``/``optimize``/``engine``/
``cache`` keyword sprawl that every entry point used to re-thread: it is a
frozen dataclass, so one validated value describes a compile end to end and
can be shared, compared and hashed.  Two groups of fields:

* **compile content** — ``opt_level`` (one of the :data:`OPT_LEVELS`),
  ``memory_pages`` and ``link_name``.  These determine the compiled
  artifact bit for bit and are exactly what :meth:`content_key` hashes; the
  digest is used directly as the :class:`repro.runtime.ModuleCache` key, so
  two configs that compile identically share one cache entry.
* **execution bookkeeping** — ``engine``, ``cache`` policy, ``max_steps``,
  ``pool_size`` and ``check_links``.  These select *how* the artifact
  is built and run, never *what* is built, and are deliberately excluded
  from :meth:`content_key` (the engine-bit-identity contract of PR 2/3: one
  compiled payload serves every engine).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union


class ConfigError(ValueError):
    """A :class:`CompileConfig` (or facade argument) failed validation."""


#: Accepted ``CompileConfig.cache`` policies.
#:
#: * ``"shared"`` — the process-wide :func:`repro.runtime.default_cache`;
#: * ``"private"`` — a fresh :class:`~repro.runtime.ModuleCache` per
#:   facade call (stages still dedupe within the call);
#: * ``"none"`` — no memoization: compile directly from source.
CACHE_POLICIES = ("shared", "private", "none")


#: The optimization levels: each level's pass names, in pipeline order.
#: :func:`repro.opt.pipelines.pipeline_passes` builds the passes from these
#: names; validating and keying a config reads only this table, so neither
#: imports a pass module (a disk-warm program hit runs no pass).
OPT_LEVELS = {
    "O0": (),
    "O1": ("dce", "flatten", "peephole", "deadlocals"),
    "O2": ("dce", "flatten", "coalesce", "copyprop", "constfold", "peephole", "deadlocals", "deadfuncs"),
}


@dataclass(frozen=True)
class CompileConfig:
    """Configuration for :func:`repro.api.compile` / :func:`repro.api.serve`.

    Construct with keywords, then :meth:`validate` (the facade validates for
    you).  Instances are immutable; derive variants with :meth:`replace`.
    """

    #: Named optimization level — a key of :data:`OPT_LEVELS`
    #: (``"O0"``/``"O1"``/``"O2"``; ``1`` and ``"o1"`` normalize).
    opt_level: str = "O0"
    #: Execution-engine *name* (``"flat"``/``"tree"``/``"compiled"``);
    #: ``None`` = default.
    #: An :class:`~repro.wasm.engine.ExecutionEngine` instance normalizes to
    #: its registry name — configs record preferences, not live engines.
    engine: Optional[str] = None
    #: Initial linear-memory size of the lowered module, in 64 KiB pages.
    memory_pages: int = 4
    #: Cache policy — one of :data:`CACHE_POLICIES`.
    cache: str = "shared"
    #: Default step budget for instances built from this config
    #: (``None`` = unlimited); per-request budgets still override.
    max_steps: Optional[int] = None
    #: ``InstancePool`` size used by :func:`repro.api.serve`.
    pool_size: int = 4
    #: Re-check cross-module import/export agreement before linking.  Safe to
    #: disable when the sources came from an already-checked ``Program``.
    check_links: bool = True
    #: Name given to the statically linked module.
    link_name: str = "linked"
    #: Worker-process count for :func:`repro.api.serve`.  ``1`` (default)
    #: serves in-process (:class:`~repro.api.Service`); ``>1`` builds a
    #: :class:`repro.cluster.ClusterService` dispatching over that many
    #: worker processes.
    workers: int = 1
    #: Cache-root directory for the durable artifact tier
    #: (:class:`repro.cluster.DiskCache`).  ``None`` = memory-only caching;
    #: a path makes every compile warm-startable by other processes sharing
    #: the directory (lookup order: memory → disk → compile).
    cache_dir: Optional[str] = None
    #: Byte budget for the disk tier (mtime-LRU eviction); ``None`` =
    #: unbounded.  Ignored without :attr:`cache_dir`.
    disk_cache_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        level = self.opt_level
        if isinstance(level, int) and not isinstance(level, bool):
            level = f"O{level}"
        elif isinstance(level, str):
            level = level.strip().upper()
        object.__setattr__(self, "opt_level", level)

        engine = self.engine
        if engine is not None and not isinstance(engine, str):
            name = getattr(engine, "name", None)
            if isinstance(name, str):
                object.__setattr__(self, "engine", name)

        # Path-like cache directories normalize to their string form so
        # configs stay hashable/comparable by value.
        cache_dir = self.cache_dir
        if cache_dir is not None and not isinstance(cache_dir, str):
            fspath = getattr(cache_dir, "__fspath__", None)
            if callable(fspath):
                object.__setattr__(self, "cache_dir", fspath())

    # -- validation --------------------------------------------------------

    def validate(self) -> "CompileConfig":
        """Check every field, returning ``self`` for chaining.

        Raises :class:`ConfigError` with a message naming the alternatives
        for the named fields (opt levels, engines, cache policies).
        """

        from ..wasm.engine import available_engines

        if self.opt_level not in OPT_LEVELS:
            raise ConfigError(
                f"unknown opt level {self.opt_level!r}; levels: {', '.join(OPT_LEVELS)}"
            )
        if self.engine is not None and self.engine not in available_engines():
            raise ConfigError(
                f"unknown execution engine {self.engine!r}; registered engines: "
                f"{', '.join(available_engines())}"
            )
        if not self._is_int(self.memory_pages) or self.memory_pages < 1:
            raise ConfigError(f"memory_pages must be a positive int, got {self.memory_pages!r}")
        if self.cache not in CACHE_POLICIES:
            raise ConfigError(
                f"unknown cache policy {self.cache!r}; expected one of: {', '.join(CACHE_POLICIES)}"
            )
        if self.max_steps is not None and (not self._is_int(self.max_steps) or self.max_steps < 1):
            raise ConfigError(f"max_steps must be a positive int or None, got {self.max_steps!r}")
        if not self._is_int(self.pool_size) or self.pool_size < 1:
            raise ConfigError(f"pool_size must be a positive int, got {self.pool_size!r}")
        if not self._is_int(self.workers) or self.workers < 1:
            raise ConfigError(f"workers must be a positive int, got {self.workers!r}")
        if self.cache_dir is not None and (not isinstance(self.cache_dir, str) or not self.cache_dir):
            raise ConfigError(
                f"cache_dir must be a non-empty path string or None, got {self.cache_dir!r}"
            )
        if self.disk_cache_bytes is not None and (
            not self._is_int(self.disk_cache_bytes) or self.disk_cache_bytes < 1
        ):
            raise ConfigError(
                f"disk_cache_bytes must be a positive int or None, got {self.disk_cache_bytes!r}"
            )
        if not isinstance(self.link_name, str) or not self.link_name:
            raise ConfigError(f"link_name must be a non-empty string, got {self.link_name!r}")
        if not isinstance(self.check_links, bool):
            raise ConfigError(f"check_links must be a bool, got {self.check_links!r}")
        return self

    @staticmethod
    def _is_int(value: object) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    # -- derived views -----------------------------------------------------

    @property
    def optimize(self) -> bool:
        """Whether this config runs any optimization passes."""

        return self.opt_level != "O0"

    def passes(self):
        """The pass pipeline for :attr:`opt_level` (``None`` for ``O0``)."""

        if self.opt_level == "O0":
            return None
        from ..opt.pipelines import pipeline_passes

        return pipeline_passes(self.opt_level)

    def pass_names(self) -> tuple[str, ...]:
        """The pipeline's pass names, in order (empty for ``O0``)."""

        return OPT_LEVELS[self.opt_level]

    def content_key(self) -> str:
        """The canonical content hash of the compile-relevant fields.

        Covers ``opt_level`` (expanded to its pass names, so a level whose
        passes change changes the key), ``memory_pages`` and ``link_name`` —
        nothing else.  ``engine``, ``cache``, ``max_steps``, ``pool_size``,
        ``workers``, ``cache_dir``/``disk_cache_bytes`` and ``check_links``
        do not change the compiled artifact and therefore do not
        change the key (so disk entries are shared across worker counts and
        cache locations).  :class:`repro.runtime.ModuleCache` combines this
        digest with the source module's own content hash to key its stages.
        """

        from ..runtime.cache import content_key

        return content_key(
            "CompileConfig", self.opt_level, self.pass_names(), self.memory_pages, self.link_name
        )

    # -- construction ------------------------------------------------------

    def replace(self, **overrides) -> "CompileConfig":
        """A validated copy with ``overrides`` applied."""

        return dataclasses.replace(self, **overrides).validate()

    @classmethod
    def of(cls, config: Union["CompileConfig", str, int, dict, None] = None, **overrides) -> "CompileConfig":
        """Coerce ``config`` (+ field overrides) into a validated config.

        Accepts ``None`` (defaults), an existing :class:`CompileConfig`, a
        bare opt level (``"O2"`` / ``2``), or a field dict.
        """

        if config is None:
            built = cls(**overrides)
        elif isinstance(config, cls):
            built = dataclasses.replace(config, **overrides) if overrides else config
        elif isinstance(config, (str, int)) and not isinstance(config, bool):
            built = cls(opt_level=config, **overrides)
        elif isinstance(config, dict):
            built = cls(**{**config, **overrides})
        else:
            raise ConfigError(
                f"cannot build a CompileConfig from {type(config).__name__}; "
                "pass a CompileConfig, an opt level name, a field dict, or None"
            )
        return built.validate()
