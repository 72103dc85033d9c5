"""A persistent on-disk artifact cache: content key → pickled artifact.

:class:`DiskCache` is the durable tier under the in-memory
:class:`repro.runtime.ModuleCache`: compile artifacts are pickled under
their content keys in a cache-root directory, so a *different process* — a
freshly spawned cluster worker, a repeat CLI run — warm-starts from disk
instead of re-paying typecheck → lower → optimize.  The module cache writes
three stages: ``link`` (the linked module), ``key`` (a program-input
fingerprint → the program key) and one ``program`` entry per program key
(the lowered module with its flat decode).  The content keys are
deterministic across processes (structural digests, no ``id()``/``hash()``
leakage), so this sharing is sound: equal keys mean equal artifacts,
whichever process produced them.

Durability contract:

* **Atomic writes** — every entry is written to a same-directory temp file
  and published with :func:`os.replace`, so readers only ever observe a
  complete entry.  Two processes racing to write the same key both succeed;
  last-write-wins and both payloads are equivalent by construction (same
  key ⇒ same content).
* **Version stamp** — each entry embeds :data:`DISK_FORMAT` plus its stage
  and key; a mismatch (an old cache directory, a hash collision across
  stages) is a miss, and the stale entry is evicted.
* **Corruption tolerance** — a truncated, unreadable or unpicklable entry
  is *never* an error: it is treated as a miss, evicted, and recompiled.
  The cache is an accelerator; the compiler is always the fallback.
* **LRU eviction** — with a ``max_bytes`` budget, entries are evicted
  oldest-``mtime`` first after each write (reads touch the mtime, so the
  order is least-recently-*used*, not written).

Per-stage hit/miss/evict counts are kept in the same
:class:`~repro.runtime.cache.CacheStats` shape as the memory tier (stage
names prefixed ``disk.``) and mirror into the process-wide
``runtime.cache.events`` counter, so one obs report shows both tiers.
"""

from __future__ import annotations

import os
import pickle
import threading
from pathlib import Path
from typing import Optional, Union

from ..runtime.cache import CacheStats

__all__ = ["DISK_FORMAT", "DiskCache", "DiskEntry", "shared_disk_module_cache"]

#: Entry format version.  Bumped whenever the pickled payload layout (or
#: anything about how entries are interpreted) changes; a stamp mismatch is
#: a miss + eviction, never an attempt to read the old layout.  Formats 2
#: and 3 changed per-function unit entries, which nothing writes any more.
#: Format 4: decoded integer stores carry a full-width flag.  Format 5: one
#: ``program`` entry holds the lowered module and its flat decode (format 4
#: also wrote ``lower`` and ``decode`` entries under the same key).  Format
#: 6: a ``program`` entry is filed only after its module was validated, so a
#: warm start adopts it as valid (format 5 could hold an unvalidated one).
DISK_FORMAT = 6

_SUFFIX = ".pkl"


class DiskEntry:
    """One on-disk entry's metadata (introspection/eviction bookkeeping)."""

    __slots__ = ("stage", "key", "path", "size", "mtime")

    def __init__(self, stage: str, key: str, path: Path, size: int, mtime: float) -> None:
        self.stage = stage
        self.key = key
        self.path = path
        self.size = size
        self.mtime = mtime

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskEntry({self.stage}/{self.key[:12]}…, {self.size}B)"


class DiskCache:
    """Content-keyed pickle store under one cache-root directory.

    Safe for concurrent use by threads and processes: writes are atomic
    (temp file + ``os.replace``), reads tolerate entries vanishing mid-scan
    (another process's eviction), and a corrupt entry degrades to a miss.
    ``max_bytes`` bounds the total entry bytes with mtime-LRU eviction
    (``None`` = unbounded).

    Stage names are free-form directory names; the stages
    (``link``/``key``/``program``) are written by
    :class:`repro.runtime.ModuleCache`.
    """

    def __init__(self, root: Union[str, Path], *, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be a positive int or None, got {max_bytes!r}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        #: Per-stage :class:`CacheStats` under ``disk.<stage>`` names; the
        #: ``record`` path mirrors every event into ``runtime.cache.events``.
        self.stats: dict[str, CacheStats] = {}
        self._lock = threading.Lock()
        self._tmp_counter = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskCache({str(self.root)!r}, entries={len(self.entries())})"

    # -- stats -------------------------------------------------------------

    def _stats(self, stage: str) -> CacheStats:
        name = f"disk.{stage}"
        stats = self.stats.get(name)
        if stats is None:
            with self._lock:
                stats = self.stats.setdefault(name, CacheStats(name))
        return stats

    # -- paths -------------------------------------------------------------

    def _path(self, stage: str, key: str) -> Path:
        # Two-level fanout keeps directories small under large catalogues.
        return self.root / stage / key[:2] / (key + _SUFFIX)

    def _tmp_path(self, path: Path) -> Path:
        with self._lock:
            self._tmp_counter += 1
            counter = self._tmp_counter
        return path.with_name(f".{path.name}.{os.getpid()}.{counter}.tmp")

    # -- the store ---------------------------------------------------------

    def get(self, stage: str, key: str):
        """The payload filed under ``(stage, key)``, or ``None`` on a miss.

        Every failure mode of reading — missing file, truncated pickle,
        unpicklable payload, a foreign or version-mismatched stamp — is a
        miss; everything except "missing file" additionally evicts the bad
        entry.  A hit touches the entry's mtime (the LRU clock).
        """

        path = self._path(stage, key)
        stats = self._stats(stage)
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            stats.record("miss")
            return None
        except Exception:
            # Truncated write from a crashed process, disk corruption, an
            # artifact pickled by an incompatible code version — evict and
            # recompile rather than ever crash the caller.
            stats.record("miss")
            self._evict(path, stats)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("format") != DISK_FORMAT
            or entry.get("stage") != stage
            or entry.get("key") != key
        ):
            stats.record("miss")
            self._evict(path, stats)
            return None
        stats.record("hit")
        try:
            os.utime(path)
        except OSError:
            pass  # concurrently evicted; the payload in hand stays valid
        return entry["payload"]

    def put(self, stage: str, key: str, payload) -> bool:
        """File ``payload`` under ``(stage, key)``; ``True`` on success.

        The write is atomic (temp file + ``os.replace``) and failures —
        unpicklable payloads, a full or read-only disk — leave the cache
        unchanged and return ``False`` (the artifact still serves the
        in-memory tier; durability is best-effort).
        """

        path = self._path(stage, key)
        tmp = self._tmp_path(path)
        entry = {"format": DISK_FORMAT, "stage": stage, "key": key, "payload": payload}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        if self.max_bytes is not None:
            self._evict_over_budget()
        return True

    # -- eviction ----------------------------------------------------------

    def _evict(self, path: Path, stats: CacheStats) -> None:
        try:
            os.unlink(path)
        except OSError:
            return  # already gone (another process won the eviction race)
        stats.record("evict")

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used entries until total bytes fit the budget."""

        entries = self.entries()
        total = sum(entry.size for entry in entries)
        if total <= self.max_bytes:
            return
        for entry in sorted(entries, key=lambda e: e.mtime):
            self._evict(entry.path, self._stats(entry.stage))
            total -= entry.size
            if total <= self.max_bytes:
                return

    # -- introspection -----------------------------------------------------

    def entries(self) -> list[DiskEntry]:
        """Every entry currently on disk (races tolerated: a concurrently
        evicted file is simply absent from the listing)."""

        found: list[DiskEntry] = []
        try:
            stages = [p for p in self.root.iterdir() if p.is_dir()]
        except OSError:
            return found
        for stage_dir in stages:
            for path in stage_dir.glob(f"*/*{_SUFFIX}"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                found.append(
                    DiskEntry(stage_dir.name, path.stem, path, stat.st_size, stat.st_mtime)
                )
        return found

    def total_bytes(self) -> int:
        return sum(entry.size for entry in self.entries())

    def clear(self) -> None:
        """Remove every entry (the directory itself stays)."""

        for entry in self.entries():
            try:
                os.unlink(entry.path)
            except OSError:
                pass
        for stats in self.stats.values():
            stats.reset()


# ---------------------------------------------------------------------------
# the facade's "shared" policy over a cache directory
# ---------------------------------------------------------------------------

_SHARED_CACHES: dict[str, object] = {}
_SHARED_LOCK = threading.Lock()


def shared_disk_module_cache(cache_dir: Union[str, Path], *, max_bytes: Optional[int] = None):
    """The process-wide disk-backed :class:`~repro.runtime.ModuleCache` for
    ``cache_dir`` (one per resolved directory, like
    :func:`repro.runtime.default_cache` is one per process).

    Repeated facade calls under ``cache="shared"`` + the same ``cache_dir``
    share both tiers: the memory stores *and* the durable store.  A
    later call that supplies ``max_bytes`` retunes the existing store's
    budget rather than silently forking a second cache over the same
    directory.
    """

    from ..runtime.cache import ModuleCache

    key = os.path.realpath(os.fspath(cache_dir))
    with _SHARED_LOCK:
        cached = _SHARED_CACHES.get(key)
        if cached is None:
            cached = ModuleCache(disk=DiskCache(key, max_bytes=max_bytes))
            _SHARED_CACHES[key] = cached
        elif max_bytes is not None:
            cached.disk.max_bytes = max_bytes
        return cached
