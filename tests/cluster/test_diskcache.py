"""DiskCache durability contract: atomicity, corruption tolerance, LRU,
version stamping, and the cross-process warm start through ModuleCache."""

import json
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from repro import api
from repro.api import CompileConfig
from repro.cluster import DISK_FORMAT, DiskCache
from repro.ffi import counter_program
from repro.obs import Tracer, use_tracer
from repro.runtime import ModuleCache
from repro.wasm.ast import WasmFunction

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


class TestRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.put("lower", "k" * 64, {"payload": [1, 2, 3]})
        assert cache.get("lower", "k" * 64) == {"payload": [1, 2, 3]}
        stats = cache.stats["disk.lower"]
        assert (stats.hits, stats.misses, stats.evictions) == (1, 0, 0)

    def test_absent_key_is_a_miss_without_eviction(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.get("lower", "absent" * 11) is None
        stats = cache.stats["disk.lower"]
        assert (stats.hits, stats.misses, stats.evictions) == (0, 1, 0)

    def test_entries_and_total_bytes(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("link", "a" * 64, b"x" * 100)
        cache.put("lower", "b" * 64, b"y" * 100)
        entries = cache.entries()
        assert {entry.stage for entry in entries} == {"link", "lower"}
        assert cache.total_bytes() == sum(entry.size for entry in entries) > 0

    def test_clear_removes_entries_and_resets_stats(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("link", "a" * 64, 1)
        cache.get("link", "a" * 64)
        cache.clear()
        assert cache.entries() == []
        assert cache.stats["disk.link"].hits == 0


class TestConcurrency:
    def test_concurrent_writers_same_key_never_corrupt(self, tmp_path):
        # Many threads race to publish the same key; every interleaving must
        # leave a complete, readable entry (temp file + os.replace).
        cache = DiskCache(tmp_path)
        key = "c" * 64
        payload = list(range(2000))
        errors = []

        def writer():
            try:
                for _ in range(20):
                    assert cache.put("program", key, payload)
            except Exception as exc:  # pragma: no cover - the failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cache.get("program", key) == payload
        # No leftover temp files from the races.
        assert not list(tmp_path.rglob("*.tmp"))


class TestCorruption:
    def _entry_path(self, cache, stage, key):
        cache.put(stage, key, "seed")
        (entry,) = cache.entries()
        return entry.path

    def test_truncated_entry_is_miss_and_evicted(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = self._entry_path(cache, "lower", "t" * 64)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get("lower", "t" * 64) is None
        assert not path.exists()
        stats = cache.stats["disk.lower"]
        assert stats.misses == 1 and stats.evictions == 1

    def test_garbage_bytes_are_miss_and_evicted(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = self._entry_path(cache, "lower", "g" * 64)
        path.write_bytes(b"not a pickle at all")
        assert cache.get("lower", "g" * 64) is None
        assert not path.exists()

    def test_unpicklable_payload_put_returns_false(self, tmp_path):
        cache = DiskCache(tmp_path)
        assert cache.put("lower", "u" * 64, lambda: None) is False
        assert cache.entries() == []

    def test_format_version_mismatch_is_miss_and_evicted(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = self._entry_path(cache, "lower", "v" * 64)
        stale = {"format": DISK_FORMAT + 1, "stage": "lower", "key": "v" * 64, "payload": 1}
        path.write_bytes(pickle.dumps(stale))
        assert cache.get("lower", "v" * 64) is None
        assert not path.exists()

    def test_format_1_unit_entry_is_a_miss_and_rewritten(self, tmp_path):
        # Format 1 filed per-function units in a layout later formats
        # changed; an entry stamped 1 under a live stage is never read, and
        # a fresh put replaces it under the current stamp.
        assert DISK_FORMAT > 1
        cache = DiskCache(tmp_path)
        key = "o" * 64
        path = self._entry_path(cache, "lower", key)
        old = {"format": 1, "stage": "lower", "key": key, "payload": ("fn", 3)}
        path.write_bytes(pickle.dumps(old))
        assert cache.get("lower", key) is None
        assert not path.exists()
        assert cache.put("lower", key, ("fn", (3, 0)))
        assert pickle.loads(path.read_bytes())["format"] == DISK_FORMAT
        assert cache.get("lower", key) == ("fn", (3, 0))
        stats = cache.stats["disk.lower"]
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)

    def test_format_2_translate_unit_is_a_miss_and_rewritten(self, tmp_path):
        # Format 2 translate units carried two-arm step chunks under keys
        # that hash the function rather than the emitter, so only the stamp
        # kept them from resurfacing; the same holds for any live stage.
        assert DISK_FORMAT > 2
        cache = DiskCache(tmp_path)
        key = "x" * 64
        path = self._entry_path(cache, "program", key)
        old = {"format": 2, "stage": "program", "key": key, "payload": (0, "two arms", "register")}
        path.write_bytes(pickle.dumps(old))
        assert cache.get("program", key) is None
        assert not path.exists()
        assert cache.put("program", key, (0, "one arm", "register"))
        assert pickle.loads(path.read_bytes())["format"] == DISK_FORMAT
        assert cache.get("program", key) == (0, "one arm", "register")
        stats = cache.stats["disk.program"]
        assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)

    def test_format_3_translate_unit_is_a_miss_and_evicted(self, tmp_path):
        # Format 3 entries predate the full-width flag on decoded integer
        # stores, under unchanged keys, so only the stamp keeps an old disk
        # tier from serving them.
        assert DISK_FORMAT > 3
        cache = DiskCache(tmp_path)
        key = "y" * 64
        path = self._entry_path(cache, "program", key)
        old = {"format": 3, "stage": "program", "key": key, "payload": (0, "slot moves", "register")}
        path.write_bytes(pickle.dumps(old))
        assert cache.get("program", key) is None
        assert not path.exists()
        stats = cache.stats["disk.program"]
        assert (stats.hits, stats.misses, stats.evictions) == (0, 1, 1)

        # Format 4 filed the lowered module twice (``lower`` and ``program``)
        # and its flat code apart (``decode``) under the program key; the
        # ``program`` entry now holds both.  Old entries under a real key
        # are misses and are evicted, and the compile files a fresh one.
        assert DISK_FORMAT > 4
        config = CompileConfig(cache="private")
        richwasm = ModuleCache().link(counter_program().modules())
        key = ModuleCache().program_key(richwasm, config)
        for stage in ("lower", "decode", "program"):
            path = cache._path(stage, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pickle.dumps({"format": 4, "stage": stage, "key": key, "payload": 1}))
        for stage in ("lower", "decode"):
            assert cache.get(stage, key) is None
            assert not cache._path(stage, key).exists()
            assert cache.stats[f"disk.{stage}"].evictions == 1
        warm = ModuleCache(disk=cache)
        program = api.compile(counter_program().modules(), config, cache=warm)
        assert program.key == key
        assert program.diagnostics.cache["program"] == "miss"
        stats = cache.stats["disk.program"]
        assert (stats.hits, stats.misses, stats.evictions) == (0, 2, 2)
        assert pickle.loads(cache._path("program", key).read_bytes())["format"] == DISK_FORMAT

    def test_stage_or_key_mismatch_is_miss_and_evicted(self, tmp_path):
        # A well-formed entry filed under the wrong name (e.g. a collision
        # or a renamed directory) must not be served.
        cache = DiskCache(tmp_path)
        path = self._entry_path(cache, "lower", "w" * 64)
        impostor = {"format": DISK_FORMAT, "stage": "link", "key": "w" * 64, "payload": 1}
        path.write_bytes(pickle.dumps(impostor))
        assert cache.get("lower", "w" * 64) is None
        assert not path.exists()


class TestEviction:
    def test_lru_evicts_oldest_mtime_first(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=10_000_000)  # no eviction yet
        cache.put("lower", "a" * 64, b"x" * 400)
        cache.put("lower", "b" * 64, b"x" * 400)
        cache.put("lower", "c" * 64, b"x" * 400)
        # Age the entries deterministically: a oldest, c newest ...
        now = time.time()
        for index, key in enumerate(("a", "b", "c")):
            path = cache._path("lower", key * 64)
            os.utime(path, (now - 300 + index * 100, now - 300 + index * 100))
        # ... then touch a via a read: it becomes most-recently-used.
        assert cache.get("lower", "a" * 64) is not None
        per_entry = cache.total_bytes() // 3
        cache.max_bytes = per_entry * 2 + 10
        cache._evict_over_budget()
        kept = {entry.key for entry in cache.entries()}
        assert kept == {"a" * 64, "c" * 64}  # b had the oldest clock
        assert cache.stats["disk.lower"].evictions == 1

    def test_budget_enforced_on_put(self, tmp_path):
        cache = DiskCache(tmp_path, max_bytes=1)
        cache.put("lower", "a" * 64, b"x" * 400)
        cache.put("lower", "b" * 64, b"x" * 400)
        assert len(cache.entries()) <= 1

    def test_rejects_non_positive_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            DiskCache(tmp_path, max_bytes=0)


class TestModuleCacheTiering:
    def test_lower_misses_memory_then_hits_disk(self, tmp_path):
        modules = counter_program().modules()
        first = ModuleCache(disk=DiskCache(tmp_path))
        api.compile(modules, CompileConfig(cache="private"), cache=first)
        assert first.disk.stats["disk.program"].misses >= 1
        # One entry per artifact: the link and the program.  The linked
        # module carries its structural digest, so no fingerprint ``key``
        # entry is written.
        assert sorted(entry.stage for entry in first.disk.entries()) == ["link", "program"]

        # A second ModuleCache over the same directory models a fresh
        # process: its memory tier is empty, the disk tier is warm.
        second = ModuleCache(disk=DiskCache(tmp_path))
        api.compile(modules, CompileConfig(cache="private"), cache=second)
        assert second.disk.stats["disk.program"].hits == 1
        assert second.stats["program"].hits == 1

    def test_disk_warm_hit_decodes_and_translates_inside_the_stages(self, tmp_path):
        config = CompileConfig(opt_level="O1", engine="compiled", cache="private")
        api.compile(counter_program(), config, cache=ModuleCache(disk=DiskCache(tmp_path)))
        with use_tracer(Tracer()) as tracer:
            warm = api.compile(counter_program(), config, cache=ModuleCache(disk=DiskCache(tmp_path)))
        diag = warm.diagnostics
        assert diag.cache["program"] == "hit"
        # The flat code filed with the program is adopted, not decoded.
        assert diag.cache["decode"] == "hit" and "decode" not in diag.units
        defined = sum(isinstance(f, WasmFunction) for f in warm.wasm.functions)
        assert diag.units["translate"] == {"reused": 0, "compiled": defined}
        spans = tracer.drain()
        (translate,) = [span for span in spans if span.name == "compile.translate"]
        assert translate.attrs["source_chars"] > 0
        # The lookup (fingerprint, key and program reads) has its own span.
        assert [span.name for span in spans].count("compile.program") == 1

    def test_subprocess_warm_start_hits_disk_stages(self, tmp_path):
        # The real thing: a genuinely cold process (no fork inheritance)
        # compiling against the warm directory must hit the disk tier and
        # report the compile as cached.
        script = """
import json, sys
sys.path.insert(0, {src!r})
from repro import api
from repro.ffi import counter_program
compiled = api.compile(counter_program(), {{"cache_dir": {cache_dir!r}}})
diag = compiled.diagnostics
print(json.dumps({{"program": diag.cache["program"]}}))
""".format(src=os.path.abspath(REPO_SRC), cache_dir=str(tmp_path))
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        assert runs[0]["program"] == "miss"
        assert runs[1]["program"] == "hit"
