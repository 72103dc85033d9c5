"""Where structural digests are memoized.

Only interned type nodes and the objects the caches key — functions,
global declarations and modules — keep an ``_hc_digest`` memo.
Instructions are digested as part of their function and keep none, neither
in memory nor in the disk entries they are pickled into.
"""

import dataclasses
import typing

import pytest

from repro import api
from repro.api import CompileConfig
from repro.cluster import DiskCache
from repro.core.syntax import Function, Module
from repro.core.syntax.instructions import Instr
from repro.core.syntax.intern import interning_disabled, structural_digest
from repro.runtime import ModuleCache
from repro.wasm.ast import WasmFunction, WasmModule, WInstr
from workload_builders import mixed_sources

MEMO = "_hc_digest"
INSTRUCTIONS = frozenset(typing.get_args(Instr)) | frozenset(typing.get_args(WInstr))
KEYED = (Function, Module, WasmFunction, WasmModule)


def _nodes(root):
    """Every dataclass node reachable from ``root``, each once, with whether
    it sits inside another instruction."""

    seen, stack = set(), [(root, False)]
    while stack:
        obj, nested = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (tuple, list)):
            stack.extend((item, nested) for item in obj)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            yield obj, nested
            inner = nested or type(obj) in INSTRUCTIONS
            stack.extend((getattr(obj, f.name), inner) for f in dataclasses.fields(obj))


def _fresh(obj):
    """A copy of ``obj`` that shares no node and carries no memo."""

    if isinstance(obj, tuple):
        return tuple(_fresh(item) for item in obj)
    if isinstance(obj, list):
        return [_fresh(item) for item in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return type(obj)(**{f.name: _fresh(getattr(obj, f.name)) for f in dataclasses.fields(obj)})
    return obj


def _memo_free_digest(obj) -> bytes:
    with interning_disabled():
        copy = _fresh(obj)
    assert MEMO not in copy.__dict__
    return structural_digest(copy)


def _check(root):
    """No instruction under ``root`` carries a memo; every function and
    module that does carries its true digest.  Returns the counts."""

    instructions = nested = keyed = 0
    for node, inside in _nodes(root):
        if type(node) in INSTRUCTIONS:
            instructions += 1
            nested += inside
            assert MEMO not in node.__dict__, f"{type(node).__name__} carries a digest memo"
        elif isinstance(node, KEYED) and MEMO in node.__dict__:
            keyed += 1
            assert node.__dict__[MEMO] == _memo_free_digest(node), type(node).__name__
    return instructions, nested, keyed


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """A cold compile into a disk cache, a warm one through a fresh
    :class:`ModuleCache` over the same directory, and the directory."""

    cache_dir = tmp_path_factory.mktemp("digest-memos")
    config = CompileConfig(opt_level="O2", engine="compiled")
    cold = api.compile(mixed_sources(6), config, cache=ModuleCache(disk=DiskCache(cache_dir)))
    warm = api.compile(mixed_sources(6), config, cache=ModuleCache(disk=DiskCache(cache_dir)))
    assert cold.diagnostics.cache["program"] == "miss"
    assert warm.diagnostics.cache["link"] == warm.diagnostics.cache["program"] == "hit"
    return cold, warm, cache_dir


@pytest.mark.parametrize("which", ["cold", "warm"])
def test_linked_and_optimized_modules_memoize_per_function_only(compiled, which):
    program = compiled[0] if which == "cold" else compiled[1]
    for root, functions in (
        (program.richwasm, [f for f in program.richwasm.functions if isinstance(f, Function)]),
        (program.wasm, [f for f in program.wasm.functions if isinstance(f, WasmFunction)]),
    ):
        instructions, nested, _ = _check(root)
        assert instructions and nested, "the census must reach nested bodies"
        assert functions and all(MEMO in f.__dict__ for f in functions)
    assert MEMO in program.richwasm.__dict__  # keyed by the program key
    structural_digest(program.wasm)
    assert program.wasm.__dict__[MEMO] == _memo_free_digest(program.wasm)


def test_disk_entries_carry_no_instruction_memos(compiled):
    disk = DiskCache(compiled[2])
    entries = {entry.stage: disk.get(entry.stage, entry.key) for entry in disk.entries()}
    lowered, _flat = entries["program"]
    linked = entries["link"]
    for root in (lowered.wasm, linked):
        instructions, nested, keyed = _check(root)
        assert instructions and nested and keyed
    assert all(MEMO in f.__dict__ for f in lowered.wasm.functions if isinstance(f, WasmFunction))
    assert all(MEMO in f.__dict__ for f in linked.functions if isinstance(f, Function))
    assert linked.__dict__[MEMO] == _memo_free_digest(linked)
