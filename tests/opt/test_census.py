"""The local-access census against the passes' own body scans.

Coalescing, copy propagation, the peephole pass and dead-local pruning read
one :func:`repro.opt.rewrite.local_census` per function version instead of
each walking the body.  The oracle here is the scanning code they had
before, kept verbatim (``_qualify`` included): over seeded random bodies
with nested ``block``/``loop``/``if``, tees, bank locals written at mixed
types and unreferenced locals, every pass must return the same function and
the same rewrite count as its scanning twin.

Also pinned: :func:`repro.opt.rewrite.map_sequences` keeps unchanged blocks
(by identity), and re-running the O2 function segment on an optimized
function is a no-op returning the same object.
"""

import random
from dataclasses import replace
from typing import Optional

import pytest

from repro.opt import (
    CopyPropagationPass,
    LocalCoalescingPass,
    PeepholePass,
    UnusedLocalPass,
    default_passes,
    split_segments,
)
from repro.opt.manager import FunctionPassSegment
from repro.opt.rewrite import local_census, map_sequences
from repro.wasm import (
    Const,
    Cvtop,
    GlobalGet,
    LocalGet,
    LocalSet,
    LocalTee,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmModule,
    WBlock,
    WBr,
    WBrIf,
    WDrop,
    WIf,
    WLoop,
    WNop,
)

I32, I64, F32, F64 = ValType.I32, ValType.I64, ValType.F32, ValType.F64
VOID = WasmFuncType((), ())
EMPTY_MODULE = WasmModule(functions=())


# ---------------------------------------------------------------------------
# The oracle: the passes' body scans before the census
# ---------------------------------------------------------------------------


def _oracle_map_sequences(body, rewriter):
    rebuilt = []
    for instr in body:
        if isinstance(instr, (WBlock, WLoop)):
            rebuilt.append(replace(instr, body=_oracle_map_sequences(instr.body, rewriter)))
        elif isinstance(instr, WIf):
            rebuilt.append(
                replace(
                    instr,
                    then_body=_oracle_map_sequences(instr.then_body, rewriter),
                    else_body=_oracle_map_sequences(instr.else_body, rewriter),
                )
            )
        else:
            rebuilt.append(instr)
    return rewriter(tuple(rebuilt))


def _oracle_iter_sequences(body):
    for instr in body:
        if isinstance(instr, (WBlock, WLoop)):
            yield from _oracle_iter_sequences(instr.body)
        elif isinstance(instr, WIf):
            yield from _oracle_iter_sequences(instr.then_body)
            yield from _oracle_iter_sequences(instr.else_body)
    yield tuple(body)


def _oracle_remap_locals(body, mapping):
    def rewrite(seq):
        out = []
        for instr in seq:
            if isinstance(instr, (LocalGet, LocalSet, LocalTee)):
                out.append(type(instr)(mapping[instr.index]))
            else:
                out.append(instr)
        return tuple(out)

    return _oracle_map_sequences(body, rewrite)


_WRITE_CONVS = {
    I32: (Cvtop(I64, "extend_u", I32),),
    F32: (Cvtop(I32, "reinterpret", F32), Cvtop(I64, "extend_u", I32)),
    F64: (Cvtop(I64, "reinterpret", F64),),
}
_READ_CONVS = {
    I32: (Cvtop(I32, "wrap", I64),),
    F32: (Cvtop(I32, "wrap", I64), Cvtop(F32, "reinterpret", I32)),
    F64: (Cvtop(F64, "reinterpret", I64),),
}
_CANDIDATES = (F32, F64, I32)


class OracleCoalescing(LocalCoalescingPass):
    def run(self, function, module):
        param_count = len(function.functype.params)
        coalesced = {}
        for offset, valtype in enumerate(function.locals):
            if valtype is not I64:
                continue
            index = param_count + offset
            chosen = self._qualify(function, index)
            if chosen is not None:
                coalesced[index] = chosen
        if not coalesced:
            return function, 0

        rewrites = 0

        def rewrite(seq):
            nonlocal rewrites
            out = []
            i = 0
            while i < len(seq):
                instr = seq[i]
                target = self._write_target(seq, i, coalesced)
                if target is not None:
                    convs = len(_WRITE_CONVS[coalesced[target]])
                    out.append(seq[i + convs])
                    rewrites += convs
                    i += convs + 1
                    continue
                out.append(instr)
                if isinstance(instr, LocalGet) and instr.index in coalesced:
                    convs = len(_READ_CONVS[coalesced[instr.index]])
                    rewrites += convs
                    i += convs
                i += 1
            return tuple(out)

        body = _oracle_map_sequences(function.body, rewrite)
        locals_ = tuple(
            coalesced.get(param_count + offset, valtype) for offset, valtype in enumerate(function.locals)
        )
        if rewrites == 0:
            return function, 0
        return replace(function, locals=locals_, body=body), rewrites

    @staticmethod
    def _qualify(function, index) -> Optional[ValType]:
        for candidate in _CANDIDATES:
            write = _WRITE_CONVS[candidate]
            read = _READ_CONVS[candidate]
            sites = 0
            ok = True
            for seq in _oracle_iter_sequences(function.body):
                for position, instr in enumerate(seq):
                    if isinstance(instr, LocalTee) and instr.index == index:
                        ok = False
                    elif isinstance(instr, LocalSet) and instr.index == index:
                        sites += 1
                        if tuple(seq[position - len(write) : position]) != write or position < len(write):
                            ok = False
                    elif isinstance(instr, LocalGet) and instr.index == index:
                        sites += 1
                        if tuple(seq[position + 1 : position + 1 + len(read)]) != read:
                            ok = False
                    if not ok:
                        break
                if not ok:
                    break
            if ok and sites:
                return candidate
        return None


def _local_type(function, index):
    params = function.functype.params
    if index < len(params):
        return params[index]
    return function.locals[index - len(params)]


class OracleCopyPropagation(CopyPropagationPass):
    def run(self, function, module):
        writes = {}
        for seq in _oracle_iter_sequences(function.body):
            for instr in seq:
                if isinstance(instr, (LocalSet, LocalTee)):
                    writes[instr.index] = writes.get(instr.index, 0) + 1

        forwarded = {}
        reads_seen = set()
        kept = []
        for instr in function.body:
            if (
                isinstance(instr, LocalSet)
                and kept
                and isinstance(kept[-1], LocalGet)
                and instr.index != kept[-1].index
                and writes.get(instr.index, 0) == 1
                and writes.get(kept[-1].index, 0) == 0
                and instr.index not in reads_seen
                and instr.index not in forwarded
                and kept[-1].index not in forwarded
                and _local_type(function, instr.index) is _local_type(function, kept[-1].index)
            ):
                forwarded[instr.index] = kept.pop().index
                continue
            kept.append(instr)
            for seq in _oracle_iter_sequences((instr,)):
                for nested in seq:
                    if isinstance(nested, LocalGet):
                        reads_seen.add(nested.index)

        if not forwarded:
            return function, 0

        rewrites = len(forwarded)

        def redirect(seq):
            nonlocal rewrites
            out = []
            for instr in seq:
                if isinstance(instr, LocalGet) and instr.index in forwarded:
                    rewrites += 1
                    out.append(LocalGet(forwarded[instr.index]))
                else:
                    out.append(instr)
            return tuple(out)

        return replace(function, body=_oracle_map_sequences(tuple(kept), redirect)), rewrites


class OraclePeephole(PeepholePass):
    def run(self, function, module):
        rewrites = 0
        reads = {}
        for seq in _oracle_iter_sequences(function.body):
            for instr in seq:
                if isinstance(instr, LocalGet):
                    reads[instr.index] = reads.get(instr.index, 0) + 1

        def simplify(seq):
            nonlocal rewrites
            out = []
            for instr in seq:
                replacement = self._match(out, instr, reads)
                if replacement is not None:
                    rewrites += 1
                    out.extend(replacement)
                else:
                    out.append(instr)
            return tuple(out)

        body = _oracle_map_sequences(function.body, simplify)
        if rewrites == 0:
            return function, 0
        return replace(function, body=body), rewrites


class OracleUnusedLocals(UnusedLocalPass):
    def run(self, function, module):
        rewrites = 0
        param_count = len(function.functype.params)

        read = set()
        for seq in _oracle_iter_sequences(function.body):
            for instr in seq:
                if isinstance(instr, LocalGet):
                    read.add(instr.index)

        def kill_dead_stores(seq):
            nonlocal rewrites
            out = []
            for instr in seq:
                if isinstance(instr, LocalSet) and instr.index not in read:
                    rewrites += 1
                    out.append(WDrop())
                elif isinstance(instr, LocalTee) and instr.index not in read:
                    rewrites += 1
                else:
                    out.append(instr)
            return tuple(out)

        body = _oracle_map_sequences(function.body, kill_dead_stores)

        referenced = set()
        for seq in _oracle_iter_sequences(body):
            for instr in seq:
                if isinstance(instr, (LocalGet, LocalSet, LocalTee)):
                    referenced.add(instr.index)

        mapping = {index: index for index in range(param_count)}
        kept_locals = []
        for offset, valtype in enumerate(function.locals):
            index = param_count + offset
            if index in referenced:
                mapping[index] = param_count + len(kept_locals)
                kept_locals.append(valtype)
            else:
                rewrites += 1
        if len(kept_locals) != len(function.locals):
            body = _oracle_remap_locals(body, mapping)

        if rewrites == 0:
            return function, 0
        return replace(function, locals=tuple(kept_locals), body=body), rewrites


PAIRS = [
    (LocalCoalescingPass(), OracleCoalescing()),
    (CopyPropagationPass(), OracleCopyPropagation()),
    (PeepholePass(), OraclePeephole()),
    (UnusedLocalPass(), OracleUnusedLocals()),
]


# ---------------------------------------------------------------------------
# A seeded generator of local-heavy Wasm bodies
# ---------------------------------------------------------------------------


class BodyGen:
    """Random bodies in the shape the lowering emits: bank locals written
    and read through (sometimes the wrong) conversions, prologue copies,
    spill/reload shuffles, tees, and nested control."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        rng = self.rng
        self.params = tuple(rng.choice((I32, I64, F64)) for _ in range(rng.randint(0, 2)))
        banks = tuple(rng.choice((I64, I64, I64, I32, F64)) for _ in range(rng.randint(1, 7)))
        # Prologue copy targets: one same-typed local per copied parameter.
        copied = [param for param in range(len(self.params)) if rng.random() < 0.7]
        self.locals = banks + tuple(self.params[param] for param in copied)
        self.count = len(self.params) + len(self.locals)
        self.copies = {
            param: len(self.params) + len(banks) + position for position, param in enumerate(copied)
        }
        # A bank local mostly keeps one stored type; some get mixed types.
        self.bank_type = {index: rng.choice(_CANDIDATES) for index in range(self.count)}

    def function(self) -> WasmFunction:
        prologue = ()
        for param, target in self.copies.items():
            prologue += (LocalGet(param), LocalSet(target))
        body = prologue + self.sequence(depth=0, length=self.rng.randint(2, 9))
        return WasmFunction(WasmFuncType(self.params, ()), self.locals, body)

    def local(self) -> int:
        """A local to write: copy targets and parameters only rarely."""

        index = self.rng.randrange(self.count)
        while self.rng.random() < 0.85 and (index in self.copies.values() or index < len(self.params)):
            index = self.rng.randrange(self.count)
        return index

    def read_local(self) -> int:
        return self.rng.randrange(self.count)

    def stored_type(self, index: int) -> ValType:
        if self.rng.random() < 0.15:
            return self.rng.choice(_CANDIDATES)
        return self.bank_type[index]

    def producer(self):
        rng = self.rng
        choice = rng.random()
        if choice < 0.5:
            return Const(rng.choice((I32, I64, F64)), rng.randint(0, 3))
        if choice < 0.8:
            return LocalGet(self.read_local())
        return GlobalGet(0)

    def statement(self, depth: int) -> tuple:
        rng = self.rng
        kind = rng.randrange(13 if depth < 3 else 10)
        index = self.local()
        if kind == 0:  # bank write
            valtype = self.stored_type(index)
            convs = _WRITE_CONVS[valtype] if rng.random() < 0.9 else _WRITE_CONVS[valtype][-1:]
            return (Const(valtype, 1),) + convs + (LocalSet(index),)
        if kind == 1:  # bank read
            index = self.read_local()
            valtype = self.stored_type(index)
            convs = _READ_CONVS[valtype] if rng.random() < 0.9 else _READ_CONVS[valtype][:1]
            return (LocalGet(index),) + convs + (WDrop(),)
        if kind == 2:
            return (Const(I64, 2), LocalTee(index), WDrop())
        if kind == 3:  # set/get round trip
            return (self.producer(), LocalSet(index), LocalGet(index), WDrop())
        if kind == 4:  # spill/reload swap or identity restore
            a, b = index, self.local()
            if rng.random() < 0.5:
                tail = (LocalGet(a), LocalGet(b))
            else:
                tail = (LocalGet(b), LocalGet(a))
            return (self.producer(), self.producer(), LocalSet(a), LocalSet(b)) + tail + (WDrop(), WDrop())
        if kind == 5:
            return (LocalGet(self.read_local()), LocalSet(index))
        if kind == 6:
            return (WNop(),)
        if kind == 7:
            return (self.producer(), WDrop())
        if kind == 8:
            return (Const(I32, 0), WBrIf(0))
        if kind == 9:
            return (LocalGet(self.read_local()), Cvtop(I64, "extend_u", I32), Cvtop(I32, "wrap", I64), WDrop())
        inner = self.sequence(depth + 1, rng.randint(0, 4))
        if kind == 10:
            return (WBlock(VOID, inner + (WBr(0),) * rng.randint(0, 1)),)
        if kind == 11:
            return (WLoop(VOID, inner),)
        other = self.sequence(depth + 1, rng.randint(0, 3))
        return (Const(I32, rng.randint(0, 1)), WIf(VOID, inner, other))

    def sequence(self, depth: int, length: int) -> tuple:
        out = ()
        for _ in range(length):
            out += self.statement(depth)
        return out


SEEDS = range(400)
CHUNKS = [SEEDS[start : start + 50] for start in range(0, len(SEEDS), 50)]


class TestCensusAgainstScans:
    @pytest.mark.parametrize("seeds", CHUNKS)
    def test_each_pass_matches_its_scanning_twin(self, seeds):
        for seed in seeds:
            function = BodyGen(seed).function()
            for census_pass, oracle in PAIRS:
                # Fresh twins, so no census memo leaks from one pass to the next.
                ours = census_pass.run(replace(function), EMPTY_MODULE)
                theirs = oracle.run(replace(function), EMPTY_MODULE)
                assert ours == theirs, (seed, census_pass.name)

    @pytest.mark.parametrize("seeds", CHUNKS)
    def test_chained_passes_match_their_scanning_twins(self, seeds):
        """The passes in pipeline order, each fed the previous output: an
        unchanged function hands its memoized census to the next pass."""

        for seed in seeds:
            ours = theirs = BodyGen(seed).function()
            for _ in range(2):
                for census_pass, oracle in PAIRS:
                    ours, count = census_pass.run(ours, EMPTY_MODULE)
                    theirs, oracle_count = oracle.run(theirs, EMPTY_MODULE)
                    assert (ours, count) == (theirs, oracle_count), (seed, census_pass.name)

    def test_generator_exercises_every_pass(self):
        fired = {census_pass.name: 0 for census_pass, _ in PAIRS}
        for seed in SEEDS:
            function = BodyGen(seed).function()
            for census_pass, _ in PAIRS:
                fired[census_pass.name] += bool(census_pass.run(function, EMPTY_MODULE)[1])
        assert all(count >= 20 for count in fired.values()), fired

    def test_census_is_memoized_per_function_version(self):
        function = BodyGen(1).function()
        assert local_census(function) is local_census(function)
        assert local_census(replace(function)) is not local_census(function)


# ---------------------------------------------------------------------------
# Unchanged blocks survive rewrites
# ---------------------------------------------------------------------------


def _o2_segment() -> FunctionPassSegment:
    (segment, _deadfuncs) = split_segments(default_passes())
    return segment


class TestKeepUnchangedBlocks:
    def test_identity_rewriter_returns_the_same_blocks(self):
        function = BodyGen(7).function()
        assert any(isinstance(instr, (WBlock, WLoop, WIf)) for instr in function.body)
        body = map_sequences(function.body, lambda seq: tuple(list(seq)))
        assert body is function.body
        for ours, original in zip(body, function.body):
            assert ours is original

    def test_rewrite_keeps_blocks_it_does_not_touch(self):
        untouched = WBlock(VOID, (LocalGet(0), WDrop(), WBr(0)))
        touched = WLoop(VOID, (WNop(), LocalGet(0), WDrop()))
        body = map_sequences(
            (untouched, touched),
            lambda seq: tuple(instr for instr in seq if not isinstance(instr, WNop)),
        )
        assert body[0] is untouched
        assert body[1] == WLoop(VOID, (LocalGet(0), WDrop()))

    @pytest.mark.parametrize("seed", range(0, 400, 20))
    def test_segment_rerun_on_optimized_function_is_a_no_op(self, seed):
        segment = _o2_segment()
        function = BodyGen(seed).function()
        for _ in range(8):
            rewritten, counts = segment.run(function, EMPTY_MODULE)
            if not any(counts):
                break
            function = rewritten
        again, counts = segment.run(function, EMPTY_MODULE)
        assert again is function
        assert counts == (0,) * len(segment.passes)

    def test_segment_rerun_on_a_lowered_program_is_a_no_op(self):
        from workload_builders import synthetic_module

        from repro import api
        from repro.api import CompileConfig
        from repro.opt import optimize_module
        from repro.runtime import ModuleCache

        config = CompileConfig(opt_level="O2")
        optimized = api.compile(synthetic_module(1, functions=20), config, cache=ModuleCache()).wasm
        segment = _o2_segment()
        for function in optimized.functions:
            if isinstance(function, WasmFunction):
                again, counts = segment.run(function, optimized)
                assert again is function and not any(counts)
        assert optimize_module(optimized).module.functions == optimized.functions
