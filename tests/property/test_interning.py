"""Property tests for the hash-consing layer (PR 5 tentpole).

Interning is only allowed to change *performance*, never meaning.  These
tests pit the interned fast paths against their structural definitions over
randomly generated types:

* construction canonicalization — rebuilding a term node-by-node returns the
  same object; a twin built with interning disabled is a distinct object that
  is still ``==``, hashes identically, and digests identically;
* equality — identity-fast ``types_equal`` agrees with the structural oracle
  (``structural_types_equal``), including the size-normalization semantics
  (``32 + σ`` ≡ ``σ + 32``) and mixed interned/non-interned inputs;
* shift/substitution — the free-variable-summary short-circuits produce
  results structurally identical to the full walks on non-interned twins;
* content digests — stable across processes (subprocess round-trip of the
  runtime cache's ``content_key``).
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core.syntax import (
    LIN,
    UNR,
    ArrayHT,
    ExHT,
    LocVar,
    QualVar,
    SizeConst,
    SizePlus,
    SizeVar,
    StructHT,
    VariantHT,
    canonical,
    free_levels,
    i32,
    interning_disabled,
    is_interned,
    lin_loc,
    size_structurally_equal,
    structural_digest,
    unr_loc,
)
from repro.core.syntax import intern
from repro.core.syntax.types import (
    ArrowType,
    CapT,
    CodeRefT,
    ExLocT,
    FunType,
    LocQuant,
    OwnT,
    ProdT,
    PtrT,
    QualQuant,
    RecT,
    RefT,
    Privilege,
    Shift,
    SizeQuant,
    Subst,
    Type,
    TypeQuant,
    UnitT,
    VarT,
    shift_type,
    subst_type,
)
from repro.core.typing.equality import structural_types_equal, types_equal

REPO_ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------------
# Generators (seeded type/term strategies over the full binder vocabulary)
# ---------------------------------------------------------------------------

quals = st.sampled_from([UNR, LIN, QualVar(0), QualVar(1)])
locs = st.sampled_from([lin_loc(0), unr_loc(1), LocVar(0), LocVar(1), LocVar(2)])
privileges = st.sampled_from([Privilege.RW, Privilege.R])


@st.composite
def size_exprs(draw, max_depth=3):
    if max_depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return SizeConst(draw(st.sampled_from([0, 1, 32, 64])))
        return SizeVar(draw(st.integers(0, 2)))
    return SizePlus(
        draw(size_exprs(max_depth=max_depth - 1)),
        draw(size_exprs(max_depth=max_depth - 1)),
    )


@st.composite
def quantifier_lists(draw, depth=0):
    """A quantifier telescope (the binder prefix of a ``FunType``)."""

    quants = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            quants.append(LocQuant())
        elif kind == 1:
            quants.append(
                SizeQuant(
                    tuple(draw(st.lists(size_exprs(max_depth=1), max_size=2))),
                    tuple(draw(st.lists(size_exprs(max_depth=1), max_size=2))),
                )
            )
        elif kind == 2:
            quants.append(
                QualQuant(
                    tuple(draw(st.lists(quals, max_size=2))),
                    tuple(draw(st.lists(quals, max_size=2))),
                )
            )
        else:
            quants.append(
                TypeQuant(draw(quals), draw(size_exprs(max_depth=1)), draw(st.booleans()))
            )
    return tuple(quants)


@st.composite
def fun_types(draw, depth=1):
    """A possibly-polymorphic function type — exercises the telescope
    free-level rule (``_funtype_levels``), the trickiest summary."""

    params = draw(st.lists(rich_types(depth=depth), max_size=2))
    results = draw(st.lists(rich_types(depth=depth), max_size=2))
    return FunType(draw(quantifier_lists()), ArrowType(tuple(params), tuple(results)))


@st.composite
def rich_types(draw, depth=3):
    qual = draw(quals)
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return Type(UnitT(), qual)
        if choice == 1:
            return Type(VarT(draw(st.integers(0, 2))), qual)
        return Type(PtrT(draw(locs)), qual)
    choice = draw(st.integers(0, 7))
    if choice == 0:
        components = draw(st.lists(rich_types(depth=depth - 1), min_size=1, max_size=3))
        return Type(ProdT(tuple(components)), qual)
    if choice == 1:
        return Type(RefT(draw(privileges), draw(locs), draw(heap_types(depth=depth - 1))), qual)
    if choice == 2:
        return Type(CapT(draw(privileges), draw(locs), draw(heap_types(depth=depth - 1))), qual)
    if choice == 3:
        return Type(OwnT(draw(locs)), qual)
    if choice == 4:
        return Type(RecT(draw(quals), draw(rich_types(depth=depth - 1))), qual)
    if choice == 5:
        return Type(ExLocT(draw(rich_types(depth=depth - 1))), qual)
    if choice == 6:
        return Type(CodeRefT(draw(fun_types(depth=depth - 1))), qual)
    return draw(rich_types(depth=0))


@st.composite
def heap_types(draw, depth=1):
    choice = draw(st.integers(0, 3))
    if choice == 0:
        cases = draw(st.lists(rich_types(depth=depth), min_size=1, max_size=3))
        return VariantHT(tuple(cases))
    if choice == 1:
        fields = draw(
            st.lists(
                st.tuples(rich_types(depth=depth), size_exprs(max_depth=2)),
                min_size=1,
                max_size=3,
            )
        )
        return StructHT(tuple(fields))
    if choice == 2:
        return ArrayHT(draw(rich_types(depth=depth)))
    return ExHT(draw(quals), draw(size_exprs(max_depth=2)), draw(rich_types(depth=depth)))


def rebuild(value):
    """Reconstruct a term node by node through the public constructors."""

    if type(value) in intern._REGISTERED:
        return type(value)(
            *[rebuild(getattr(value, f.name)) for f in dataclasses.fields(value)]
        )
    if type(value) is tuple:
        return tuple(rebuild(item) for item in value)
    return value


# ---------------------------------------------------------------------------
# Construction canonicalization
# ---------------------------------------------------------------------------


class TestInterningCanonicalization:
    @given(rich_types())
    @settings(max_examples=100)
    def test_rebuilding_returns_the_same_object(self, ty):
        assert is_interned(ty)
        assert rebuild(ty) is ty

    @given(rich_types())
    @settings(max_examples=100)
    def test_disabled_twin_is_distinct_but_structurally_identical(self, ty):
        with interning_disabled():
            twin = rebuild(ty)
        assert twin is not ty
        assert not is_interned(twin)
        assert twin == ty and ty == twin
        assert hash(twin) == hash(ty)
        assert structural_digest(twin) == structural_digest(ty)

    @given(rich_types())
    @settings(max_examples=60)
    def test_pickle_roundtrip_reinterns(self, ty):
        import copy
        import pickle

        assert pickle.loads(pickle.dumps(ty)) is ty
        assert copy.deepcopy(ty) is ty


# ---------------------------------------------------------------------------
# Equality vs the structural oracle
# ---------------------------------------------------------------------------


def _swap_first_plus(size):
    """Commute the outermost ``+`` (the size-normalization test vector)."""

    if isinstance(size, SizePlus):
        return SizePlus(size.right, size.left)
    return size


class TestEqualityAgainstOracle:
    @given(rich_types(), rich_types())
    @settings(max_examples=150)
    def test_types_equal_matches_structural_oracle(self, a, b):
        assert types_equal(a, b) == structural_types_equal(a, b)
        assert types_equal(a, a) and types_equal(b, b)

    @given(rich_types())
    @settings(max_examples=100)
    def test_mixed_interned_and_twin_inputs_agree(self, ty):
        with interning_disabled():
            twin = rebuild(ty)
        assert types_equal(ty, twin) and types_equal(twin, ty)

    @given(size_exprs(), size_exprs())
    @settings(max_examples=150)
    def test_size_equality_is_canonical_identity(self, a, b):
        assert size_structurally_equal(a, b) == (canonical(a) is canonical(b))

    @given(size_exprs())
    @settings(max_examples=100)
    def test_commuted_sums_stay_equal(self, size):
        swapped = _swap_first_plus(size)
        assert size_structurally_equal(size, swapped)
        assert canonical(size) is canonical(swapped)

    @given(rich_types(), size_exprs())
    @settings(max_examples=100)
    def test_commuted_struct_field_sizes_stay_types_equal(self, element, size):
        a = Type(RefT(Privilege.RW, lin_loc(0), StructHT(((element, size),))), LIN)
        b = Type(
            RefT(Privilege.RW, lin_loc(0), StructHT(((element, _swap_first_plus(size)),))),
            LIN,
        )
        assert types_equal(a, b)
        assert structural_types_equal(a, b)


# ---------------------------------------------------------------------------
# Shift / substitution short-circuits vs the full walks
# ---------------------------------------------------------------------------

shifts = st.builds(
    Shift,
    locs=st.integers(0, 2),
    sizes=st.integers(0, 2),
    quals=st.integers(0, 2),
    types=st.integers(0, 2),
)


class TestShiftSubstAgainstFullWalk:
    @given(rich_types(), shifts)
    @settings(max_examples=150)
    def test_shift_agrees_with_uninterned_walk(self, ty, shift):
        with interning_disabled():
            twin = rebuild(ty)
            expected = shift_type(twin, shift)
        assert shift_type(ty, shift) == expected

    @given(rich_types(), st.integers(0, 2), rich_types())
    @settings(max_examples=100)
    def test_subst_agrees_with_uninterned_walk(self, ty, index, replacement):
        # Compared up to size normalization: the full walk constant-folds
        # sums as a rebuild side effect (``size_plus``), while a skipped
        # no-op substitution keeps the original term — the same contract as
        # the pre-existing ``subst.is_empty()`` early return.
        subst = Subst(types={index: replacement.pretype}, locs={0: lin_loc(7)})
        with interning_disabled():
            twin = rebuild(ty)
            twin_subst = Subst(types={index: rebuild(replacement.pretype)}, locs={0: lin_loc(7)})
            expected = subst_type(twin, twin_subst)
        assert structural_types_equal(subst_type(ty, subst), expected)

    @given(rich_types())
    @settings(max_examples=100)
    def test_closed_terms_shift_to_themselves(self, ty):
        if free_levels(ty) == (0, 0, 0, 0):
            assert shift_type(ty, Shift(locs=3, sizes=3, quals=3, types=3)) is ty


class TestFunTypeTelescopes:
    """The quantifier-telescope free-level rule (``_funtype_levels``) is the
    most intricate summary — pit it against the full walks directly."""

    @given(fun_types(), shifts)
    @settings(max_examples=150)
    def test_funtype_shift_agrees_with_uninterned_walk(self, ft, shift):
        from repro.core.syntax.types import shift_funtype

        with interning_disabled():
            twin = rebuild(ft)
            expected = shift_funtype(twin, shift)
        assert shift_funtype(ft, shift) == expected

    @given(fun_types(), st.integers(0, 2), rich_types(depth=1))
    @settings(max_examples=100)
    def test_funtype_subst_agrees_with_uninterned_walk(self, ft, index, replacement):
        # Up to size normalization, as in test_subst_agrees_with_uninterned_walk.
        from repro.core.syntax.types import subst_funtype
        from repro.core.typing.equality import structural_funtypes_equal

        subst = Subst(
            types={index: replacement.pretype},
            sizes={0: SizeConst(8)},
            quals={1: LIN},
            locs={0: lin_loc(9)},
        )
        with interning_disabled():
            twin = rebuild(ft)
            twin_subst = Subst(
                types={index: rebuild(replacement.pretype)},
                sizes={0: SizeConst(8)},
                quals={1: LIN},
                locs={0: lin_loc(9)},
            )
            expected = subst_funtype(twin, twin_subst)
        assert structural_funtypes_equal(subst_funtype(ft, subst), expected)

    @given(fun_types(), fun_types())
    @settings(max_examples=100)
    def test_funtype_equality_matches_structural_oracle(self, a, b):
        from repro.core.typing.equality import funtypes_equal, structural_funtypes_equal

        assert funtypes_equal(a, b) == structural_funtypes_equal(a, b)
        assert funtypes_equal(a, a) and funtypes_equal(b, b)


# ---------------------------------------------------------------------------
# Digest stability across processes
# ---------------------------------------------------------------------------

_CORPUS_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {benchmarks!r})
from workload_builders import synthetic_module
from repro.api import CompileConfig
from repro.runtime.cache import content_key
from repro.core.syntax import LIN, SizeConst, SizePlus, SizeVar, StructHT, Type, RefT, lin_loc, i32
from repro.core.syntax.types import Privilege

ty = Type(RefT(Privilege.RW, lin_loc(3), StructHT(((i32(), SizePlus(SizeConst(32), SizeVar(0))),))), LIN)
key = content_key(
    "stability-probe",
    synthetic_module(7),
    ty,
    CompileConfig(opt_level="O2", memory_pages=8).content_key(),
)
print(key)
"""


def _corpus_script() -> str:
    return _CORPUS_SCRIPT.format(
        src=str(REPO_ROOT / "src"), benchmarks=str(REPO_ROOT / "benchmarks")
    )


class TestDigestStability:
    def test_content_keys_identical_across_fresh_processes(self):
        """Two fresh interpreters digest the same corpus to the same key —
        the keyspace carries no ``id()``/``hash()`` leakage."""

        runs = [
            subprocess.run(
                [sys.executable, "-c", _corpus_script()],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert len(runs[0]) == 64 and int(runs[0], 16) >= 0

    def test_in_process_key_matches_subprocess_key(self):
        namespace: dict = {}
        exec(compile(_corpus_script(), "<stability-probe>", "exec"), namespace)
        sub = subprocess.run(
            [sys.executable, "-c", _corpus_script()],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert namespace["key"] == sub


# ---------------------------------------------------------------------------
# Golden digest table
# ---------------------------------------------------------------------------


def _golden_corpus() -> dict:
    from repro.opt.manager import PassStats
    from repro.wasm.ast import (
        Const,
        Cvtop,
        LocalGet,
        LocalSet,
        ValType,
        WasmFuncType,
        WasmFunction,
        WBlock,
        WBr,
        WIf,
        WLoop,
        WNop,
    )

    void = WasmFuncType((), ())
    return {
        "none": None,
        "true": True,
        "false": False,
        "int_zero": 0,
        "int_small": 7,
        "int_negative": -5,
        "int_huge": 2**100,
        "str_empty": "",
        "str": "abc",
        "str_unicode": "λx",
        "bytes": b"\x00\x01rw",
        "float_zero": 0.0,
        "float_negzero": -0.0,
        "float_inf": float("inf"),
        "float_neginf": float("-inf"),
        "float": 1.5,
        "tuple": (1, "a", None),
        "list": [1, "a", None],
        "dict": {"b": 2, 1: "a"},
        "set": {3, 1, 2},
        "frozenset": frozenset({"x", "y"}),
        "enum": ValType.F32,
        "frozen_dataclass": Const(ValType.I64, -1),
        "zero_field_dataclass": WNop(),
        "mutable_dataclass": PassStats("coalesce", runs=2, rewrites=3, seconds=0.25),
        "interned_type": Type(
            RefT(Privilege.RW, lin_loc(3), StructHT(((i32(), SizePlus(SizeConst(32), SizeVar(0))),))),
            LIN,
        ),
        "wasm_function": WasmFunction(
            WasmFuncType((ValType.I32,), (ValType.I64,)),
            (ValType.I64, ValType.F64),
            (
                LocalGet(0),
                Cvtop(ValType.I64, "extend_u", ValType.I32),
                LocalSet(1),
                WBlock(void, (WLoop(void, (WBr(1),)),)),
                WIf(WasmFuncType((), (ValType.I64,)), (LocalGet(1),), (Const(ValType.I64, 0),)),
            ),
            "f",
            ("f",),
        ),
        "repr_fallback": range(0, 3),
        "nan": _f64_bits(0x7FF8000000000000),
        "nan_negative": _f64_bits(0xFFF8000000000000),
        "nan_payload": _f64_bits(0x7FF8000000000001),
    }


def _f64_bits(bits: int) -> float:
    import struct

    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Hex digests of :func:`_golden_corpus`.  Every row but the NaN ones
#: equals what the original incremental-``sha256`` digester produced (which
#: hashed every NaN as ``repr`` ``'nan'``, one digest for all payloads).
GOLDEN_DIGESTS = {
    "none": "1b16b1df538ba12dc3f97edbb85caa7050d46c148134290feba80f8236c83db9",
    "true": "7dc96f776c8423e57a2785489a3f9c43fb6e756876d6ad9a9cac4aa4e72ec193",
    "false": "c02c0b965e023abee808f2b548d8d5193a8b5229be6f3121a6f16e2d41a449b3",
    "int_zero": "a4e167a76a05add8a8654c169b07b0447a916035aef602df103e8ae0fe2ff390",
    "int_small": "5a39f9a9c7598d32872c704ba30a672f2c3ebbfd6acc9c7e1d00c58b719bbad2",
    "int_negative": "108542b6e063c1cbe1acf8ded2932545857e144f0fa835829796c5f82cdbee00",
    "int_huge": "ed6f55746c5bd372cd4a48bac1e8d54407e0cad086bf0085e3405eea6596300e",
    "str_empty": "043a718774c572bd8a25adbeb1bfcd5c0256ae11cecf9f9c3f925d0e52beaf89",
    "str": "cf0bbce2b0833f47b48155c56a549459af12f1724088f0246d837ec199eb787a",
    "str_unicode": "e493af0544d5d6dadb873d6b64bc616df1e003b9cf89d6eddacae463a5dc13cd",
    "bytes": "77895d05d966d0eed6de816eca3df0372514bceb6bb5fa405e3333758b7dbce1",
    "float_zero": "96f3536282c892cac88e699dfb30925a699f629488b97edba62ed0517cd59553",
    "float_negzero": "055e19d77121037fb4ec1c417e26fd666471ed639d4cf1accb45b16c0048ffd1",
    "float_inf": "bd3b7f73c5d9e7209722864367242e563e0c220bf8b58ed1852c1e8e03f88688",
    "float_neginf": "cbe88a4a5d120dfcfd863483e900c414bd6e2ca4be7e7e4d58b76c049ea937c4",
    "float": "d6bae662acdfab6752f1572f4944f0307b1977b955642f14989eb577e1b9949a",
    "tuple": "f5baff191a544bd87b31911bc956f6cf0e4ddd2f574d8e35e2a335216f183651",
    "list": "f5baff191a544bd87b31911bc956f6cf0e4ddd2f574d8e35e2a335216f183651",
    "dict": "7e1cf6a700d0bf76bd27e9f8b9cc1232fb49d851444817a343a5bef130bd4b96",
    "set": "4e2171255d14c638789d0cadb49b7e62754be6090945d95823a619a5edf027dc",
    "frozenset": "5621c703e8c88a55d79c0a0ee8d6e9d1222bc0ed85ad84ff261fc0a4bf770a7f",
    "enum": "a1b80268d61fb2f2fdd40c23f9f1f8dfa15ed668267fe1a1b2dea3574edf5bb0",
    "frozen_dataclass": "b92b8ea073ace1baa53372169d79728554bbf0d268711e85c7b8ec544bd523eb",
    "zero_field_dataclass": "ab7b0e89c4bc20765c8d71c2ecb8876108d17cd357c9be9e51c455065abbc5d2",
    "mutable_dataclass": "d84ecb9cf26dd0384cdc3afe69db282c34945cf36ff836461d58ebdb6d874d22",
    "interned_type": "f3863b4b7500d3a2f719e4d2edf7cb798630950c209563e9ea8f3899194fc0ad",
    "wasm_function": "ba01ea24823eb6fee8fabc5aa4214b0b4e7dad3c3f9019eee1b9be584cfc0361",
    "repr_fallback": "e37a8019056eaf5aaaac48bef275a6ba3f49dbfa54d377c681f5f17bc4b67c7f",
    "nan": "bbd9815298445df715d921cb45b92d48bab6db169a75d8ef07569734e193a2d9",
    "nan_negative": "bb6533977fbfc53b60c60adde557dc4e5d55153849e28649f7f2da7538fcb01d",
    "nan_payload": "938fa7c333b54e006fe5616f2badc97144cf9e93e5c3aa2a53f5f7a97bfd4bab",
}


class TestGoldenDigests:
    def test_corpus_digests_are_pinned(self):
        corpus = _golden_corpus()
        assert sorted(corpus) == sorted(GOLDEN_DIGESTS)
        actual = {name: structural_digest(value).hex() for name, value in corpus.items()}
        assert actual == GOLDEN_DIGESTS

    def test_cached_digests_match_fresh_ones(self):
        """A second digest of the same objects (now hitting the per-node
        caches and leaf memos) returns the pinned values again."""

        corpus = _golden_corpus()
        for value in corpus.values():
            structural_digest(value)
        assert {name: structural_digest(value).hex() for name, value in corpus.items()} == GOLDEN_DIGESTS

    def test_nans_digest_by_bits(self):
        patterns = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                    0x7FF8000000000002, 0x7FF0000000000001)
        digests = {structural_digest(_f64_bits(bits)) for bits in patterns}
        assert len(digests) == len(patterns)
        assert structural_digest(_f64_bits(patterns[2])) == structural_digest(_f64_bits(patterns[2]))

    def test_leaf_memos_stay_at_their_cap(self):
        import hashlib

        count = intern.LEAF_MEMO_CAP + 100
        ints = [10**30 + n for n in range(count)]
        strs = [f"leaf-memo-probe-{n}" for n in range(count)]
        for _ in range(2):
            for value in ints:
                assert structural_digest(value) == hashlib.sha256(b"i" + repr(value).encode()).digest()
            for value in strs:
                assert structural_digest(value) == hashlib.sha256(b"s" + value.encode()).digest()
        assert len(intern._INT_DIGESTS) == intern.LEAF_MEMO_CAP
        assert len(intern._STR_DIGESTS) == intern.LEAF_MEMO_CAP
