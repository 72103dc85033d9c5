"""The code-currency contract of ``WasmInstance.funcs``.

Engines cache code derived from an instance's function slots (the flat
VM's decode, the compiled tier's translation).  ``funcs`` is a
:class:`~repro.wasm.FuncList` whose ``version`` moves on every mutation, so
an unchanged instance is checked in O(1) per external invoke; a patched slot
takes effect at the next external invoke, calls already running keep their
code, and a pool reset brings the original code back.

The pooled tests run on the default engine, so the every-engine CI lane
(``REPRO_WASM_ENGINE=tree|flat|compiled``) covers all three.
"""

import pytest

from repro.runtime import BatchRunner, InstancePool, Session
from repro.wasm import (
    CodeSnapshot,
    Const,
    FuncList,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmImportedFunction,
    WasmInterpreter,
    WasmModule,
    WCall,
    validate_module,
)

I32 = ValType.I32
FT = WasmFuncType

# (description, mutation) pairs covering every mutating list method.
MUTATIONS = [
    ("item assignment", lambda funcs: funcs.__setitem__(0, "x")),
    ("slice assignment", lambda funcs: funcs.__setitem__(slice(0, 1), ["x"])),
    ("del item", lambda funcs: funcs.__delitem__(0)),
    ("del slice", lambda funcs: funcs.__delitem__(slice(0, 2))),
    ("append", lambda funcs: funcs.append("x")),
    ("extend", lambda funcs: funcs.extend(["x"])),
    ("insert", lambda funcs: funcs.insert(0, "x")),
    ("pop", lambda funcs: funcs.pop()),
    ("remove", lambda funcs: funcs.remove("b")),
    ("clear", lambda funcs: funcs.clear()),
    ("sort", lambda funcs: funcs.sort()),
    ("reverse", lambda funcs: funcs.reverse()),
    ("+=", lambda funcs: funcs.__iadd__(["x"])),
    ("*=", lambda funcs: funcs.__imul__(2)),
]


def constant(value, exports=("main",)):
    return WasmFunction(FT((), (I32,)), (), (Const(I32, value),), exports=exports)


def constant_module():
    module = WasmModule(functions=(constant(1),))
    validate_module(module)
    return module


def patching_module():
    """``main`` calls the host import ``env.patch``, then returns 1."""

    imported = WasmImportedFunction(FT((), ()), "env", "patch")
    main = WasmFunction(FT((), (I32,)), (), (WCall(0), Const(I32, 1)), exports=("main",))
    module = WasmModule(functions=(imported, main))
    validate_module(module)
    return module


class TestFuncList:
    @pytest.mark.parametrize("name, mutate", MUTATIONS, ids=[name for name, _ in MUTATIONS])
    def test_every_mutating_method_bumps_the_version(self, name, mutate):
        funcs = FuncList(["a", "b", "c"])
        before = funcs.version
        mutate(funcs)
        assert funcs.version > before, name

    def test_augmented_assignment_keeps_the_list(self):
        funcs = FuncList(["a"])
        alias = funcs
        funcs += ["b"]
        funcs *= 2
        assert funcs is alias and funcs == ["a", "b", "a", "b"]

    def test_reads_leave_the_version_alone(self):
        funcs = FuncList(["a", "b"])
        before = funcs.version
        assert funcs[0] == "a" and funcs[:1] == ["a"] and len(funcs) == 2
        assert list(funcs) == ["a", "b"] and funcs.index("b") == 1 and funcs.count("a") == 1
        assert funcs.version == before

    def test_instance_converts_a_plain_list(self):
        interp = WasmInterpreter()
        instance = interp.instantiate(constant_module())
        assert type(instance.funcs) is FuncList
        rebuilt = type(instance)(module=instance.module, funcs=list(instance.funcs))
        assert type(rebuilt.funcs) is FuncList and rebuilt.funcs == instance.funcs

    def test_snapshot_adopts_a_version_when_the_slots_still_match(self):
        funcs = FuncList(["a", "b"])
        snapshot = CodeSnapshot(funcs)
        funcs[:] = ["a", "b"]  # same objects, new version
        assert snapshot.is_current(funcs)
        assert snapshot.version == funcs.version
        funcs[0] = "a2"
        assert not snapshot.is_current(funcs)


class TestPatchedSlots:
    def test_slot_patched_before_a_request(self):
        pool = InstancePool(constant_module())
        entry = pool.acquire()
        entry.instance.funcs[0] = constant(2)
        assert entry.invoke("main") == [2]
        pool.release(entry)

    def test_slot_patched_between_calls_of_one_request(self):
        pool = InstancePool(constant_module())
        with pool.instance() as entry:
            assert entry.invoke("main") == [1]
            entry.instance.funcs[0] = constant(2)
            assert entry.invoke("main") == [2]
            entry.instance.funcs[0] = constant(3)
            assert entry.invoke("main") == [3]

    def test_slot_patched_inside_a_call_takes_effect_at_the_next_invoke(self):
        holder = {}

        def patch():
            holder["instance"].funcs[1] = constant(2)
            return []

        pool = InstancePool(
            patching_module(),
            host_imports=lambda: {("env", "patch"): patch},
            setup=lambda interp, instance: holder.__setitem__("instance", instance),
        )
        with pool.instance() as entry:
            # The running call keeps its own code; the patch lands next time.
            assert entry.invoke("main") == [1]
            assert entry.invoke("main") == [2]

    def test_reset_restores_the_image_and_the_original_code(self):
        pool = InstancePool(constant_module())
        entry = pool.acquire()
        original = tuple(entry.instance.funcs)
        entry.instance.funcs[0] = constant(2)
        assert entry.invoke("main") == [2]
        pool.release(entry)

        recycled = pool.acquire()
        assert recycled is entry
        assert all(now is then for now, then in zip(recycled.instance.funcs, original))
        assert recycled.invoke("main") == [1]
        pool.release(recycled)

    def test_clean_request_does_not_restore_the_slots(self):
        pool = InstancePool(constant_module())
        entry = pool.acquire()
        version = entry.instance.funcs.version
        assert entry.invoke("main") == [1]
        pool.release(entry)
        assert pool.acquire().instance.funcs.version == version

    @pytest.mark.parametrize("engine", ["flat", "compiled"])
    def test_equal_but_distinct_replacement_is_recompiled(self, engine):
        interp = WasmInterpreter(engine=engine)
        instance = interp.instantiate(constant_module())
        assert interp.invoke(instance, "main") == [1]
        before = instance.compiled_py
        replacement = constant(1)
        assert replacement == instance.funcs[0] and replacement is not instance.funcs[0]
        instance.funcs[0] = replacement
        assert interp.invoke(instance, "main") == [1]
        assert instance.decoded_snapshot.funcs[0] is replacement
        if engine == "compiled":
            assert instance.compiled_py is not before
            assert instance.compiled_py.snapshot.funcs[0] is replacement

    def test_compiled_patch_runs_its_own_code_at_first_call(self):
        # The patched instance retranslates its own table: its slot starts
        # as a fresh stub and compiles the replacement at its first call,
        # while the module's shared unit keeps the original code for every
        # other instance.
        from repro.wasm.pygen import translate_module

        module = constant_module()
        interp = WasmInterpreter(engine="compiled")
        patched, other = interp.instantiate(module), interp.instantiate(module)
        assert interp.invoke(patched, "main") == [1]
        (shared,) = translate_module(module).functions
        original = shared.generated
        assert patched.compiled_py.targets[0] is original is not None
        patched.funcs[0] = constant(2)
        assert interp.invoke(patched, "main") == [2]
        assert patched.compiled_py.targets[0] not in (original, shared)
        assert shared.generated is original
        assert interp.invoke(other, "main") == [1]
        assert other.compiled_py.targets[0] is original
        assert interp.invoke(interp.instantiate(module), "main") == [1]


class TestFastPath:
    def test_unpatched_session_never_rescans(self, monkeypatch):
        rescans = []
        rescan = CodeSnapshot._rescan

        def counting(self, funcs):
            rescans.append(funcs.version)
            return rescan(self, funcs)

        monkeypatch.setattr(CodeSnapshot, "_rescan", counting)
        runner = BatchRunner(InstancePool(constant_module(), max_size=1))
        session = Session(calls=(("main", ()),) * 1000)
        for _ in range(2):  # the second session runs on the reset instance
            outcome = runner.run_one(session)
            assert outcome.ok and outcome.values == [[1]] * 1000
        assert rescans == []

    def test_host_slot_calls_straight_through(self):
        calls = []
        module = WasmModule(functions=(
            WasmImportedFunction(FT((), ()), "env", "ping", exports=("ping",)),
            WasmFunction(FT((), ()), (), (WCall(0),), exports=("main",)),
        ))
        validate_module(module)
        pool = InstancePool(module, host_imports={("env", "ping"): lambda: calls.append(1)})
        with pool.instance() as entry:
            assert entry.invoke("ping") == []
            assert entry.invoke("main") == []
        assert calls == [1, 1]
