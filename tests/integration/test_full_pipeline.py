"""Integration tests: the full pipeline from source languages to Wasm."""

import pytest

from repro.analysis import SafetyHarness
from repro.core.semantics import Interpreter
from repro.core.syntax import NumType, NumV, UnitV
from repro.core.typing import check_module
from repro.ffi import Program, counter_program, fig3_programs
from repro.ffi.link import link_modules
from repro.lower import lower_module
from repro.ml import (
    App,
    Assign,
    BinOp,
    Deref,
    IntLit,
    Lam,
    Let,
    MkRef,
    MLFunction,
    MLGlobal,
    Seq,
    TInt,
    TRef,
    TUnit,
    Var,
    compile_ml_module,
    ml_module,
)
from repro.l3 import (
    L3Function,
    LBang,
    LBangI,
    LBinOp,
    LFree,
    LInt,
    LLet,
    LLetPair,
    LNew,
    LSwap,
    LVar,
    compile_l3_module,
    l3_module,
)
from repro.wasm import WasmInterpreter, validate_module


class TestMLPipeline:
    """ML source → RichWasm → type check → interpret → lower → Wasm → run."""

    def build(self):
        return ml_module(
            "bank",
            globals=[MLGlobal("balance", TRef(TInt()), MkRef(IntLit(0)))],
            functions=[
                MLFunction("deposit", "x", TInt(), TInt(),
                           Seq(Assign(Var("balance"), BinOp("+", Deref(Var("balance")), Var("x"))),
                               Deref(Var("balance")))),
                MLFunction("with_bonus", "x", TInt(), TInt(),
                           Let("bonus", Lam("y", TInt(), BinOp("+", Var("y"), IntLit(10))),
                               App(Var("bonus"), App(Var("deposit"), Var("x"))))),
            ],
        )

    def test_full_pipeline_agreement(self):
        richwasm = compile_ml_module(self.build())
        check_module(richwasm)

        interp = Interpreter()
        idx = interp.instantiate(richwasm)
        rw1 = interp.invoke_export(idx, "deposit", [NumV(NumType.I32, 100)]).values[0].value
        rw2 = interp.invoke_export(idx, "with_bonus", [NumV(NumType.I32, 50)]).values[0].value

        lowered = lower_module(richwasm)
        validate_module(lowered.wasm)
        wi = WasmInterpreter()
        inst = wi.instantiate(lowered.wasm)
        wi.invoke(inst, "_init")
        w1 = wi.invoke(inst, "deposit", [100])[0]
        w2 = wi.invoke(inst, "with_bonus", [50])[0]
        assert (rw1, rw2) == (w1, w2) == (100, 160)


class TestL3Pipeline:
    def test_manual_memory_management_pipeline(self):
        module = l3_module("buf", functions=[
            L3Function("sum_two_cells", "x", LInt(), LInt(),
                       LLet("a", LNew(LVar("x")),
                            LLet("b", LNew(LIntLit := LBangI(LVar("x")) if False else LVar("x")),
                                 LBinOp("+", LFree(LVar("a")), LFree(LVar("b")))))),
        ])
        # NOTE: "x" is unrestricted (int), so using it twice is legal L3.
        richwasm = compile_l3_module(module)
        check_module(richwasm)
        interp = Interpreter()
        idx = interp.instantiate(richwasm)
        assert interp.invoke_export(idx, "sum_two_cells", [NumV(NumType.I32, 21)]).values[0].value == 42
        assert interp.store.stats()["linear_live"] == 0


class TestCrossLanguagePrograms:
    def test_counter_program_full_stack(self):
        """The Fig. 9 program: separate compilation, FFI check, both backends,
        and the empirical safety harness all agree."""

        scenario = counter_program()
        program = Program(scenario.modules())

        instance = program.instantiate()
        instance.invoke("client", "client_init", [NumV(NumType.I32, 0)])
        for _ in range(6):
            instance.invoke("client", "client_tick", [UnitV()])
        interp_total = instance.invoke("client", "client_total", [UnitV()])[0].value

        wasm = program.instantiate_wasm()
        wasm.invoke("client", "client_init", [0])
        for _ in range(6):
            wasm.invoke("client", "client_tick", [])
        wasm_total = wasm.invoke("client", "client_total", [])[0]

        assert interp_total == wasm_total == 6

        linked = link_modules(scenario.modules())
        harness = SafetyHarness()
        report = harness.run_module(linked, [
            ("client.client_init", [NumV(NumType.I32, 0)]),
            ("client.client_tick", [UnitV()]),
            ("client.client_total", [UnitV()]),
        ])
        assert report.ok

    def test_fig3_safe_program_leaves_no_garbage_unaccounted(self):
        _, safe = fig3_programs()
        program = Program(safe.modules())
        instance = program.instantiate()
        instance.invoke("client", "store", [NumV(NumType.I32, 9)])
        assert instance.invoke("client", "take", [UnitV()])[0].value == 9
        stats = instance.store_stats()
        # The linear cell allocated by the client was freed by take().
        assert stats["linear_freed"] >= 1
