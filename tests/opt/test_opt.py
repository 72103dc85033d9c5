"""Tests for the Wasm optimization subsystem (repro.opt)."""

import pytest

from repro import api
from repro.api import CompileConfig
from repro.ffi import Program, counter_program
from repro.l3 import compile_l3_module
from repro.lower import LoweredModule, lower_module
from repro.ml import compile_ml_module
from repro.opt import (
    BlockFlatteningPass,
    ConstantFoldingPass,
    CopyPropagationPass,
    DeadCodeEliminationPass,
    DeadFunctionPass,
    LocalCoalescingPass,
    OptimizationResult,
    PassManager,
    PeepholePass,
    UnusedLocalPass,
    optimize_module,
    run_differential,
)
from repro.wasm import (
    Binop,
    Const,
    Cvtop,
    LocalGet,
    LocalSet,
    LocalTee,
    ValType,
    WasmFuncType,
    WasmFunction,
    WasmInterpreter,
    WasmModule,
    WBlock,
    WBr,
    WDrop,
    WNop,
    WReturn,
    WUnreachable,
    count_instrs,
    validate_module,
)
from repro.wasm.interpreter import WasmTrap

from bench_pipelines import l3_workload, ml_workload


O2 = CompileConfig(opt_level="O2", cache="none")


def make_wasm(body, params=(), results=(ValType.I32,), locals=(), export="main"):
    function = WasmFunction(
        WasmFuncType(tuple(params), tuple(results)), tuple(locals), tuple(body), exports=(export,)
    )
    return WasmModule(functions=(function,))


def run(module, export="main", args=()):
    validate_module(module)
    interp = WasmInterpreter()
    instance = interp.instantiate(module)
    return interp.invoke(instance, export, list(args))


class TestPassManager:
    def test_named_ordered_and_rerunnable(self):
        module = make_wasm([Const(ValType.I32, 2), Const(ValType.I32, 3), Binop(ValType.I32, "add")])
        manager = PassManager()
        first = manager.run(module)
        second = manager.run(first.module)  # re-runnable, already at fixpoint
        assert [s.name for s in first.stats] == [
            "dce", "flatten", "coalesce", "copyprop", "constfold", "peephole", "deadlocals", "deadfuncs",
        ]
        assert second.instructions_before == second.instructions_after

    def test_per_pass_statistics(self):
        module = make_wasm([Const(ValType.I32, 2), Const(ValType.I32, 3), Binop(ValType.I32, "add")])
        result = PassManager().run(module)
        by_name = {s.name: s for s in result.stats}
        assert by_name["constfold"].rewrites >= 1
        assert all(s.runs >= 1 for s in result.stats)
        assert result.instructions_removed == 2

    def test_duplicate_pass_names_rejected(self):
        with pytest.raises(ValueError):
            PassManager([PeepholePass(), PeepholePass()])

    def test_custom_pipeline_subset(self):
        module = make_wasm([WNop(), Const(ValType.I32, 1)])
        result = PassManager([PeepholePass()]).run(module)
        assert result.instructions_after == 1
        assert [s.name for s in result.stats] == ["peephole"]

    def test_result_is_validated(self):
        module = make_wasm([Const(ValType.I32, 7)])
        result = optimize_module(module)
        validate_module(result.module)  # also validated internally
        assert run(result.module) == [7]


class TestConstantFolding:
    def fold(self, body, **kwargs):
        module = make_wasm(body, **kwargs)
        return PassManager([ConstantFoldingPass()]).run(module)

    def test_binop_chain_folds_to_one_const(self):
        result = self.fold([
            Const(ValType.I32, 2), Const(ValType.I32, 3), Binop(ValType.I32, "add"),
            Const(ValType.I32, 10), Binop(ValType.I32, "mul"),
        ])
        assert result.instructions_after == 1
        assert run(result.module) == [50]

    def test_folding_uses_wrapping_semantics(self):
        result = self.fold([
            Const(ValType.I32, 0xFFFFFFFF), Const(ValType.I32, 1), Binop(ValType.I32, "add"),
        ])
        assert run(result.module) == [0]

    def test_trapping_division_not_folded(self):
        result = self.fold([
            Const(ValType.I32, 1), Const(ValType.I32, 0), Binop(ValType.I32, "div_u"),
        ])
        assert result.instructions_after == 3  # left in place
        with pytest.raises(WasmTrap):
            run(result.module)

    def test_relop_and_testop_fold(self):
        from repro.wasm import Relop, Testop

        result = self.fold([
            Const(ValType.I32, 3), Const(ValType.I32, 5), Relop(ValType.I32, "lt_s"),
            Testop(ValType.I32),
        ])
        assert result.instructions_after == 1
        assert run(result.module) == [0]

    def test_signed_relop_folds_signedly(self):
        from repro.wasm import Relop

        result = self.fold([
            Const(ValType.I32, -1), Const(ValType.I32, 1), Relop(ValType.I32, "lt_s"),
        ])
        assert run(result.module) == [1]  # -1 < 1 signed

    def test_cvtop_folds(self):
        result = self.fold(
            [Const(ValType.I64, 0x1_FFFF_FFFF), Cvtop(ValType.I32, "wrap", ValType.I64)],
        )
        assert result.instructions_after == 1
        assert run(result.module) == [0xFFFFFFFF]

    def test_constant_condition_selects_if_branch(self):
        from repro.wasm import WIf

        body = [
            Const(ValType.I32, 1),
            WIf(WasmFuncType((), (ValType.I32,)), (Const(ValType.I32, 10),), (Const(ValType.I32, 20),)),
        ]
        result = PassManager().run(make_wasm(body))
        assert run(result.module) == [10]
        assert result.instructions_after == 1


class TestDeadCode:
    def test_code_after_terminator_dropped(self):
        body = [
            Const(ValType.I32, 1), WReturn(),
            Const(ValType.I32, 2), Const(ValType.I32, 3), Binop(ValType.I32, "add"), WDrop(),
        ]
        result = PassManager([DeadCodeEliminationPass()]).run(make_wasm(body))
        assert result.instructions_after == 1  # trailing return is dropped too
        assert run(result.module) == [1]

    def test_unreachable_kept_but_tail_dropped(self):
        body = [WUnreachable(), Const(ValType.I32, 2), WDrop()]
        result = PassManager([DeadCodeEliminationPass()]).run(make_wasm(body, results=()))
        assert result.instructions_after == 1

    def test_dead_store_becomes_drop_then_disappears(self):
        body = [Const(ValType.I32, 5), LocalSet(0), Const(ValType.I32, 1)]
        result = PassManager().run(make_wasm(body, locals=[ValType.I32]))
        assert result.instructions_after == 1
        function = result.module.functions[0]
        assert function.locals == ()  # the local itself was pruned
        assert run(result.module) == [1]

    def test_unused_locals_pruned_and_renumbered(self):
        body = [Const(ValType.I32, 9), LocalSet(2), LocalGet(2), WReturn()]
        module = make_wasm(body, locals=[ValType.I64, ValType.F64, ValType.I32])
        result = PassManager([UnusedLocalPass()]).run(module)
        function = result.module.functions[0]
        assert function.locals == (ValType.I32,)
        assert function.body[1] == LocalSet(0)
        assert run(result.module) == [9]


class TestPeephole:
    def run_pass(self, body, **kwargs):
        return PassManager([PeepholePass()]).run(make_wasm(body, **kwargs))

    def test_set_get_fuses_to_tee(self):
        body = [Const(ValType.I32, 4), LocalSet(0), LocalGet(0)]
        result = self.run_pass(body, locals=[ValType.I32])
        assert result.module.functions[0].body == (Const(ValType.I32, 4), LocalTee(0))
        assert run(result.module) == [4]

    def test_pure_producer_drop_eliminated(self):
        body = [Const(ValType.I32, 1), Const(ValType.I32, 2), WDrop()]
        result = self.run_pass(body)
        assert result.instructions_after == 1
        assert run(result.module) == [1]

    def test_identity_conversion_pair_removed(self):
        body = [
            LocalGet(0),
            Cvtop(ValType.I64, "extend_u", ValType.I32),
            Cvtop(ValType.I32, "wrap", ValType.I64),
        ]
        result = self.run_pass(body, params=[ValType.I32])
        assert result.instructions_after == 1
        # Differentially: identical even for args that exercise the sign bit.
        report = run_differential(
            make_wasm(body, params=[ValType.I32]), result.module,
            [("main", (0xFFFFFFFB,)), ("main", (-5,)), ("main", (7,))],
        )
        assert report.ok

    def test_spill_reload_swap_replaced_by_reordered_producers(self):
        body = [
            LocalGet(0), Const(ValType.I32, 3),
            LocalSet(1), LocalSet(2),
            LocalGet(1), LocalGet(2),
            Binop(ValType.I32, "sub"),
        ]
        module = make_wasm(body, params=[ValType.I32], locals=[ValType.I32, ValType.I32])
        result = PassManager().run(module)
        assert result.module.functions[0].locals == ()
        assert run(result.module, args=[10]) == [numerics_sub(3, 10)]
        report = run_differential(module, result.module, [("main", (10,)), ("main", (0,))])
        assert report.ok


def numerics_sub(a, b):
    from repro.core.semantics import numerics

    return numerics.int_sub(a, b, 32)


class TestLocalCoalescing:
    def test_i32_bank_local_retyped_and_conversions_removed(self):
        body = [
            LocalGet(0),
            Cvtop(ValType.I64, "extend_u", ValType.I32), LocalSet(1),
            LocalGet(1), Cvtop(ValType.I32, "wrap", ValType.I64),
        ]
        module = make_wasm(body, params=[ValType.I32], locals=[ValType.I64])
        result = PassManager([LocalCoalescingPass()]).run(module)
        function = result.module.functions[0]
        assert function.locals == (ValType.I32,)
        assert not any(isinstance(i, Cvtop) for i in function.body)
        report = run_differential(module, result.module, [("main", (5,)), ("main", (-5,)), ("main", (0,))])
        assert report.ok

    def test_mixed_type_local_left_alone(self):
        # The local holds an i32 and later a raw i64: no consistent retyping.
        body = [
            LocalGet(0), Cvtop(ValType.I64, "extend_u", ValType.I32), LocalSet(1),
            Const(ValType.I64, 1 << 40), LocalSet(1),
            LocalGet(1), Cvtop(ValType.I32, "wrap", ValType.I64),
        ]
        module = make_wasm(body, params=[ValType.I32], locals=[ValType.I64])
        result = PassManager([LocalCoalescingPass()]).run(module)
        assert result.module.functions[0].locals == (ValType.I64,)

    def test_f64_bank_roundtrip_coalesced(self):
        body = [
            LocalGet(0), Cvtop(ValType.I64, "reinterpret", ValType.F64), LocalSet(1),
            LocalGet(1), Cvtop(ValType.F64, "reinterpret", ValType.I64),
        ]
        module = make_wasm(body, params=[ValType.F64], results=[ValType.F64], locals=[ValType.I64])
        result = PassManager([LocalCoalescingPass()]).run(module)
        assert result.module.functions[0].locals == (ValType.F64,)
        report = run_differential(module, result.module, [("main", (2.5,)), ("main", (-0.0,))])
        assert report.ok


class TestFlattenAndDeadFunctions:
    def test_untargeted_block_flattened(self):
        body = [WBlock(WasmFuncType((), (ValType.I32,)), (Const(ValType.I32, 3),))]
        result = PassManager([BlockFlatteningPass()]).run(make_wasm(body))
        assert result.module.functions[0].body == (Const(ValType.I32, 3),)

    def test_branch_target_block_kept(self):
        body = [
            WBlock(WasmFuncType((), ()), (WBr(0),)),
            Const(ValType.I32, 1),
        ]
        result = PassManager([BlockFlatteningPass()]).run(make_wasm(body))
        assert isinstance(result.module.functions[0].body[0], WBlock)
        assert run(result.module) == [1]

    def test_unreachable_function_stubbed(self):
        dead = WasmFunction(WasmFuncType((), ()), (), (WNop(),) * 10, name="dead")
        live = WasmFunction(WasmFuncType((), (ValType.I32,)), (), (Const(ValType.I32, 1),), exports=("main",))
        module = WasmModule(functions=(dead, live))
        result = PassManager([DeadFunctionPass()]).run(module)
        assert result.module.functions[0].body == (WUnreachable(),)
        assert run(result.module) == [1]

    def test_ml_module_free_is_dead(self):
        lowered = api.lower(compile_ml_module(ml_workload()), O2)
        free_index = lowered.runtime.free_index
        assert lowered.wasm.functions[free_index].body == (WUnreachable(),)


class TestDifferentialHarness:
    def test_detects_a_miscompiled_module(self):
        good = make_wasm([LocalGet(0), Const(ValType.I32, 1), Binop(ValType.I32, "add")], params=[ValType.I32])
        bad = make_wasm([LocalGet(0), Const(ValType.I32, 2), Binop(ValType.I32, "add")], params=[ValType.I32])
        report = run_differential(good, bad, [("main", (1,))])
        assert not report.ok
        assert len(report.mismatches()) == 1
        assert "MISMATCH" in report.format_report()

    def test_matching_traps_are_equal(self):
        trapping = make_wasm([WUnreachable()], results=())
        report = run_differential(trapping, trapping, [("main", ())])
        assert report.ok

    def test_counter_program_differential(self):
        program = Program(counter_program().modules())
        plain = api.lower(program, {"cache": "none"})
        optimized = api.lower(program, O2)
        calls = [("client.client_init", (0,))] + [("client.client_tick", ())] * 5 + [
            ("client.client_total", ()),
        ]
        report = run_differential(plain.wasm, optimized.wasm, calls)
        assert report.ok
        # and the final call observes the same count on the optimized module
        assert report.outcomes[-1].candidate == [5]


class TestPipelineIntegration:
    def test_compile_ml_module_optimize_flag(self):
        lowered = api.lower(compile_ml_module(ml_workload()), O2)
        assert isinstance(lowered, LoweredModule)
        assert isinstance(lowered.optimization, OptimizationResult)
        interp = WasmInterpreter()
        instance = interp.instantiate(lowered.wasm)
        assert interp.invoke(instance, "pipeline", [21]) == [42]

    def test_compile_l3_module_optimize_flag(self):
        lowered = api.lower(compile_l3_module(l3_workload()), O2)
        assert isinstance(lowered, LoweredModule)
        interp = WasmInterpreter()
        instance = interp.instantiate(lowered.wasm)
        assert interp.invoke(instance, "churn", [9]) == [10]

    def test_lower_module_optimize_flag(self):
        richwasm = compile_ml_module(ml_workload())
        plain = lower_module(richwasm)
        optimized = lower_module(richwasm, config=O2)
        assert optimized.optimization is not None
        assert optimized.wasm.instruction_count() < plain.wasm.instruction_count()

    def test_instruction_reduction_meets_target_on_pipeline_workloads(self):
        """Acceptance: >= 20% instruction-count reduction on the ML and L3
        pipeline workloads, with differential agreement."""

        for workload, export, args in (
            (compile_ml_module(ml_workload()), "pipeline", [(21,), (0,), (100,), (7,)]),
            (compile_l3_module(l3_workload()), "churn", [(9,), (0,), (1000,)]),
        ):
            lowered = lower_module(workload)
            result = optimize_module(lowered.wasm)
            assert result.reduction >= 0.20, result.format_report()
            report = run_differential(lowered.wasm, result.module, [(export, a) for a in args])
            assert report.ok, report.format_report()

    def test_metrics_delta_report(self):
        from repro.analysis import format_optimization_report, optimization_delta

        richwasm = compile_ml_module(ml_workload())
        plain = lower_module(richwasm)
        optimized = lower_module(richwasm, config=O2)
        delta = optimization_delta(plain.wasm, optimized.wasm, name="ml-pipeline")
        assert delta.removed > 0
        report = format_optimization_report([delta])
        assert "ml-pipeline" in report and "TOTAL" in report
