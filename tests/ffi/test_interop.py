"""Tests for the FFI: linking checks, static linking, the paper's scenarios."""

import pytest

from repro.core.semantics import Trap
from repro.core.syntax import NumType, NumV, UnitV
from repro.core.typing import check_module
from repro.core.typing.errors import LinkError, RichWasmTypeError
from repro.ffi import (
    Program,
    check_link,
    counter_program,
    fig1_unsafe_program,
    fig3_programs,
    link_modules,
)


class TestFig1:
    def test_boundary_type_mismatch_rejected(self):
        scenario = fig1_unsafe_program()
        with pytest.raises(LinkError):
            check_link(scenario.modules())

    def test_each_side_is_fine_on_its_own(self):
        scenario = fig1_unsafe_program()
        check_module(scenario.ml)
        check_module(scenario.client)

    def test_error_mentions_the_import(self):
        scenario = fig1_unsafe_program()
        with pytest.raises(LinkError, match="stash"):
            check_link(scenario.modules())


class TestFig3:
    def test_unsafe_variant_rejected_by_typechecker(self):
        unsafe, _ = fig3_programs()
        with pytest.raises(RichWasmTypeError):
            check_module(unsafe.ml)

    def test_unsafe_client_alone_is_fine(self):
        unsafe, _ = fig3_programs()
        check_module(unsafe.client)

    def test_safe_variant_links_and_type_checks(self):
        _, safe = fig3_programs()
        check_link(safe.modules())

    def test_safe_variant_runs_on_interpreter(self):
        _, safe = fig3_programs()
        program = Program(safe.modules())
        instance = program.instantiate()
        instance.invoke("client", "store", [NumV(NumType.I32, 42)])
        taken = instance.invoke("client", "take", [UnitV()])
        assert taken[0].value == 42

    def test_safe_variant_runs_on_wasm(self):
        _, safe = fig3_programs()
        program = Program(safe.modules())
        wasm = program.instantiate_wasm()
        wasm.invoke("client", "store", [7])
        assert wasm.invoke("client", "take", []) == [7]

    def test_taking_twice_traps(self):
        _, safe = fig3_programs()
        program = Program(safe.modules())
        instance = program.instantiate()
        instance.invoke("client", "store", [NumV(NumType.I32, 1)])
        instance.invoke("client", "take", [UnitV()])
        with pytest.raises(Trap):
            instance.invoke("client", "take", [UnitV()])


class TestFig9Counter:
    def test_counter_on_interpreter(self):
        program = Program(counter_program().modules())
        instance = program.instantiate()
        instance.invoke("client", "client_init", [NumV(NumType.I32, 100)])
        for _ in range(4):
            instance.invoke("client", "client_tick", [UnitV()])
        total = instance.invoke("client", "client_total", [UnitV()])
        assert total[0].value == 104

    def test_counter_on_wasm(self):
        program = Program(counter_program().modules())
        wasm = program.instantiate_wasm()
        wasm.invoke("client", "client_init", [10])
        for _ in range(3):
            wasm.invoke("client", "client_tick", [])
        assert wasm.invoke("client", "client_total", []) == [13]

    def test_custom_increment(self):
        program = Program(counter_program(increment=5).modules())
        instance = program.instantiate()
        instance.invoke("client", "client_init", [NumV(NumType.I32, 0)])
        instance.invoke("client", "client_tick", [UnitV()])
        instance.invoke("client", "client_tick", [UnitV()])
        assert instance.invoke("client", "client_total", [UnitV()])[0].value == 10

    def test_both_backends_agree(self):
        program = Program(counter_program().modules())
        instance = program.instantiate()
        wasm = program.instantiate_wasm()
        instance.invoke("client", "client_init", [NumV(NumType.I32, 1)])
        wasm.invoke("client", "client_init", [1])
        for _ in range(5):
            instance.invoke("client", "client_tick", [UnitV()])
            wasm.invoke("client", "client_tick", [])
        assert (
            instance.invoke("client", "client_total", [UnitV()])[0].value
            == wasm.invoke("client", "client_total", [])[0]
        )


class TestStaticLinking:
    def test_linked_module_has_no_imports(self):
        linked = link_modules(counter_program().modules())
        assert not linked.function_imports()
        check_module(linked)

    def test_linked_module_exports_are_namespaced(self):
        linked = link_modules(counter_program().modules())
        exports = linked.exported_functions()
        assert "client.client_tick" in exports
        assert "counterlib.counter_bump" in exports

    def test_unique_exports_also_keep_bare_names(self):
        linked = link_modules(counter_program().modules())
        exports = linked.exported_functions()
        assert "client_tick" in exports

    def test_linking_unsafe_program_fails(self):
        unsafe, _ = fig3_programs()
        with pytest.raises(RichWasmTypeError):
            link_modules(unsafe.modules())

    def test_instantiation_order_respects_dependencies(self):
        program = Program(counter_program().modules())
        order = program.instantiation_order()
        assert order.index("counterlib") < order.index("client")


class TestWasmInvokeResolution:
    """WasmProgramInstance.invoke never falls back silently (satellite of
    the api_redesign PR): unknown names raise LinkError naming both
    candidates, ambiguous bare/qualified pairs raise instead of guessing."""

    def test_unknown_export_names_both_candidates(self):
        program = Program(counter_program().modules())
        wasm = program.instantiate_wasm()
        with pytest.raises(LinkError) as excinfo:
            wasm.invoke("client", "missing", [])
        message = str(excinfo.value)
        assert "'client.missing'" in message and "'missing'" in message
        assert "client.client_init" in message  # lists what exists

    def test_bare_name_resolves_when_qualified_absent(self):
        program = Program(counter_program().modules())
        wasm = program.instantiate_wasm()
        # The linked module re-exports bare names for the same indices; a
        # module prefix that does not exist still resolves via the bare name.
        wasm.invoke("nosuchmodule", "client_init", [3])
        assert wasm.invoke("client", "client_total", []) == [3]

    def test_ambiguous_bare_and_qualified_raise(self):
        program = Program(counter_program().modules())
        wasm = program.instantiate_wasm()
        exports = wasm.instance.exports
        # Force the pathological table: a bare name colliding with a
        # qualified one while naming a *different* function.
        exports["client_init"] = exports["client.client_total"]
        with pytest.raises(LinkError, match="ambiguous"):
            wasm.invoke("client", "client_init", [0])
