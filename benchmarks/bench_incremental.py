"""COMPILE — function-granular incremental recompilation.

The PR 8 tentpole series: a 1000-function synthetic module is compiled cold
on a fresh :class:`repro.runtime.ModuleCache`, then exactly one function is
edited and the module recompiled on the same cache.  Every module-level
stage misses (the content changed) but all unchanged functions come back
from the per-function unit cache (:mod:`repro.compilepipe`), so the
recompile must land at least ``REPRO_INCREMENTAL_SPEEDUP_FLOOR`` (default
30x) under the cold wall.

The source-level series runs the same experiment one layer up: ML and L3
*sources* of 100 functions each through ``repro.api.compile``, one ML
function edited.  The frontend and link units make that edit recompile one
function from source to Wasm, so it must land at least
``SOURCE_EDIT_SPEEDUP_FLOOR`` (10x) under the cold wall, with output
bit-identical to a cold compile of the edited sources.

Correctness is gated harder than speed: the incrementally recomposed
artifacts must be *bit-identical* to a cold monolithic compile — the
assembled ``WasmModule`` dataclass-equal and content-key-equal to a
unit-cache-free lowering, and the three execution engines
(tree/flat/compiled) must agree on results, traps, memory, globals and
step counts when instantiated from the incremental artifacts
(:func:`repro.opt.run_engine_cross_check`).
"""

import os

import pytest

from repro import api
from repro.api import CompileConfig
from repro.lower import lower_module
from repro.opt import run_engine_cross_check
from repro.runtime import ModuleCache
from repro.runtime.cache import content_key
from repro.wasm import validate_module

from workloads import (
    edit_one_function,
    measure_incremental_compile,
    measure_source_edit_compile,
    synthetic_module,
)

# Measured 44-82x at 1000 functions (ten runs, 2-vCPU VM, Python 3.11) once
# unit keys and callee sets are memoized on each artifact; overridable so a
# heavily contended runner can relax the gate without a code change (same
# contract as REPRO_COMPILED_SPEEDUP_FLOOR in bench_interpreters.py).
INCREMENTAL_SPEEDUP_FLOOR = float(os.environ.get("REPRO_INCREMENTAL_SPEEDUP_FLOOR", "30.0"))

#: The one-ML-function source edit's floor over its cold compile.
SOURCE_EDIT_SPEEDUP_FLOOR = 10.0

FUNCTIONS = 40
EDITED = FUNCTIONS // 2


def _incremental_compile(opt_level="O2"):
    """Cold-compile the base module, edit one function, recompile.

    Returns ``(edited module, incremental CompiledProgram, cache)`` — the
    incremental program's lowered/decoded/translated artifacts were
    recomposed from per-function units, with only the edited function
    actually recompiled.
    """

    config = CompileConfig(opt_level=opt_level, engine="compiled", cache="private")
    base = synthetic_module(1, functions=FUNCTIONS)
    cache = ModuleCache()
    api.compile(base, config, cache=cache)
    edited = edit_one_function(base, EDITED)
    before = cache.units.snapshot()
    program = api.compile(edited, config, cache=cache)
    delta = cache.units.delta(before)
    return edited, program, delta


def _calls():
    """A call script touching the edited function and a spread of others."""

    exports = ["main", f"f{EDITED}", "f1", f"f{FUNCTIONS - 1}", f"f{EDITED + 1}"]
    return [(export, ()) for export in exports]


def _expected(export: str) -> int:
    # Function i computes seed + 1 with seed = i + 1; the edited function's
    # seed is FUNCTIONS + EDITED + 1 (see workloads.edit_one_function).
    if export == f"f{EDITED}":
        return FUNCTIONS + EDITED + 2
    index = 0 if export == "main" else int(export[1:])
    return index + 2


def test_incremental_recompile_reuses_units():
    _edited, _program, delta = _incremental_compile()
    # Every stage reused all-but-one function; only the edit recompiled.
    assert delta["lower"] == {"reused": FUNCTIONS - 1, "compiled": 1}
    assert delta["decode"]["compiled"] == 1
    assert delta["translate"]["compiled"] == 1
    assert delta["optimize"]["reused"] > delta["optimize"]["compiled"]


def test_incremental_wasm_bit_identical_to_monolithic():
    edited, program, _delta = _incremental_compile()
    config = CompileConfig(opt_level="O2", engine="compiled", cache="private")
    monolithic = lower_module(edited, config=config)  # no unit cache: cold path
    validate_module(monolithic.wasm)
    assert program.wasm == monolithic.wasm
    assert content_key("wasm", program.wasm) == content_key("wasm", monolithic.wasm)


def test_incremental_artifacts_cross_check_all_engines():
    _edited, program, _delta = _incremental_compile()
    calls = _calls()
    # The tree/flat engines run the unit-assembled decode, the compiled
    # engine the unit-assembled translation — all three must agree (results,
    # traps, memory, globals, steps) and match the seed formula.
    report = run_engine_cross_check(program.wasm, calls)
    assert report.ok, report.format_report()
    interpreter, instance = program.instantiate()
    for export, args in calls:
        assert interpreter.invoke(instance, export, list(args))[0] == _expected(export)


def test_incremental_matches_monolithic_execution():
    edited, program, _delta = _incremental_compile()
    config = CompileConfig(opt_level="O2", engine="compiled", cache="private")
    monolithic = lower_module(edited, config=config)
    mono_interp, mono_inst = monolithic.instantiate(engine="compiled")
    inc_interp, inc_inst = program.instantiate()
    for export, args in _calls():
        mono = mono_interp.invoke(mono_inst, export, list(args))
        inc = inc_interp.invoke(inc_inst, export, list(args))
        assert mono == inc
    assert mono_interp.steps == inc_interp.steps


@pytest.mark.perf
def test_one_function_edit_speedup_floor():
    result = measure_incremental_compile(functions=1000, blocks=1)
    assert result["units"]["lower"] == {"reused": 999, "compiled": 1}
    assert result["speedup"] >= INCREMENTAL_SPEEDUP_FLOOR, (
        f"one-function-edit recompile only {result['speedup']}x faster than cold "
        f"(floor {INCREMENTAL_SPEEDUP_FLOOR}x): {result}"
    )


@pytest.mark.perf
def test_one_source_function_edit_speedup_floor():
    result = measure_source_edit_compile(functions=100)
    assert result["units"]["frontend"] == {"reused": 199, "compiled": 1}
    assert result["identical"], result
    assert result["speedup"] >= SOURCE_EDIT_SPEEDUP_FLOOR, (
        f"one-source-function edit only {result['speedup']}x faster than cold "
        f"(floor {SOURCE_EDIT_SPEEDUP_FLOOR}x): {result}"
    )
