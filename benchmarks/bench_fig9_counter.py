"""FIG9 — Fig. 9: the manually-managed counter behind a GC'd interface.

Builds the counter program (L3 library + ML client), runs it on both the
RichWasm interpreter and the lowered single-memory Wasm module, and checks
the two agree.  Benchmarks measure ticks-per-run on both backends.
"""

import pytest

from repro.core.syntax import NumType, NumV, UnitV
from repro.ffi import Program, counter_program

TICKS = 25


def run_interpreter(ticks: int = TICKS) -> int:
    program = Program(counter_program().modules())
    instance = program.instantiate()
    instance.invoke("client", "client_init", [NumV(NumType.I32, 0)])
    for _ in range(ticks):
        instance.invoke("client", "client_tick", [UnitV()])
    return instance.invoke("client", "client_total", [UnitV()])[0].value


def run_wasm(ticks: int = TICKS) -> int:
    program = Program(counter_program().modules())
    wasm = program.instantiate_wasm()
    wasm.invoke("client", "client_init", [0])
    for _ in range(ticks):
        wasm.invoke("client", "client_tick", [])
    return wasm.invoke("client", "client_total", [])[0]


def test_backends_agree():
    assert run_interpreter(7) == run_wasm(7) == 7


def test_shared_configuration_increment():
    program = Program(counter_program(increment=3).modules())
    instance = program.instantiate()
    instance.invoke("client", "client_init", [NumV(NumType.I32, 0)])
    for _ in range(4):
        instance.invoke("client", "client_tick", [UnitV()])
    assert instance.invoke("client", "client_total", [UnitV()])[0].value == 12


@pytest.mark.benchmark(group="fig9")
def test_bench_fig9_interpreter(benchmark):
    assert benchmark(run_interpreter) == TICKS


@pytest.mark.benchmark(group="fig9")
def test_bench_fig9_wasm(benchmark):
    assert benchmark(run_wasm) == TICKS
