"""API facade — one config in, a verified program out.

Three claims, enforced as assertions:

* **Levels order**: ``O1`` never produces more instructions than ``O0``,
  ``O2`` never more than ``O1``, and ``O2`` removes at least 20% on the
  cross-language counter program (matching ``bench_opt``).
* **Correctness**: every optimization level is bit-identical to ``O0``
  under :func:`repro.opt.run_differential`, and the compiled module agrees
  across both execution engines (:func:`repro.opt.run_engine_cross_check`).
* **Caching**: recompiling under the same config is a program-level cache
  hit (shared payload, zero extra lower/decode work); different levels get
  distinct cache entries.
"""

import pytest

from repro import api
from repro.api import CompileConfig
from repro.ffi import counter_program
from repro.opt import pipeline_names, run_differential, run_engine_cross_check
from repro.runtime import ModuleCache

from workload_builders import COUNTER_TICKS

CALLS = (
    [("client.client_init", (0,))]
    + [("client.client_tick", ())] * COUNTER_TICKS
    + [("client.client_total", ())]
)


def compile_at(level, cache):
    return api.compile(counter_program, CompileConfig(opt_level=level), cache=cache)


def test_levels_shrink_and_agree():
    cache = ModuleCache()
    compiled = {level: compile_at(level, cache) for level in pipeline_names()}
    sizes = {level: program.wasm.instruction_count() for level, program in compiled.items()}
    print(f"\n  instructions by level: {sizes}")
    assert sizes["O1"] <= sizes["O0"]
    assert sizes["O2"] <= sizes["O1"]
    assert 1 - sizes["O2"] / sizes["O0"] >= 0.20, sizes

    baseline = compiled["O0"].wasm
    for level in ("O1", "O2"):
        for engine in ("tree", "flat"):
            report = run_differential(baseline, compiled[level].wasm, CALLS, engine=engine)
            assert report.ok, f"{level}/{engine}:\n{report.format_report()}"
        cross = run_engine_cross_check(compiled[level].wasm, CALLS)
        assert cross.ok, f"{level}:\n{cross.format_report()}"


def test_recompile_is_a_program_level_hit():
    cache = ModuleCache()
    first = compile_at("O2", cache)
    program_misses = cache.stats["program"].misses
    second = compile_at("O2", cache)
    assert second is first
    assert second.diagnostics.cache["program"] == "hit"
    assert cache.stats["program"].misses == program_misses
    assert compile_at("O1", cache) is not first  # distinct entry per level


def test_service_round_trip_per_level():
    cache = ModuleCache()
    totals = {}
    for level in pipeline_names():
        service = api.serve(compile_at(level, cache))
        outcome = service.session(
            [("client_init", (3,))] + [("client_tick", ())] * 4 + [("client_total", ())]
        )
        assert outcome.ok, outcome.trap
        totals[level] = outcome.values[-1]
    assert len(set(map(tuple, totals.values()))) == 1, totals
    assert totals["O2"] == [7]


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q", "-s"]))
