"""CompileConfig: validation, normalization, hash stability, opt pipelines."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.api import CACHE_POLICIES, CompileConfig, ConfigError
from repro.api.config import _BUILTIN_PASS_NAMES
from repro.l3 import compile_l3_module
from repro.lower import lower_module
from repro.ml import compile_ml_module
from repro.opt import (
    PIPELINES,
    o1_passes,
    pipeline_names,
    pipeline_passes,
    run_differential,
    run_engine_cross_check,
)
from repro.wasm import TreeWalkingEngine, available_engines, create_engine

from bench_pipelines import l3_workload, ml_workload


class TestValidation:
    def test_defaults_validate(self):
        config = CompileConfig()
        assert config.validate() is config
        assert config.opt_level == "O0" and not config.optimize

    def test_unknown_opt_level_names_registered_levels(self):
        with pytest.raises(ConfigError, match=r"O0, O1, O2"):
            CompileConfig(opt_level="O9").validate()

    def test_unknown_engine_names_registered_engines(self):
        with pytest.raises(ConfigError, match=r"compiled, flat, tree"):
            CompileConfig(engine="bogus").validate()

    def test_create_engine_rejects_unknown_names_listing_registered(self):
        with pytest.raises(ValueError, match=r"compiled, flat, tree"):
            create_engine("bogus")
        assert available_engines() == ("compiled", "flat", "tree")

    def test_unknown_cache_policy(self):
        with pytest.raises(ConfigError, match=", ".join(CACHE_POLICIES)):
            CompileConfig(cache="write-through").validate()

    @pytest.mark.parametrize("field, value", [
        ("memory_pages", 0),
        ("memory_pages", "4"),
        ("memory_pages", True),
        ("max_steps", 0),
        ("max_steps", 1.5),
        ("pool_size", 0),
        ("link_name", ""),
        ("check_links", 1),
        ("workers", 0),
        ("workers", 1.5),
        ("cache_dir", ""),
        ("cache_dir", 7),
        ("disk_cache_bytes", 0),
        ("disk_cache_bytes", "big"),
    ])
    def test_bad_field_values(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CompileConfig(**{field: value}).validate()

    def test_config_error_is_a_value_error(self):
        assert issubclass(ConfigError, ValueError)


class TestNormalization:
    def test_cache_dir_accepts_path_objects(self, tmp_path):
        assert CompileConfig(cache_dir=tmp_path).cache_dir == str(tmp_path)

    def test_int_and_lowercase_levels_normalize(self):
        assert CompileConfig(opt_level=1).opt_level == "O1"
        assert CompileConfig(opt_level="o2").opt_level == "O2"
        assert CompileConfig(opt_level=" O0 ").opt_level == "O0"

    def test_engine_instances_reduce_to_names(self):
        config = CompileConfig(engine=TreeWalkingEngine()).validate()
        assert config.engine == "tree"

    def test_of_coercions(self):
        assert CompileConfig.of(None) == CompileConfig().validate()
        assert CompileConfig.of("O2").opt_level == "O2"
        assert CompileConfig.of(2).opt_level == "O2"
        assert CompileConfig.of({"opt_level": "O1", "memory_pages": 8}).memory_pages == 8
        base = CompileConfig(opt_level="O1")
        assert CompileConfig.of(base) is base
        assert CompileConfig.of(base, engine="tree").engine == "tree"
        with pytest.raises(ConfigError):
            CompileConfig.of(object())

    def test_replace_validates(self):
        config = CompileConfig()
        assert config.replace(opt_level="O1").opt_level == "O1"
        with pytest.raises(ConfigError):
            config.replace(opt_level="O7")


class TestContentKey:
    def test_stable_across_equal_configs(self):
        assert CompileConfig(opt_level="O2").content_key() == CompileConfig(opt_level=2).content_key()

    def test_compile_relevant_fields_change_the_key(self):
        base = CompileConfig().content_key()
        assert CompileConfig(opt_level="O1").content_key() != base
        assert CompileConfig(opt_level="O2").content_key() != CompileConfig(opt_level="O1").content_key()
        assert CompileConfig(memory_pages=8).content_key() != base
        assert CompileConfig(link_name="other").content_key() != base

    def test_bookkeeping_fields_do_not_change_the_key(self):
        # One compiled payload serves every engine / budget / cache policy.
        base = CompileConfig().content_key()
        assert CompileConfig(engine="tree").content_key() == base
        assert CompileConfig(max_steps=10).content_key() == base
        assert CompileConfig(cache="none").content_key() == base
        assert CompileConfig(pool_size=2).content_key() == base
        assert CompileConfig(check_links=False).content_key() == base
        # Serving topology and cache placement are bookkeeping too: the
        # same artifact is shared across workers and disk directories.
        assert CompileConfig(workers=4).content_key() == base
        assert CompileConfig(cache_dir="/tmp/x", disk_cache_bytes=10).content_key() == base


class TestPipelines:
    def test_registered_levels(self):
        assert pipeline_names() == ("O0", "O1", "O2")
        assert pipeline_passes("O0") == []
        o1 = [p.name for p in pipeline_passes("O1")]
        o2 = [p.name for p in pipeline_passes("O2")]
        assert set(o1) < set(o2)  # O1 is a strict subset of the full pipeline

    def test_unknown_level_lists_registered(self):
        with pytest.raises(ValueError, match=r"O0, O1, O2"):
            pipeline_passes("Os")

    def test_config_passes_match_pipeline(self):
        assert CompileConfig(opt_level="O0").passes() is None
        assert CompileConfig(opt_level="O0").pass_names() == ()
        assert CompileConfig(opt_level="O2").pass_names() == tuple(
            p.name for p in pipeline_passes("O2")
        )

    @pytest.mark.parametrize("level", ["O1", "O2"])
    @pytest.mark.parametrize("workload, export, args", [
        ("ml", "pipeline", [(21,), (0,), (100,), (7,)]),
        ("l3", "churn", [(9,), (0,), (1000,)]),
    ])
    def test_levels_bit_identical_on_both_engines(self, level, workload, export, args):
        """Acceptance: every level's artifact is differentially verified
        against the unoptimized twin on both engines."""

        richwasm = (
            compile_ml_module(ml_workload()) if workload == "ml" else compile_l3_module(l3_workload())
        )
        baseline = lower_module(richwasm, config=CompileConfig(opt_level="O0"))
        candidate = lower_module(richwasm, config=CompileConfig(opt_level=level))
        calls = [(export, a) for a in args]
        for engine in ("tree", "flat"):
            report = run_differential(baseline.wasm, candidate.wasm, calls, engine=engine)
            assert report.ok, f"{level}/{engine}:\n{report.format_report()}"
        cross = run_engine_cross_check(candidate.wasm, calls)
        assert cross.ok, cross.format_report()


_WARM_CHILD = """
import json, sys
sys.path.insert(0, {src!r})
from repro import api
from repro.ml import BinOp, IntLit, MLFunction, TInt, Var, ml_module
source = ml_module("m", functions=[
    MLFunction("double", "x", TInt(), TInt(), BinOp("*", Var("x"), IntLit(2))),
])
compiled = api.compile(source, {{"opt_level": "O2", "cache_dir": {cache_dir!r}}})
print(json.dumps({{
    "program": compiled.diagnostics.cache["program"],
    "opt": sorted(name for name in sys.modules if name.startswith("repro.opt")),
}}))
"""


class TestOptimizerFreeKeys:
    """Built-in levels validate and key without importing the passes."""

    def test_builtin_pass_names_match_the_registry(self):
        assert set(_BUILTIN_PASS_NAMES) <= set(pipeline_names())
        for level, names in _BUILTIN_PASS_NAMES.items():
            assert names == tuple(p.name for p in pipeline_passes(level))

    def test_registered_levels_validate_and_key(self, monkeypatch):
        monkeypatch.setitem(PIPELINES, "O3", o1_passes)
        config = CompileConfig(opt_level="O3").validate()
        assert config.pass_names() == CompileConfig(opt_level="O1").pass_names()
        monkeypatch.setitem(PIPELINES, "O1", lambda: o1_passes()[:2])
        assert CompileConfig(opt_level="O1").pass_names() == ("dce", "flatten")
        with pytest.raises(ConfigError, match=r"registered levels: O0, O1, O2, O3$"):
            CompileConfig(opt_level="O9").validate()

    def test_disk_warm_program_hit_imports_no_pass_module(self, tmp_path):
        script = _WARM_CHILD.format(
            src=os.path.dirname(os.path.dirname(repro.__file__)), cache_dir=str(tmp_path)
        )
        records = [
            json.loads(subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True
            ).stdout.splitlines()[-1])
            for _ in range(2)
        ]
        assert [record["program"] for record in records] == ["miss", "hit"]
        assert "repro.opt.pipelines" in records[0]["opt"]
        # The program payload pickles an ``OptimizationResult``, so the hit
        # loads ``repro.opt.manager`` — and nothing else of the optimizer.
        assert set(records[1]["opt"]) <= {"repro.opt", "repro.opt.manager"}
