"""The four workloads: what each sets up, times and checks.

A workload function takes a :class:`Run` and fills it in: the setup times,
the latency samples of its timed phase, its throughput, the errors found
against the oracle in :mod:`gen`, and, on a traced run, the per-layer
metrics.  ``run.py`` turns that into the result line.  Every timed phase
probes the host's speed between its samples and reports its times scaled
to the reference host (see :mod:`hostspeed`).

compile_cold / compile_edit
    A generated ML module and L3 module of ``FUNCTIONS`` functions each,
    linked (each ML function calls an L3 function through an import) and
    compiled with ``api.compile`` at O2 for the compiled engine.  Cold:
    fresh source objects and an empty disk cache each sample.  Edit: one ML
    function changed, recompiled on the same ``ModuleCache``.
serve_sessions
    In-process ``api.serve`` of the Fig. 9 counter (compiled engine, O2),
    one closed-loop client running init, 8 to 56 ticks, total.
serve_cluster
    ``api.serve(..., workers=2)`` on the default (flat) engine serving
    stateless ``p{i}``/``c{i}`` requests, about 5% of them trapping on a
    step budget: one request at a time from one thread (the latency),
    alternating with saturating batches through ``ClusterService.run``
    (the throughput).
    The traced run adds an open loop at ``OPEN_LOOP_RATE``.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from collections import deque

import gen
import hostspeed
import layers

FUNCTIONS = 100
CHECKS = 24
SETUPS = 3  # setup samples of an untraced run: this process's, then fresh interpreters
SESSION_MIX = 2000
REQUEST_MIX = 4000
OPEN_LOOP_RATE = 200.0  # requests per second, traced run only
LATENCY_SHARE = 0.6  # of serve_cluster's timed phase; the rest saturates
EDITS_PER_SECOND = 1.5  # compile_edit runs a fixed sample count, see _edit_count
BATCH = 1000
CLUSTER_WORKERS = 2
CLUSTER_ROUNDS = 4  # of round trips, then saturating batches
REPLAY = 400  # requests or sessions in the fixed reference replay

TINY = {
    "FUNCTIONS": 6, "CHECKS": 4, "SETUPS": 2, "SESSION_MIX": 20, "REQUEST_MIX": 60,
    "BATCH": 20, "REPLAY": 10,
}


class Run:
    """One benchmark run's settings and findings."""

    def __init__(self, *, seed: int, seconds: float, trace: bool, tiny: bool, tmp_root: str) -> None:
        self.seed = seed
        self.seconds = seconds
        # A traced run times the phase twice, untraced then traced, in the
        # same total time as an untraced run.
        self.phase_seconds = seconds / 2 if trace else seconds
        self.trace = trace
        self.tmp_root = tmp_root
        sizes = TINY if tiny else {}
        self.functions = sizes.get("FUNCTIONS", FUNCTIONS)
        self.checks = sizes.get("CHECKS", CHECKS)
        self.setups = sizes.get("SETUPS", SETUPS)
        self.session_mix = sizes.get("SESSION_MIX", SESSION_MIX)
        self.request_mix = sizes.get("REQUEST_MIX", REQUEST_MIX)
        self.batch = sizes.get("BATCH", BATCH)
        self.replay = sizes.get("REPLAY", REPLAY)
        self.min_samples = 2 if tiny else 5
        self.attempted = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.latencies: list[float] = []  # seconds, the timed phase's samples
        self.latency_s = 0.0  # scaled to the reference host, see closed_loop_figures
        self.throughput = 0.0  # likewise
        self.layer: dict[str, float] = {}
        self.info: dict = {}

    def fail(self, message: str) -> None:
        self.errors.append(message)

    def mkdtemp(self) -> str:
        return tempfile.mkdtemp(prefix="cache-", dir=self.tmp_root)

    def compile_config(self, **fields):
        from repro.api import CompileConfig

        return CompileConfig(**{"opt_level": "O2", "engine": "compiled", "cache": "private", **fields})


# -- shared helpers --------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``0 < q <= 100``)."""

    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values) -> tuple[float, float]:
    """The highest of p99/p90/p75/p50 with at least ten samples beyond it,
    as ``(value, percentile)``; the maximum (percentile 100) when even the
    median has fewer than ten samples above it."""

    for q in (99, 90, 75, 50):
        if len(values) * (100 - q) / 100 >= 10:
            return percentile(values, q), float(q)
    return max(values), 100.0


def closed_loop_figures(run: Run, blocks: hostspeed.Blocks) -> None:
    """Latency and throughput of a closed loop, scaled to the reference host
    (see :mod:`hostspeed`): the median over blocks of each block's median
    latency, and of its operations per second of whole loop turns.

    A turn also builds the operation's inputs and checks its outputs
    against the oracle, so the throughput counts work the latency does not;
    with one client it still moves with the latency.
    """

    run.latencies = blocks.samples()
    run.latency_s = blocks.latency_s()
    run.throughput = blocks.rate()
    record_speed(run, blocks)


def record_speed(run: Run, blocks: hostspeed.Blocks) -> None:
    """Put the unscaled latency and the median speed factor into the result
    row, so the scaling can be checked afterwards."""

    run.info["raw_latency_ms"] = blocks.raw_latency_s() * 1e3
    run.info["host_factor"] = blocks.median_factor()


def check_outcome(run: Run, outcome, expected, what: str) -> None:
    """Count ``outcome`` as an error unless it matches ``expected`` (a
    result value, or ``None`` for "must trap on its step budget")."""

    if expected is None:
        if outcome.ok or outcome.trap_kind != "step_budget":
            run.fail(f"{what}: expected a step_budget trap, got ok={outcome.ok} "
                     f"trap_kind={outcome.trap_kind}")
    elif not outcome.ok or outcome.values != [expected]:
        run.fail(f"{what}: expected [{expected}], got ok={outcome.ok} "
                 f"values={outcome.values} trap={outcome.trap}")


def verify_program(run: Run, program, checks, tracer=None) -> int:
    """Serve ``program`` in-process and compare ``checks`` against the
    oracle; returns the engine steps the checks took."""

    from repro import api
    from repro.runtime import Request

    steps = 0
    with api.serve(program) as service:
        for export, args, expected in checks:
            outcome = service.run_one(Request(export, args))
            check_outcome(run, outcome, expected, f"{export}{args}")
            steps += outcome.steps
        if tracer is not None:
            tracer.counts["pool.created"] += service.pool.stats.created
    return steps


def unit_totals(program) -> tuple[int, int]:
    reused = sum(stage["reused"] for stage in program.diagnostics.units.values())
    compiled = sum(stage["compiled"] for stage in program.diagnostics.units.values())
    return reused, compiled


def timed_setup(run: Run, factory):
    """Call ``factory()`` and append its time, scaled to the reference
    host, to ``run.setup_s``."""

    gc.collect()
    result, wall, factor = hostspeed.timed(factory)
    run.setup_s.append(wall / factor)
    return result


def first_setup(run: Run, factory):
    """The setup the timed phase uses, timed.

    Its objects are then frozen out of the garbage collector, so the
    collections the phase runs between samples only walk what the phase
    itself allocates.
    """

    result = timed_setup(run, factory)
    gc.collect()
    gc.freeze()
    return result


# -- per-layer metric assembly ---------------------------------------------------


def compile_metrics(delta: dict, *, compiles: int, wall_s: float, program,
                    reuse: tuple[int, int], disk_bytes: float) -> dict:
    """Per-compile layer metrics from a tracer delta over ``compiles``
    compiles that took ``wall_s`` in total."""

    selfs, calls, counts = delta["self_s"], delta["calls"], delta["counts"]
    n = max(compiles, 1)
    layer_s = sum(selfs.get(name, 0.0) for name in layers.COMPILE_LAYERS)
    hits, misses = counts.get("diskcache.hits", 0), counts.get("diskcache.misses", 0)
    reused, compiled = reuse
    functions = len(program.wasm.functions) if program is not None else 0
    return {
        "frontends.self_s": selfs.get("frontends", 0.0) / n,
        "frontends.functions": counts.get("frontends.functions", 0) / n,
        "link.self_s": selfs.get("link", 0.0) / n,
        "typing.self_s": selfs.get("typing", 0.0) / n,
        "typing.calls": calls.get("typing", 0) / n,
        "lower.self_s": selfs.get("lower", 0.0) / n,
        "opt.self_s": selfs.get("opt", 0.0) / n,
        "opt.instructions_removed": counts.get("opt.instructions_removed", 0) / n,
        "validation.self_s": selfs.get("validation", 0.0) / n,
        "decode.self_s": selfs.get("decode", 0.0) / n,
        "pygen.emit_s": selfs.get("pygen", 0.0) / n,
        "pygen.pycompile_s": selfs.get("pycompile", 0.0) / n,
        "pygen.pycompile_calls": calls.get("pycompile", 0) / n,
        "keying.self_s": selfs.get("keying", 0.0) / n,
        "keying.unit_key_calls_per_function":
            calls.get("keying.unit_key", 0) / n / functions if functions else 0.0,
        "keying.content_key_calls": calls.get("keying.content_key", 0) / n,
        "units.reuse_ratio": reused / (reused + compiled) if reused + compiled else 0.0,
        "diskcache.get_s": selfs.get("diskcache.get", 0.0) / n,
        "diskcache.put_s": selfs.get("diskcache.put", 0.0) / n,
        "diskcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "diskcache.bytes": disk_bytes,
        "wasm.functions": functions,
        "wasm.instructions": program.wasm.instruction_count() if program is not None else 0,
        "compile.wall_s": wall_s / n,
        "compile.unattributed_s": (wall_s - layer_s) / n,
        "compile.attributed_share": layer_s / wall_s if wall_s else 0.0,
    }


def setup_compile_metrics(delta: dict, program, *, wall_s: float, disk_bytes: float = 0.0) -> dict:
    """Compile layer metrics of a serving workload's one setup compile."""

    return compile_metrics(
        delta, compiles=1, wall_s=wall_s, program=program,
        reuse=unit_totals(program), disk_bytes=disk_bytes,
    )


def serve_metrics(delta: dict, *, ops: int, wall_s: float, steps: int, replay_steps: int) -> dict:
    """Per-call serving layer metrics from a tracer delta over ``ops``
    requests or sessions that took ``wall_s`` and ``steps`` in total."""

    selfs, calls, counts = delta["self_s"], delta["calls"], delta["counts"]

    def per_call_us(layer: str) -> float:
        return selfs.get(layer, 0.0) / calls[layer] * 1e6 if calls.get(layer) else 0.0

    all_self = sum(selfs.get(name, 0.0) for name in layers.SERVE_LAYERS + layers.COMPILE_LAYERS)
    engine_s = selfs.get("engine", 0.0)
    return {
        "pool.acquire_us": per_call_us("pool.acquire"),
        "pool.release_us": per_call_us("pool.release"),
        "pool.created": counts.get("pool.created", 0),
        "engine.invoke_us": per_call_us("engine"),
        "engine.steps": replay_steps,
        "engine.steps_per_s": steps / engine_s if engine_s else 0.0,
        "batch.self_us": per_call_us("batch"),
        "api.self_us": per_call_us("api"),
        "serve.unattributed_us": (wall_s - all_self) / ops * 1e6 if ops else 0.0,
    }


CLUSTER_METRICS = (
    "dispatcher.submit_us", "cluster.ipc_overhead_ms", "cluster.backlog_max",
    "cluster.worker_share_max", "loadgen.lateness_p99_ms", "cluster.open_loop_p50_ms",
    "cluster.open_loop_p99_ms", "cluster.open_loop_samples",
)


def finish_trace(run: Run, untraced: list[float], traced: list[float]) -> None:
    value, q = tail(untraced)
    run.layer.update({
        "latency.tail_ms": value * 1e3,
        "latency.tail_percentile": q,
        "latency.samples": len(untraced),
        "trace.overhead_ms": (statistics.median(traced) - statistics.median(untraced)) * 1e3,
    })
    for name in CLUSTER_METRICS:
        run.layer.setdefault(name, 0.0)


def _new_tracer(*, dispatcher: bool = False) -> layers.LayerTracer:
    tracer = layers.LayerTracer()
    layers.install_compile(tracer)
    layers.install_serve(tracer)
    if dispatcher:
        layers.install_dispatcher(tracer)
    return tracer


# -- compile workloads -------------------------------------------------------------


class _Sources:
    """Setup result for the compile workloads."""

    def __init__(self, run: Run) -> None:
        self.specs = gen.program_specs(run.seed, run.functions)
        self.checks = gen.check_inputs(run.seed, self.specs, run.checks)
        self.sources = gen.build_sources(self.specs)
        self.cache = None
        self.cache_dir = None

    def close(self) -> None:
        self.cache = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


class _CompileStats:
    """Accumulates traced compile and verification windows."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.compile_delta = None
        self.serve_delta = None
        self.compiles = 0
        self.wall_s = 0.0
        self.reused = self.compiled = 0
        self.disk_bytes = 0.0
        self.program = None
        self.serve_ops = 0
        self.serve_wall = 0.0
        self.serve_steps = 0
        self.replay_steps = None

    @staticmethod
    def _add(total, delta):
        if total is None:
            return delta
        return {
            part: {key: total[part].get(key, 0) + delta[part].get(key, 0)
                   for key in set(total[part]) | set(delta[part])}
            for part in delta
        }

    def add_compile(self, delta, wall_s, program, disk_bytes) -> None:
        self.compile_delta = self._add(self.compile_delta, delta)
        self.compiles += 1
        self.wall_s += wall_s
        reused, compiled = unit_totals(program)
        self.reused += reused
        self.compiled += compiled
        self.disk_bytes = disk_bytes
        self.program = program

    def verify(self, run: Run, program, checks) -> None:
        before = self.tracer.snapshot()
        start = time.perf_counter()
        steps = verify_program(run, program, checks, self.tracer)
        self.serve_wall += time.perf_counter() - start
        self.serve_delta = self._add(self.serve_delta, self.tracer.since(before))
        self.serve_ops += len(checks)
        self.serve_steps += steps
        if self.replay_steps is None:
            self.replay_steps = steps

    def metrics(self) -> dict:
        out = compile_metrics(
            self.compile_delta, compiles=self.compiles, wall_s=self.wall_s, program=self.program,
            reuse=(self.reused, self.compiled), disk_bytes=self.disk_bytes,
        )
        out.update(serve_metrics(
            self.serve_delta, ops=self.serve_ops, wall_s=self.serve_wall,
            steps=self.serve_steps, replay_steps=self.replay_steps or 0,
        ))
        return out


#: Unit stages a cold compile must not reuse anything in.  Optimize and
#: validate units legitimately hit within one compile: the pass fixpoint
#: revisits unchanged functions, and the lowered module is validated twice.
COLD_UNITS = ("typecheck", "lower", "decode", "translate")


def _cold_sample(run: Run, setup: _Sources, stats=None) -> float:
    from repro import api
    from repro.cluster import DiskCache
    from repro.runtime import ModuleCache

    sources = gen.build_sources(setup.specs)  # fresh objects: no memo survives
    cache_dir = run.mkdtemp()
    cache = ModuleCache(disk=DiskCache(cache_dir))
    before = stats.tracer.snapshot() if stats else None
    start = time.perf_counter()
    program = api.compile(sources, run.compile_config(), cache=cache)
    wall = time.perf_counter() - start
    run.attempted += 1
    units = program.diagnostics.units
    reused = {stage: units.get(stage, {}).get("reused", 0) for stage in COLD_UNITS}
    if program.diagnostics.cache.get("program") != "miss" or any(reused.values()):
        run.fail(f"cold sample: program={program.diagnostics.cache.get('program')} "
                 f"reused units {reused}, expected a miss with none reused")
    if stats:
        stats.add_compile(stats.tracer.since(before), wall, program, cache.disk.total_bytes())
        stats.verify(run, program, setup.checks)
    else:
        verify_program(run, program, setup.checks)
    shutil.rmtree(cache_dir, ignore_errors=True)
    return wall


def compile_cold(run: Run) -> None:
    setup = first_setup(run, lambda: _Sources(run))
    closed_loop_figures(run, _phase(run, lambda: _cold_sample(run, setup)))
    if run.trace:
        tracer = _new_tracer()
        try:
            stats = _CompileStats(tracer)
            traced = _phase(run, lambda: _cold_sample(run, setup, stats)).samples()
        finally:
            tracer.uninstall()
        run.layer.update(stats.metrics())
        finish_trace(run, run.latencies, traced)
    setup.close()


def _phase(run: Run, sample, count=None) -> hostspeed.Blocks:
    """``sample()``'s results, each with the wall of its whole call, called
    ``count`` times or, without one, until the phase's seconds pass (and at
    least ``run.min_samples`` times).

    A full collection before each call keeps the garbage of one sample out
    of the next; it is the benchmark's, so it is not timed.
    """

    blocks = hostspeed.Blocks()
    perf = time.perf_counter
    end = perf() + run.phase_seconds
    while blocks.count < max(run.min_samples, count or 0) or (count is None and perf() < end):
        gc.collect()
        start = perf()
        result = sample()
        blocks.add(result, busy=perf() - start)
    return blocks.close()


#: Unit stages an edit must recompile exactly once.  Typecheck checks the
#: edited function twice: in its source module and in the linked module.
EDIT_UNITS = {"typecheck": 2, "lower": 1, "validate": 1, "decode": 1, "translate": 1}


def _edit_setup(run: Run) -> _Sources:
    from repro import api
    from repro.runtime import ModuleCache

    setup = _Sources(run)
    setup.cache = ModuleCache()
    api.compile(setup.sources, run.compile_config(), cache=setup.cache)
    setup.edits = iter(gen.edit_plan(run.seed, setup.specs, 100_000))
    return setup


def _edit_sample(run: Run, setup: _Sources, stats=None) -> float:
    from repro import api

    spec = next(setup.edits)
    sources = gen.edited_sources(setup.sources, spec)
    before = stats.tracer.snapshot() if stats else None
    start = time.perf_counter()
    program = api.compile(sources, run.compile_config(), cache=setup.cache)
    wall = time.perf_counter() - start
    run.attempted += 1
    units = program.diagnostics.units
    compiled = {stage: units.get(stage, {}).get("compiled", 0) for stage in EDIT_UNITS}
    if program.diagnostics.cache.get("program") != "miss" or compiled != EDIT_UNITS:
        run.fail(f"edit sample: program={program.diagnostics.cache.get('program')} "
                 f"compiled units {compiled}, expected a miss with {EDIT_UNITS}")
    edited = f"{gen.ML_NAME}.p{spec.index}"
    x = spec.index * 7 % 2500
    checks = [(edited, (x,), gen.expect_p(spec, x))]
    checks += [check for check in setup.checks[:4] if check[0] != edited]
    if stats:
        stats.add_compile(stats.tracer.since(before), wall, program, 0.0)
        stats.verify(run, program, checks)
    else:
        verify_program(run, program, checks)
    return wall


def _edit_count(run: Run) -> int:
    """Every edit adds a program version to the cache, so peak memory
    grows with the sample count: fix it by ``--seconds``, not by speed."""

    return max(run.min_samples, round(run.phase_seconds * EDITS_PER_SECOND))


def compile_edit(run: Run) -> None:
    setup = first_setup(run, lambda: _edit_setup(run))
    closed_loop_figures(run, _phase(run, lambda: _edit_sample(run, setup), _edit_count(run)))
    if run.trace:
        tracer = _new_tracer()
        try:
            stats = _CompileStats(tracer)
            traced = _phase(run, lambda: _edit_sample(run, setup, stats), _edit_count(run)).samples()
        finally:
            tracer.uninstall()
        run.layer.update(stats.metrics())
        finish_trace(run, run.latencies, traced)
    setup.close()


# -- serving workloads ---------------------------------------------------------------


class _SessionService:
    def __init__(self, run: Run) -> None:
        from repro import api
        from repro.ffi import counter_program
        from repro.runtime import Session

        self.cases = gen.session_mix(run.seed, run.session_mix)
        self.sessions = [
            Session(calls=(("client.client_init", (case.start,)),)
                    + (("client.client_tick", ()),) * case.ticks
                    + (("client.client_total", ()),))
            for case in self.cases
        ]
        start = time.perf_counter()
        # The scenario builder runs the ML and L3 frontends.
        scenario = counter_program(gen.counter_increment(run.seed))
        program = api.compile(scenario, run.compile_config())
        self.compile_s = time.perf_counter() - start
        self.service = api.serve(program)
        self.service.warm(self.service.config.pool_size)

    def close(self) -> None:
        self.service.close()


def _sessions_phase(run: Run, setup: _SessionService,
                    seconds: float) -> tuple[hostspeed.Blocks, int]:
    """Closed loop over the session mix; returns (blocks, steps): each
    session's wall with its turn of the loop, and the engine steps."""

    service, sessions, cases = setup.service, setup.sessions, setup.cases
    blocks = hostspeed.Blocks()
    steps = 0
    perf = time.perf_counter
    end = perf() + seconds
    index = 0
    while blocks.count < run.min_samples or perf() < end:
        position = index % len(sessions)
        start = perf()
        outcome = service.run_one(sessions[position])
        wall = perf() - start
        run.attempted += 1
        steps += outcome.steps
        if not outcome.ok or outcome.values[-1] != [cases[position].total]:
            run.fail(f"session {position}: expected total {cases[position].total}, "
                     f"got ok={outcome.ok} values={outcome.values[-1:] if outcome.ok else None}")
        index += 1
        blocks.add(wall, busy=perf() - start)
    return blocks.close(), steps


def _sessions_replay(run: Run, setup: _SessionService) -> int:
    """The first ``run.replay`` sessions of the mix, once each; returns
    their engine steps, which repeat exactly for a given seed."""

    steps = 0
    for position in range(min(run.replay, len(setup.sessions))):
        outcome = setup.service.run_one(setup.sessions[position])
        run.attempted += 1
        steps += outcome.steps
        if not outcome.ok or outcome.values[-1] != [setup.cases[position].total]:
            run.fail(f"replay session {position}: expected total {setup.cases[position].total}")
    return steps


def serve_sessions(run: Run) -> None:
    setup = first_setup(run, lambda: _SessionService(run))
    gc.collect()
    closed_loop_figures(run, _sessions_phase(run, setup, run.phase_seconds)[0])
    setup.close()
    if not run.trace:
        return
    tracer = _new_tracer()
    try:
        before = tracer.snapshot()
        setup = _SessionService(run)
        run.layer.update(setup_compile_metrics(
            tracer.since(before), setup.service.compiled, wall_s=setup.compile_s,
        ))
        replay_steps = _sessions_replay(run, setup)
        gc.collect()
        before = tracer.snapshot()
        blocks, steps = _sessions_phase(run, setup, run.phase_seconds)
        traced = blocks.samples()
        delta = tracer.since(before)
        delta["counts"]["pool.created"] = setup.service.pool.stats.created
        run.layer.update(serve_metrics(
            delta, ops=len(traced), wall_s=sum(traced), steps=steps, replay_steps=replay_steps,
        ))
        setup.close()
    finally:
        tracer.uninstall()
    finish_trace(run, run.latencies, traced)


class _ClusterService:
    def __init__(self, run: Run) -> None:
        from repro import api
        from repro.runtime import Request

        self.specs = gen.program_specs(run.seed, run.functions)
        self.cases = gen.request_mix(run.seed, self.specs, run.request_mix)
        self.requests = [Request(case.export, (case.x,), case.max_steps) for case in self.cases]
        # The parent compiles into a fresh disk cache; the workers start
        # warm from it instead of recompiling.
        self.cache_dir = run.mkdtemp()
        config = run.compile_config(engine=None, workers=CLUSTER_WORKERS, cache_dir=self.cache_dir)
        self.service = api.serve(gen.build_sources(self.specs), config)

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _open_loop(run: Run, setup: _ClusterService, seconds: float,
               rate: float) -> tuple[list[float], list[float], int]:
    """Requests sent on a fixed schedule from this thread, each timed from
    the moment it was due; returns (latencies, lateness, backlog_max)."""

    dispatcher = setup.service.dispatcher
    requests, cases = setup.requests, setup.cases
    perf = time.perf_counter
    latencies: list[float] = []
    lateness: list[float] = []
    outstanding: deque = deque()
    backlog_max = 0
    first_due = perf() + 0.005
    sent = 0
    count = max(run.min_samples, int(seconds * rate))
    while sent < count or outstanding:
        now = perf()
        due = first_due + sent / rate
        if sent < count and now >= due:
            position = sent % len(requests)
            outstanding.append((dispatcher.submit(requests[position]), due, position))
            lateness.append(now - due)
            sent += 1
            backlog_max = max(backlog_max, len(outstanding))
        elif outstanding:
            request_id, due_at, position = outstanding.popleft()
            outcome = dispatcher.collect(request_id)
            latencies.append(perf() - due_at)
            run.attempted += 1
            check_outcome(run, outcome, cases[position].expected, f"request {position}")
        else:
            time.sleep(max(0.0, due - now))
    return latencies, lateness, backlog_max


def _round_trips(run: Run, setup: _ClusterService, seconds: float,
                 blocks: hostspeed.Blocks) -> hostspeed.Blocks:
    """One request at a time through the dispatcher, each wall added to
    ``blocks``.

    The latency is a closed loop, not the open loop: on a shared VM an idle
    worker can take milliseconds to wake, so an open loop from one thread
    falls behind its schedule and its latency compounds (a 0.5 ms round
    trip became a 4-60 ms open-loop median at 200-1500 requests/s).
    """

    dispatcher = setup.service.dispatcher
    perf = time.perf_counter
    end = perf() + seconds
    first = blocks.count
    while blocks.count - first < run.min_samples or perf() < end:
        position = blocks.count % len(setup.requests)
        start = perf()
        outcome = dispatcher.collect(dispatcher.submit(setup.requests[position]))
        blocks.add(perf() - start)
        run.attempted += 1
        check_outcome(run, outcome, setup.cases[position].expected, f"request {position}")
    return blocks.close()


def _saturate(run: Run, setup: _ClusterService, seconds: float,
              blocks: hostspeed.Blocks) -> hostspeed.Blocks:
    """Whole batches through ``ClusterService.run``, each batch's wall and
    request count added to ``blocks``."""

    end = time.perf_counter() + seconds
    first = blocks.count
    while blocks.count - first < 3 or time.perf_counter() < end:
        positions = [(blocks.count * run.batch + i) % len(setup.requests) for i in range(run.batch)]
        report = setup.service.run([setup.requests[p] for p in positions])
        run.attempted += len(positions)
        for position, outcome in zip(positions, report.outcomes):
            check_outcome(run, outcome, setup.cases[position].expected, f"request {position}")
        blocks.add(report.wall_s, ops=len(positions))
    return blocks.close()


def _in_process_replay(run: Run, service, setup: _ClusterService) -> tuple[list[float], int]:
    """The first ``run.replay`` requests of the mix, one at a time on an
    in-process service; returns (walls, steps)."""

    walls: list[float] = []
    steps = 0
    perf = time.perf_counter
    for position in range(min(run.replay, len(setup.requests))):
        start = perf()
        outcome = service.run_one(setup.requests[position])
        walls.append(perf() - start)
        steps += outcome.steps
        check_outcome(run, outcome, setup.cases[position].expected, f"replay {position}")
    return walls, steps


def serve_cluster(run: Run) -> None:
    from repro import api
    from repro.cluster import DiskCache

    setup = first_setup(run, lambda: _ClusterService(run))
    run.info["workers"] = setup.service.workers
    latency_seconds = run.phase_seconds * LATENCY_SHARE
    gc.collect()
    # The round trip settles into a fast or a slow state for seconds at a
    # time (0.56-0.67 ms against 0.74-0.81 ms, one state per run when the
    # latency phase ran in one piece), so the phase is split into rounds
    # between the saturating batches, and each run samples it four times.
    trips, batches = hostspeed.Blocks(), hostspeed.Blocks()
    for _ in range(CLUSTER_ROUNDS):
        trips.resume()
        _round_trips(run, setup, latency_seconds / CLUSTER_ROUNDS, trips)
        batches.resume()
        _saturate(run, setup, (run.phase_seconds - latency_seconds) / CLUSTER_ROUNDS, batches)
    run.latencies = trips.samples()
    run.latency_s = trips.latency_s()
    run.throughput = batches.rate()
    record_speed(run, trips)
    if run.trace:
        open_loop, lateness, backlog = _open_loop(run, setup, latency_seconds, OPEN_LOOP_RATE)
        local = api.serve(setup.service.compiled, workers=1)
        local_walls, _ = _in_process_replay(run, local, setup)
        stats = setup.service.stats()
        acquired = [record["pool"]["acquired"] for record in stats.workers.values()]
        setup.close()
        tracer = _new_tracer(dispatcher=True)
        try:
            before = tracer.snapshot()
            setup = _ClusterService(run)
            delta = tracer.since(before)
            run.layer.update(setup_compile_metrics(
                delta, setup.service.compiled, wall_s=delta["total_s"].get("api.compile", 0.0),
                disk_bytes=DiskCache(setup.cache_dir).total_bytes(),
            ))
            before = tracer.snapshot()
            traced = _round_trips(run, setup, latency_seconds, hostspeed.Blocks()).samples()
            delta = tracer.since(before)
            submit_us = delta["self_s"].get("dispatcher.submit", 0.0) / max(
                delta["calls"].get("dispatcher.submit", 0), 1) * 1e6
            before = tracer.snapshot()
            walls, steps = _in_process_replay(run, local, setup)
            delta = tracer.since(before)
            delta["counts"]["pool.created"] = local.pool.stats.created
            run.layer.update(serve_metrics(
                delta, ops=len(walls), wall_s=sum(walls), steps=steps, replay_steps=steps,
            ))
            setup.close()
        finally:
            tracer.uninstall()
            local.close()
        run.layer.update({
            "dispatcher.submit_us": submit_us,
            "cluster.ipc_overhead_ms":
                (statistics.median(run.latencies) - statistics.median(local_walls)) * 1e3,
            "cluster.backlog_max": backlog,
            "cluster.worker_share_max": max(acquired) / sum(acquired) if sum(acquired) else 0.0,
            "loadgen.lateness_p99_ms": percentile(lateness, 99) * 1e3,
            "cluster.open_loop_p50_ms": percentile(open_loop, 50) * 1e3,
            "cluster.open_loop_p99_ms": percentile(open_loop, 99) * 1e3,
            "cluster.open_loop_samples": len(open_loop),
        })
        finish_trace(run, run.latencies, traced)
    else:
        setup.close()


#: Each workload's setup, for the setup samples run.py takes in fresh
#: interpreters.
SETUP_FACTORIES = {
    "compile_cold": _Sources,
    "compile_edit": _edit_setup,
    "serve_sessions": _SessionService,
    "serve_cluster": _ClusterService,
}

WORKLOADS = {
    "compile_cold": compile_cold,
    "compile_edit": compile_edit,
    "serve_sessions": serve_sessions,
    "serve_cluster": serve_cluster,
}
