"""ClusterService behaviour: routing, stickiness, parity with the
in-process service, trap isolation over the wire, backpressure, and
worker-death recovery."""

import contextlib
import os
import pickle
import signal
import threading
import time

import pytest

from repro import api
from repro.cluster import (
    ClusterQueueFull,
    ClusterService,
    TRAP_KIND_WORKER_DIED,
)
from repro.cluster.worker import outcome_to_wire
from repro.ffi import counter_program
from repro.ml import MLFunction, TInt, Var, ml_module
from repro.runtime import Request, Session
from repro.wasm.interpreter import WasmTrap

ENGINES = ("tree", "flat", "compiled")


class Deadlocked(Exception):
    """Raised by :func:`wall_clock_guard`; not an ``OSError``, so no
    connection error handler can take it for a dead worker."""


@contextlib.contextmanager
def wall_clock_guard(seconds):
    """Fail, rather than hang, when the block runs past ``seconds``: the
    alarm interrupts even a write blocked on a full connection."""

    def expire(signum, frame):
        raise Deadlocked(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _session_ids_for(dispatcher, slot, count, prefix):
    """``count`` session ids that route to ``slot``."""

    ids = (f"{prefix}{i}" for i in range(10_000))
    return [
        session_id for session_id in ids
        if dispatcher.route(Session(calls=(), session_id=session_id)) == slot
    ][:count]


def _session(value, ticks=4, session_id=None):
    calls = (
        (("client.client_init", (value,)),)
        + tuple(("client.client_tick", ()) for _ in range(ticks))
        + (("client.client_total", ()),)
    )
    return Session(calls=calls, session_id=session_id)


@pytest.fixture(scope="module")
def cluster():
    with api.serve(counter_program(), {"cache": "private", "workers": 2}) as service:
        yield service


class TestSurface:
    def test_serve_workers_1_stays_in_process(self):
        service = api.serve(counter_program(), {"cache": "private", "workers": 1})
        assert not isinstance(service, ClusterService)

    def test_serve_workers_n_returns_cluster(self, cluster):
        assert isinstance(cluster, ClusterService)
        assert cluster.workers == 2
        assert "client.client_init" in cluster.exports

    def test_call_matches_in_process_and_resolves_leniently(self, cluster):
        # client_init returns no values — same surface as the in-process
        # service (parity matters more than the particular shape).
        with api.serve(counter_program(), {"cache": "private"}) as single:
            assert cluster.call("client.client_init", [5]) == single.call(
                "client.client_init", [5]
            )
            # The same export table and resolution as the in-process service.
            assert cluster.exports == single.exports
            assert cluster.resolve("client_init") == single.resolve("client_init")

    def test_call_raises_wasm_trap(self, cluster):
        with pytest.raises(WasmTrap, match="step budget"):
            cluster.call("client.client_init", [1], max_steps=1)

    def test_diagnostics_surface(self, cluster):
        assert cluster.diagnostics is not None


class TestRoutingAndParity:
    def test_sticky_sessions_route_to_one_worker(self, cluster):
        dispatcher = cluster.dispatcher
        slots = {dispatcher.route(_session(1, session_id="user-a")) for _ in range(10)}
        assert len(slots) == 1
        other = {dispatcher.route(_session(1, session_id=f"u{i}")) for i in range(32)}
        assert other == {0, 1}  # ids spread across both workers

    def test_round_robin_spreads_stateless_requests(self, cluster):
        dispatcher = cluster.dispatcher
        slots = [dispatcher.route(Request("client.client_total", ())) for _ in range(4)]
        assert sorted(set(slots)) == [0, 1]

    def test_sticky_session_state_isolated_per_worker(self, cluster):
        # Two sessions pinned to (possibly) different workers each see their
        # own counter state; re-running one id yields its own fresh pooled
        # instance each time (sessions are stateful within, not across).
        first = cluster.session(_session(10, session_id="pin-1").calls, session_id="pin-1")
        second = cluster.session(_session(20, session_id="pin-2").calls, session_id="pin-2")
        assert first.ok and second.ok
        assert first.values[-1] == [14]
        assert second.values[-1] == [24]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_three_engine_parity_with_in_process_service(self, engine):
        sessions = [_session(i, session_id=f"s{i}") for i in range(4)]
        with api.serve(counter_program(), {"cache": "private", "engine": engine}) as single:
            baseline = single.run([_session(i, session_id=f"s{i}") for i in range(4)])
        with api.serve(
            counter_program(), {"cache": "private", "engine": engine, "workers": 2}
        ) as clustered:
            report = clustered.run(sessions)
        assert baseline.ok_count == report.ok_count == 4
        assert [o.values for o in baseline.outcomes] == [o.values for o in report.outcomes]
        assert [o.steps for o in baseline.outcomes] == [o.steps for o in report.outcomes]

        # One batch large enough to span several chunks per worker: sticky
        # sessions on both slots, stateless requests and step-budget traps
        # (standalone and mid-session), plus an unknown export forced past
        # parent-side resolution into the middle of a chunk.
        mix = []
        for i in range(320):
            kind = i % 5
            if kind == 0:
                mix.append(_session(i, ticks=i % 7, session_id=f"big{i}"))
            elif kind == 1:
                mix.append(Request("client.client_init", (i,)))
            elif kind == 2:
                mix.append(Request("client.client_init", (i,), 2))  # blown budget
            elif kind == 3:
                mix.append(Request("client.client_total", ()))  # traps
            else:
                session = _session(i, ticks=6, session_id=f"big{i}")
                mix.append(Session(calls=session.calls, max_steps=700, session_id=f"big{i}"))
        bogus = 161
        with api.serve(counter_program(), {"cache": "private", "engine": engine}) as single:
            baseline = single.run(mix).outcomes
        with api.serve(
            counter_program(), {"cache": "private", "engine": engine, "workers": 2}
        ) as clustered:
            routed = {clustered.dispatcher.route(r) for r in mix if isinstance(r, Session)}
            assert routed == {0, 1}
            outcomes = clustered.dispatcher.run(
                mix[:bogus] + [Request("no.such_export", ())] + mix[bogus:]
            ).outcomes
        assert len(outcomes) == len(mix) + 1
        error = outcomes.pop(bogus)
        assert not error.ok and error.trap_kind == "worker_error"
        assert "no.such_export" in error.trap
        # client_total before client_init traps as unreachable.
        assert {o.trap_kind for o in baseline} == {None, "step_budget", "unreachable"}
        assert [o.request for o in outcomes] == mix
        assert [o.ok for o in outcomes] == [o.ok for o in baseline]
        assert [o.values for o in outcomes] == [o.values for o in baseline]
        assert [o.trap_kind for o in outcomes] == [o.trap_kind for o in baseline]
        assert [o.steps for o in outcomes] == [o.steps for o in baseline]


class TestTrapIsolation:
    def test_trap_comes_back_typed_and_isolated(self, cluster):
        report = cluster.run([
            _session(7, session_id="iso-a"),
            Request("client.client_init", (1,), 2),  # blown step budget
            _session(7, session_id="iso-b"),
        ])
        ok_outcomes = [o for o in report.outcomes if o.ok]
        trapped = [o for o in report.outcomes if not o.ok]
        assert len(ok_outcomes) == 2 and len(trapped) == 1
        assert trapped[0].trap_kind == "step_budget"
        assert ok_outcomes[0].values == ok_outcomes[1].values

    def test_unknown_export_is_worker_error_not_crash(self, cluster):
        # Export resolution is parent-side, so force a bogus name through
        # the dispatcher directly: the worker reports a protocol error and
        # keeps serving.
        outcome = cluster.dispatcher.run_one(Request("no.such_export", ()))
        assert not outcome.ok
        assert outcome.trap_kind == "worker_error"
        followup = cluster.session(_session(3).calls, session_id="after-error")
        assert followup.ok and followup.values[-1] == [7]

    def test_arity_mismatch_is_worker_error_not_crash(self, cluster):
        # A call with surplus (or missing) arguments is malformed, like an
        # unknown export: that item fails as a worker error naming the
        # function and both counts, and the worker keeps serving.
        for request in (Request("client.client_tick", (1,)), Request("client.client_init", ())):
            outcome = cluster.dispatcher.run_one(request)
            assert not outcome.ok
            assert outcome.trap_kind == "worker_error"
            expected = "takes 0 arguments, called with 1" if request.args else "takes 1 argument, called with 0"
            assert expected in outcome.trap
        session = Session(calls=(("client.client_init", (1,)), ("client.client_tick", (1,))),
                          session_id="bad-arity")
        assert cluster.dispatcher.run_one(session).trap_kind == "worker_error"
        followup = cluster.session(_session(3).calls, session_id="after-arity")
        assert followup.ok and followup.values[-1] == [7]


class TestBackpressure:
    def test_fail_mode_raises_cluster_queue_full(self):
        with ClusterService(
            api.compile(counter_program(), {"cache": "private"}),
            api.CompileConfig(workers=2, cache="private"),
            queue_depth=1, backpressure="fail",
        ) as service:
            dispatcher = service.dispatcher
            slot0, slot1 = (_session_ids_for(dispatcher, slot, 1, "qf")[0] for slot in (0, 1))
            first = dispatcher.submit(_session(1, session_id=slot0))
            # One session is unanswered on slot 0 (its reply, if written, is
            # not read yet), so its next submit raises; slot 1 still takes
            # one.
            with pytest.raises(ClusterQueueFull, match="worker 0 has 1 unanswered"):
                dispatcher.submit(_session(2, session_id=slot0))
            other = dispatcher.collect(dispatcher.submit(_session(3, session_id=slot1)))
            assert other.ok and other.values[-1] == [7]
            assert dispatcher.collect(first).values[-1] == [5]
            # Answered, the slot takes a submit again.
            again = dispatcher.collect(dispatcher.submit(_session(4, session_id=slot0)))
            assert again.ok and again.values[-1] == [8]

    def test_block_mode_run_completes_past_queue_depth(self):
        with ClusterService(
            api.compile(counter_program(), {"cache": "private"}),
            api.CompileConfig(workers=2, cache="private"),
            queue_depth=2,
        ) as service:
            report = service.run([_session(i, session_id=f"bp{i}") for i in range(12)])
        assert report.ok_count == 12


class TestLargeChunks:
    """Chunks and replies larger than a connection's buffer: the parent must
    not block writing a chunk while the worker blocks writing a reply."""

    CALLS = 48_000  # per session: about 670 KB written, 380 KB replied

    @pytest.fixture(scope="class")
    def echo(self):
        return api.compile(
            ml_module("echo", functions=[MLFunction("echo", "x", TInt(), TInt(), Var("x"))]),
            {"cache": "private"},
        )

    def _batch(self, dispatcher):
        # Two sessions a slot, so each worker gets two one-session chunks.
        batch = []
        for slot in (0, 1):
            for n, session_id in enumerate(_session_ids_for(dispatcher, slot, 2, "big")):
                base = 1_000_000 * (2 * slot + n + 1)
                batch.append(Session(
                    calls=tuple(("echo.echo", (base + i,)) for i in range(self.CALLS)),
                    session_id=session_id,
                ))
        return batch

    def test_block_mode_completes(self, echo):
        with ClusterService(echo, api.CompileConfig(workers=2, cache="private")) as service:
            dispatcher = service.dispatcher
            batch = self._batch(dispatcher)
            sndbuf = 4 * service.pool.handles[0].byte_bound
            chunk = pickle.dumps(
                {"op": "batch", "items": [dispatcher._wire_item(batch[0], 0, None)]})
            with wall_clock_guard(60):
                report = dispatcher.run(batch)
            assert report.ok_count == len(batch)
            for request, outcome in zip(batch, report.outcomes):
                assert outcome.values == [[args[0]] for _, args in request.calls]
            reply = pickle.dumps({"op": "results", "items": [
                {"id": 0, "outcome": outcome_to_wire(report.outcomes[0])}]})
            # Both directions overflow the socket buffer, by a margin wider
            # than the one write the kernel lets past it.
            assert len(chunk) > 1.5 * sndbuf and len(reply) > 1.5 * sndbuf

    def test_fail_mode_raises_instead_of_hanging(self, echo):
        with ClusterService(
            echo, api.CompileConfig(workers=2, cache="private"), backpressure="fail",
        ) as service:
            batch = self._batch(service.dispatcher)
            with wall_clock_guard(60), pytest.raises(ClusterQueueFull, match="byte bound"):
                service.dispatcher.run(batch)


class TestWorkerDeath:
    def test_kill_mid_stream_fails_typed_then_respawns(self):
        with api.serve(counter_program(), {"cache": "private", "workers": 2}) as service:
            dispatcher = service.dispatcher
            victim_session = _session(1, ticks=50_000, session_id="victim")
            slot = dispatcher.route(victim_session)
            handle = service.pool.handles[slot]
            request_id = dispatcher.submit(victim_session)
            time.sleep(0.2)  # let the worker pick the session up mid-stream
            handle.process.kill()
            outcome = dispatcher.collect(request_id)
            assert not outcome.ok
            assert outcome.trap_kind == TRAP_KIND_WORKER_DIED
            assert "died" in outcome.trap
            assert service.pool.respawns == 1

            # Only the dead worker's in-flight request failed: the respawned
            # slot (same sticky id) and the surviving slot both serve again.
            service.pool.wait_ready()
            retry = service.session(
                _session(3, session_id="victim").calls, session_id="victim"
            )
            assert retry.ok and retry.values[-1] == [7]
            other = service.run([_session(i, session_id=f"after{i}") for i in range(4)])
            assert other.ok_count == 4

    def test_kill_mid_batch_fails_only_the_dead_workers_chunks(self):
        with api.serve(counter_program(), {"cache": "private", "workers": 2}) as service:
            dispatcher = service.dispatcher
            by_slot = {0: [], 1: []}
            for i in range(64):
                session_id = f"mid{i}"
                by_slot[dispatcher.route(_session(0, session_id=session_id))].append(session_id)
            victim = 0
            # Eight sessions a slot, interleaved, two to a chunk.  The
            # victim's first chunk runs for seconds on any engine, so it is
            # in flight at the kill.  Its later chunks are short: being larger
            # than the byte bound, that first chunk holds them back until it
            # is answered, so the replacement worker serves them.  The
            # survivor's are short enough to keep the test quick.
            batch, expected = [], []
            for i, (victim_id, survivor_id) in enumerate(zip(by_slot[0][:8], by_slot[1][:8])):
                ticks = 50_000 if i < 2 else 100
                batch.append(_session(i, ticks=ticks, session_id=victim_id))
                expected.append([i + ticks])
                batch.append(_session(i, ticks=1_000, session_id=survivor_id))
                expected.append([i + 1_000])
            killer = threading.Timer(0.3, service.pool.handles[victim].process.kill)
            killer.start()
            try:
                report = dispatcher.run(batch)
            finally:
                killer.cancel()

            assert len(report.outcomes) == len(batch)
            died = 0
            for request, outcome, values in zip(batch, report.outcomes, expected):
                assert outcome.request is request
                if dispatcher.route(request) == victim:
                    if not outcome.ok:
                        assert outcome.trap_kind == TRAP_KIND_WORKER_DIED
                        died += 1
                        continue
                assert outcome.ok and outcome.values[-1] == values
            assert died >= 1
            assert service.pool.respawns == 1

            after = service.run([_session(i, session_id=f"mid{i}") for i in range(8)])
            assert after.ok_count == 8
            assert [o.values[-1] for o in after.outcomes] == [[i + 4] for i in range(8)]

    def test_crash_op_kills_worker_without_cleanup(self):
        # The deterministic fault injection the wire protocol ships with.
        with api.serve(counter_program(), {"cache": "private", "workers": 2}) as service:
            handle = service.pool.handles[0]
            pid_before = handle.process.pid
            handle.conn.send({"op": "crash"})
            handle.process.join(timeout=10)
            assert not handle.alive
            # The next submit to that slot reaps + respawns transparently.
            outcome = service.dispatcher.run_one(
                _session(2, session_id="zz") if service.dispatcher.route(_session(2, session_id="zz")) == 0
                else Request("client.client_init", (2,))
            )
            assert outcome.ok
            assert service.pool.respawns >= 1
            live = [h.process.pid for h in service.pool.handles if h.alive]
            assert len(live) == 2 and pid_before not in live


    def test_crash_in_flight_after_sibling_respawn_reads_as_eof(self, monkeypatch):
        with api.serve(counter_program(), {"cache": "private", "workers": 2}) as service:
            dispatcher, pool = service.dispatcher, service.pool
            victim, sibling = pool.handles
            victim_id = _session_ids_for(dispatcher, 0, 1, "eof")[0]
            sibling_id = _session_ids_for(dispatcher, 1, 1, "eof")[0]
            # Respawn the sibling first: a forked replacement inherits
            # whatever the parent holds of the victim's connection.
            sibling.conn.send({"op": "crash"})
            sibling.process.join(timeout=10)
            assert dispatcher.run_one(_session(2, session_id=sibling_id)).ok
            pool.wait_ready()
            assert pool.respawns == 1

            # Only EOF on the connection may find the death: no idle reaper,
            # and a short result timeout instead of a hang.
            monkeypatch.setattr(dispatcher, "_reap_dead", lambda: None)
            dispatcher.result_timeout = 20.0
            request_id = dispatcher.submit(_session(1, ticks=50_000, session_id=victim_id))
            os.kill(victim.process.pid, signal.SIGKILL)
            outcome = dispatcher.collect(request_id)
            assert not outcome.ok and outcome.trap_kind == TRAP_KIND_WORKER_DIED
            assert pool.respawns == 2
            pool.wait_ready()

            # The other direction: once the parent closes its end of a
            # worker's connection, that worker reads EOF and exits, though
            # the victim's replacement was forked after that connection
            # was made.
            sibling.conn.close()
            sibling.process.join(timeout=10)
            assert not sibling.process.is_alive()


class TestSpawnStartMethod:
    def test_round_trip_batch_and_respawn(self):
        with ClusterService(
            api.compile(counter_program(), {"cache": "private"}),
            api.CompileConfig(workers=2, cache="private"),
            start_method="spawn",
        ) as service:
            assert service.pool.context.get_start_method() == "spawn"
            assert service.call("client.client_init", [5]) == []
            report = service.run([_session(i, session_id=f"sp{i}") for i in range(8)])
            assert [o.values[-1] for o in report.outcomes] == [[i + 4] for i in range(8)]

            handle = service.pool.handles[0]
            pid_before = handle.process.pid
            handle.conn.send({"op": "crash"})
            handle.process.join(timeout=10)
            session_id = _session_ids_for(service.dispatcher, 0, 1, "sp-after")[0]
            outcome = service.session(_session(3).calls, session_id=session_id)
            assert outcome.ok and outcome.values[-1] == [7]
            assert service.pool.respawns == 1
            assert handle.process.pid != pid_before


class TestStats:
    def test_stats_aggregate_workers_and_metrics(self, cluster):
        cluster.run([_session(i, session_id=f"st{i}") for i in range(4)])
        stats = cluster.stats()
        assert set(stats.workers) == {0, 1}
        for record in stats.workers.values():
            assert record["pid"] > 0
            assert "pool" in record and "metrics" in record
        merged = {entry["name"]: entry for entry in stats.metrics}
        assert "runtime.requests" in merged
        per_worker_total = sum(
            entry["value"]
            for record in stats.workers.values()
            for entry in record["metrics"]
            if entry["name"] == "runtime.requests"
        )
        assert merged["runtime.requests"]["value"] == per_worker_total
