"""Networked serving boundary: frame protocol, retries, idempotency,
crash recovery.

Everything deterministic runs on one shared
:class:`~repro.serve.ManualClock`: the session, the loopback server,
the retrying client and the fault injector all read it, and the
client's ``pump`` drives the server's event loop in-process — no
threads, no sleeps, no real timeouts.  The invariants extend the chaos
suite's across the wire:

- every ``ok`` result bit-identical to the job's solo in-process run,
  under drop/duplicate/delay/truncate frame faults and across a
  kill-and-restart;
- a retried idempotency key never double-executes (at-most-once
  execution under at-least-once delivery);
- refusals — backpressure, draining, expired deadlines, exhausted
  retries — are structured ServeErrors, never hangs or silence.
"""

import copy
import os
import threading

import numpy as np
import pytest

from repro.serve import (AdmissionError, DeadlineError, FaultInjector,
                         FaultSpec, Journal, ManualClock, RetryError,
                         ServeSession, ShedError, assign_arrivals,
                         build_workload, default_net_chaos_specs, inject)
from repro.serve.net import (FrameParser, ProtocolError, ServeClient,
                             ServeServer, encode_frame, replay_net,
                             verify_net_parity)
from repro.serve.workload import replay_sequential

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

SPEC = {
    "version": 1, "name": "net-tiny", "seed": 5, "steps": 3,
    "attack_model": {"arch": "resnet", "num_classes": 6, "width": 4,
                     "image_size": 12},
    "edge_model": {"arch": "lenet", "num_classes": 6, "width": 4,
                   "image_size": 12, "in_channels": 1},
    "jobs": [
        {"kind": "diva", "rows": 4, "c": 1.0},
        {"kind": "predict", "rows": 8},
        {"kind": "pgd", "rows": 4, "eps": 8 / 255},
        {"kind": "predict_float", "rows": 6},
        {"kind": "fgsm", "rows": 4},
        {"kind": "cw", "rows": 3, "kappa": 0.0},
        {"kind": "nes", "rows": 2, "steps": 2, "n_samples": 2},
        {"kind": "predict", "rows": 8},
    ],
}


@pytest.fixture(scope="module")
def wl():
    spec = assign_arrivals(copy.deepcopy(SPEC), rate_hz=50.0, tenants=3)
    return build_workload(spec)


@pytest.fixture(scope="module")
def ref(wl):
    return replay_sequential(wl)["results"]


def _loopback(wl, **server_kw):
    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock)
    server = ServeServer(session, spec=wl.spec,
                         models=(wl.original, wl.adapted, wl.edge),
                         **server_kw)
    client = ServeClient(server.host, server.port, clock=clock,
                         attempt_timeout_s=0.25, pump=server.poll)
    return clock, session, server, client


def _check_identical(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)


# --------------------------------------------------------------------- #
# frame protocol
# --------------------------------------------------------------------- #

def test_frame_roundtrip_exact():
    arrays = {"x": np.arange(12, dtype=np.float32).reshape(3, 4),
              "y": np.array([1, 2, 3], dtype=np.int64)}
    raw = encode_frame({"op": "submit", "key": "k", "job": {"kind": "pgd"}},
                       arrays)
    parser = FrameParser()
    parser.feed(raw)
    (header, back, echoed), = parser.frames()
    assert header["op"] == "submit" and header["job"] == {"kind": "pgd"}
    assert echoed == raw and not parser.partial
    for name in arrays:
        _check_identical(arrays[name], back[name])


def test_frame_parser_waits_on_partial_and_splits():
    raw = encode_frame({"op": "health", "key": "a"}) + \
        encode_frame({"op": "ready", "key": "b"})
    parser = FrameParser()
    parser.feed(raw[:len(raw) // 2])
    got = [h["key"] for h, _, _ in parser.frames()]
    parser.feed(raw[len(raw) // 2:])
    got += [h["key"] for h, _, _ in parser.frames()]
    assert got == ["a", "b"] and not parser.partial


def test_frame_parser_refuses_corruption():
    raw = bytearray(encode_frame({"op": "health", "key": "a"}))
    raw[-1] ^= 0xFF                      # flip a payload byte: CRC must trip
    parser = FrameParser()
    parser.feed(bytes(raw))
    with pytest.raises(ProtocolError):
        list(parser.frames())
    bad_magic = b"XX" + encode_frame({"op": "health", "key": "a"})[2:]
    fresh = FrameParser()
    fresh.feed(bad_magic)
    with pytest.raises(ProtocolError):
        list(fresh.frames())


# --------------------------------------------------------------------- #
# loopback parity, clean and under chaos
# --------------------------------------------------------------------- #

def test_loopback_bit_parity_clean(wl, ref):
    out = verify_net_parity(wl, rate=20.0, reference=ref)
    assert out["outcome_counts"] == {"ok": len(wl.jobs)}
    assert out["retried"] == 0 and out["deduped"] == 0


def test_loopback_chaos_bit_parity_and_determinism(wl, ref):
    runs = [verify_net_parity(wl, fault_specs=default_net_chaos_specs(),
                              seed=FAULT_SEED, rate=20.0, reference=ref)
            for _ in range(2)]
    a, b = runs
    # the parity gate inside verify_net_parity already asserted every ok
    # job bit-identical and every refusal structured; here: determinism
    assert a["outcome_counts"] == b["outcome_counts"]
    assert a["retried"] == b["retried"] and a["deduped"] == b["deduped"]
    assert a["faults_fired"] == b["faults_fired"]
    lossy = sum(a["faults_fired"].get(pt, {}).get(kind, 0)
                for pt in ("net.client.send", "net.client.recv")
                for kind in ("drop", "truncate"))
    if lossy:                       # every lost frame must have been retried
        assert a["retried"] > 0


def test_retries_never_double_execute(wl, ref):
    out = verify_net_parity(wl, fault_specs=default_net_chaos_specs(),
                            seed=FAULT_SEED, rate=20.0, reference=ref)
    # at-most-once execution: duplicated/retried frames collapse onto
    # one accept per idempotency key, and every key resolves
    assert out["server"]["accepted"] == len(wl.jobs)
    assert sum(out["server"]["outcome_counts"].values()) == len(wl.jobs)
    assert out["client"]["frames_sent"] >= len(wl.jobs)


def test_idempotency_window_serves_recorded_bytes(wl, ref):
    _clock, session, server, client = _loopback(wl)
    try:
        job = wl.jobs[0]
        fut = client.submit(job.record, job.x, job.y, tenant=job.tenant)
        _check_identical(fut.result(), ref[0])
        key = next(iter(client._requests))
        # re-send the same key: served from the window, never re-run
        dispatches_before = len(session.dispatch_log)
        client._futures[key] = fut.__class__(
            lambda timeout=None: client._await(key, timeout))
        client._transmit(client._requests[key])
        _check_identical(client._futures[key].result(), ref[0])
        assert server.deduped == 1 and server.accepted == 1
        assert len(session.dispatch_log) == dispatches_before
    finally:
        client.close()
        server.shutdown()


# --------------------------------------------------------------------- #
# backpressure, drain, probes
# --------------------------------------------------------------------- #

def test_draining_server_sheds_new_work_structurally(wl, ref):
    _clock, _session, server, client = _loopback(wl)
    try:
        accepted = client.submit(wl.jobs[0].record, wl.jobs[0].x,
                                 wl.jobs[0].y)
        server.poll(drain=False)          # accepted before the drain begins
        server.begin_drain()
        assert client.ready() is False and client.health() is True
        refused = client.submit(wl.jobs[2].record, wl.jobs[2].x,
                                wl.jobs[2].y)
        with pytest.raises(ShedError):
            refused.result()
        assert refused.outcome == "rejected"
        # the accepted job keeps its promise through the drain
        _check_identical(accepted.result(), ref[0])
    finally:
        client.close()
        server.shutdown()


@pytest.mark.parametrize("field,value", [("eps", float("nan")),
                                         ("alpha", float("nan")),
                                         ("steps", 2.7)])
def test_invalid_budget_rejected_at_submit(wl, field, value):
    """JSON carries NaN and fractional step counts: the attack's own
    budget validation refuses them at submit time, structurally."""
    _clock, _session, server, client = _loopback(wl)
    try:
        rec = dict(wl.jobs[2].record, **{field: value})
        fut = client.submit(rec, wl.jobs[2].x, wl.jobs[2].y)
        with pytest.raises(Exception, match="ValueError"):
            fut.result()
        assert fut.outcome == "rejected"
    finally:
        client.close()
        server.shutdown()


def test_graceful_shutdown_flushes_accepted_work(wl, ref):
    _clock, _session, server, client = _loopback(wl)
    futs = [client.submit(j.record, j.x, j.y, tenant=j.tenant)
            for j in wl.jobs[:3]]
    server.poll(drain=False)
    server.shutdown(drain=True)           # drains, settles, flushes, closes
    try:
        for i, fut in enumerate(futs):
            _check_identical(fut.result(), ref[i])
    finally:
        client.close()
    # the server is gone: a new submit exhausts its retries structurally
    late = client.submit(wl.jobs[3].record, wl.jobs[3].x)
    with pytest.raises(RetryError):
        late.result()


def test_admission_backpressure_crosses_the_wire(wl):
    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock, max_pending_jobs=1)
    server = ServeServer(session, spec=wl.spec,
                         models=(wl.original, wl.adapted, wl.edge))
    client = ServeClient(server.host, server.port, clock=clock,
                         attempt_timeout_s=0.25, pump=server.poll)
    try:
        first = client.submit(wl.jobs[0].record, wl.jobs[0].x, wl.jobs[0].y)
        second = client.submit(wl.jobs[2].record, wl.jobs[2].x,
                               wl.jobs[2].y)
        outcomes = set()
        for fut in (first, second):
            try:
                fut.result()
            except AdmissionError:
                pass
            outcomes.add(fut.outcome)
        assert outcomes == {"ok", "rejected"}
    finally:
        client.close()
        server.shutdown()


# --------------------------------------------------------------------- #
# deadlines: bounded waits end in DeadlineError, in- and cross-process
# --------------------------------------------------------------------- #

def test_result_timeout_raises_structured_deadline_error(wl, ref):
    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock)
    job = wl.jobs[0]
    fut = session.submit_attack(job.make_attack(), job.x, job.y)
    with pytest.raises(DeadlineError):
        fut.result(timeout=0.0)           # zero budget: no dispatch round
    assert not fut.done                   # still pending, not failed
    _check_identical(fut.result(), ref[0])


def test_client_overall_timeout_raises_deadline_error(wl):
    _clock, _session, server, client = _loopback(wl)
    client.max_retries = 50
    try:
        silent = client.submit(wl.jobs[0].record, wl.jobs[0].x,
                               wl.jobs[0].y)
        client.pump = lambda: 0           # the server never answers
        with pytest.raises(DeadlineError):
            silent.result(timeout=0.1)
        assert not silent.done            # the wait expired, not the job
    finally:
        client.close()
        server.kill()


def test_bounded_wait_inside_an_attempt_neither_retries_nor_resends(wl,
                                                                     ref):
    clock, _session, server, client = _loopback(wl)   # attempt: 0.25 s
    try:
        job = wl.jobs[0]
        fut = client.submit(job.record, job.x, job.y)
        sent, t0 = client.frames_sent, clock.now()
        pump, client.pump = client.pump, (lambda: 0)  # server silent
        with pytest.raises(DeadlineError):
            fut.result(timeout=0.1)
        # the wait ended at its own deadline: no attempt spent, no
        # backoff slept, no duplicate frame on the wire
        assert client.retries == 0 and client.timeouts == 0
        assert client.frames_sent == sent
        assert clock.now() - t0 == pytest.approx(0.1)
        client.pump = pump
        _check_identical(fut.result(), ref[0])
        assert server.stats["accepted"] == 1
        assert server.stats["deduped"] == 0
    finally:
        client.close()
        server.kill()


def test_dropped_frame_heals_through_short_bounded_waits(wl, ref):
    clock, _session, server, client = _loopback(wl)   # attempt: 0.25 s
    inj = FaultInjector([FaultSpec("net.client.send", "drop", rate=1.0,
                                   max_fires=1)], seed=FAULT_SEED,
                        clock=clock)
    try:
        job = wl.jobs[0]
        with inject(inj):
            fut = client.submit(job.record, job.x, job.y)   # lost
            expired = 0
            while True:
                try:
                    got = fut.result(timeout=0.05)
                    break
                except DeadlineError:
                    expired += 1
                    assert expired < 40, "the lost frame was never re-sent"
        # the attempt deadline carried across the waits: one re-send,
        # once 0.25 s of total waiting had passed
        assert expired >= 4
        assert client.retries == 1
        _check_identical(got, ref[0])
    finally:
        client.close()
        server.kill()


# --------------------------------------------------------------------- #
# journal: kill-and-restart replays bit-identically
# --------------------------------------------------------------------- #

def test_kill_restart_recovers_bit_identically(wl, ref, tmp_path):
    path = str(tmp_path / "serve.journal")
    clock = ManualClock()
    session = ServeSession(capacity=64, clock=clock)
    first = ServeServer(session, spec=wl.spec,
                        models=(wl.original, wl.adapted, wl.edge),
                        journal_path=path)
    client = ServeClient(first.host, first.port, clock=clock,
                         attempt_timeout_s=0.25, pump=first.poll)
    futs = [client.submit(j.record, j.x, j.y, tenant=j.tenant)
            for j in wl.jobs[:3]]
    first.poll()                          # batch 1 completed + journaled
    futs += [client.submit(j.record, j.x, j.y, tenant=j.tenant)
             for j in wl.jobs[3:]]
    first.poll(drain=False)               # batch 2 accepted, never served
    assert first.stats["inflight"] == len(wl.jobs) - 3
    first.kill()                          # crash: nothing drains or flushes

    second = ServeServer(ServeSession(capacity=64, clock=clock),
                         spec=wl.spec,
                         models=(wl.original, wl.adapted, wl.edge),
                         journal_path=path, port=first.port)
    assert second.recovered_completed == 3
    assert second.recovered_incomplete == len(wl.jobs) - 3
    client.pump = second.poll
    try:
        for i, fut in enumerate(futs):
            _check_identical(fut.result(), ref[i])
        assert client.retries >= len(wl.jobs) - 3
        # the journal's outcome breakdown is the client-visible truth
        assert Journal.breakdown(path) == {"ok": len(wl.jobs)}
    finally:
        client.close()
        second.shutdown()


def test_journal_scan_tolerates_torn_tail_only(tmp_path):
    path = str(tmp_path / "torn.journal")
    with Journal(path) as journal:
        journal.accept("k0", {"op": "submit", "key": "k0"},
                       {"x": np.zeros((1, 2), dtype=np.float32)})
        journal.complete("k0", "ok", {"op": "result", "key": "k0"}, {})
        journal.accept("k1", {"op": "submit", "key": "k1"},
                       {"x": np.ones((1, 2), dtype=np.float32)})
    with open(path, "a") as fh:
        fh.write('{"type": "accept", "key": "k2", "he')   # died mid-write
    incomplete, completed = Journal.scan(path)
    assert list(completed) == ["k0"] and list(incomplete) == ["k1"]
    # the same torn line anywhere else is corruption, not a crash tail
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join([lines[-1]] + lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        Journal.scan(path)


# --------------------------------------------------------------------- #
# load generation
# --------------------------------------------------------------------- #

def test_assign_arrivals_deterministic_and_optional():
    a = assign_arrivals(copy.deepcopy(SPEC), rate_hz=50.0, tenants=3)
    b = assign_arrivals(copy.deepcopy(SPEC), rate_hz=50.0, tenants=3)
    assert [j["arrival_offset_s"] for j in a["jobs"]] == \
        [j["arrival_offset_s"] for j in b["jobs"]]
    assert len({j["tenant"] for j in a["jobs"]}) == 3
    # per-tenant offsets are monotone (each tenant is its own process)
    by_tenant = {}
    for j in a["jobs"]:
        assert j["arrival_offset_s"] > by_tenant.get(j["tenant"], -1.0)
        by_tenant[j["tenant"]] = j["arrival_offset_s"]
    # old specs (no offsets) still materialize: everything arrives at 0
    legacy = build_workload(copy.deepcopy(SPEC))
    assert all(j.arrival_offset_s == 0.0 for j in legacy.jobs)


def test_replay_rate_compresses_simulated_time(wl, ref):
    slow = verify_net_parity(wl, rate=10.0, reference=ref)
    fast = verify_net_parity(wl, rate=100.0, reference=ref)
    assert slow["outcome_counts"] == fast["outcome_counts"]
    # 10x vs 100x replay: simulated makespan shrinks ~10x (clock moves
    # only on arrival gaps in a fault-free replay)
    assert slow["clock_s"] > 5 * fast["clock_s"] > 0


# --------------------------------------------------------------------- #
# a real socket server on a real thread (the --listen/--connect shape)
# --------------------------------------------------------------------- #

def test_threaded_server_real_clock_roundtrip(wl, ref):
    server = ServeServer(ServeSession(capacity=64), spec=wl.spec,
                         models=(wl.original, wl.adapted, wl.edge))
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    client = ServeClient(server.host, server.port, attempt_timeout_s=10.0)
    try:
        assert client.health() and client.ready()
        futs = [(i, client.submit(wl.jobs[i].record, wl.jobs[i].x,
                                  wl.jobs[i].y))
                for i in (0, 1, 3)]
        for i, fut in futs:
            _check_identical(fut.result(), ref[i])
        stats = client.server_stats()
        assert stats["accepted"] == 3
        assert client.shutdown_server()
    finally:
        client.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
