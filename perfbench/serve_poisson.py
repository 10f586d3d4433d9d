"""``serve_poisson``: an open loop through the real network front end.

A :class:`ServeServer` runs in a child process (``serve_child.py``).
One :class:`ServeClient` connection in this process submits the recorded
mixed job kinds (diva/pgd/cw/fgsm/nes/predict/predict_float) at seeded
Poisson arrival times, and each job is timed from when it was due, not
from when it was sent.  This is the multi-tenant path: queueing,
coalescing, plan-cache reuse, frames and per-drain overhead show here.

The client is driven only through its public API, the way a
single-threaded open-loop caller must drive it: submit when a job is
due, otherwise wait on the oldest pending future with ``result(timeout=
time until the next arrival)``.  That exposes a client defect instead of
dodging it: when such a bounded wait reaches its deadline mid-attempt,
``ServeClient._await`` counts a failed attempt, re-sends the frame and
sleeps a 25-50 ms backoff before raising ``DeadlineError``.  The re-sends
show as ``net.client_retries`` (and ``net.deduped`` on the server) and
the sleeps as ``loadgen.lag_p95_ms``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from .common import Result, clock, rng, spans_path
from .metrics import (goodput_rows_per_s, median, ok_frac,
                      open_loop_latency_ms, slo_met_frac, tail_percentile)

#: mean arrival rate of the Poisson process, jobs per second
RATE_HZ = 8.0
#: latency limit for ``slo_met_frac`` and the goodput ``rows_per_s``
LIMIT_MS = 250.0
#: a send this much after its due time counts as late (``loadgen.late_frac``)
LATE_MS = 10.0
#: wait for stragglers after the last arrival before calling them lost
DRAIN_BUDGET_S = 30.0
#: child set-up budget (every set-up plus interpreter start)
READY_TIMEOUT_S = 120.0
ATTACK_KINDS = frozenset({"diva", "pgd", "cw", "fgsm", "nes"})


def make_spec(n_jobs: int) -> Dict:
    """The recorded mixed workload cut to ``n_jobs`` jobs.  Its seed
    stays 0, so the server builds the same models on every run: the
    untrained width-8 resnet pair and the int8 lenet the serve specs and
    bench fixtures use."""
    from repro.serve.workload import mixed_workload_spec

    cycle = len(mixed_workload_spec(scale=1)["jobs"])
    spec = mixed_workload_spec(scale=math.ceil(n_jobs / cycle), seed=0)
    spec["jobs"] = spec["jobs"][:n_jobs]
    spec["name"] = f"perfbench-serve-poisson-{n_jobs}"
    return spec


def seeded_payloads(workload, seed: int) -> None:
    """Replace every job's inputs with ones drawn from the run seed;
    attack labels are the original model's own predictions, as in
    ``build_workload``."""
    from repro.training import predict_labels

    for i, job in enumerate(workload.jobs):
        job.x = rng(seed, 11, i).random(job.x.shape).astype(job.x.dtype)
        if job.y is not None:
            job.y = predict_labels(workload.original, job.x)


def arrival_offsets(seed: int, kinds: List[str], rate_hz: float
                    ) -> np.ndarray:
    """Seeded Poisson arrivals at ``rate_hz``, stratified by the kind of
    the job before each gap.

    Every gap is exponential with mean 1/rate.  The gaps that follow
    jobs of one kind take one draw from each of as many
    equal-probability slices of that distribution, in seeded order.
    Every run thus offers the same load, and each job kind is followed
    by the same mix of short and long gaps; the seed decides where the
    bursts fall.  With independent gaps the offered load, and how often
    a heavy job meets a burst, would move from run to run by about
    1/sqrt(jobs).
    """
    r = rng(seed, 7)
    after = ["start"] + list(kinds[:-1])
    gaps = np.empty(len(kinds))
    for kind in sorted(set(after)):
        idx = [i for i, k in enumerate(after) if k == kind]
        u = (r.permutation(len(idx)) + r.random(len(idx))) / len(idx)
        gaps[idx] = -np.log1p(-u) / rate_hz
    return np.cumsum(gaps)


class _Child:
    """The server process, its stdout lines read on a helper thread."""

    def __init__(self, root: str, cfg: Dict):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [root, os.path.join(root, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.serve_child"], cwd=root,
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.proc.stdin.write(json.dumps(cfg))
        self.proc.stdin.close()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def json_line(self, timeout: float) -> Dict:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(
                    0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server process did not answer in time")
            if line is None:
                raise RuntimeError("server process exited early "
                                   f"(code {self.proc.wait()})")
            if line.startswith("{"):
                return json.loads(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.reader.join(timeout=10)


def solo_reference(workload, i: int, cache):
    """Job ``i`` run alone in this process: what the served result must
    equal bit for bit.  Attack instances share one plan store so the
    reference does not recompile per job; compiled plans are
    bit-validated at build, so sharing them moves no result bits."""
    from repro.nn import rowrep
    from repro.training.evaluate import predict_logits

    job = workload.jobs[i]
    if job.kind == "predict":
        return job.model.predict(job.x)
    if job.kind == "predict_float":
        with rowrep.row_reproducible():
            return predict_logits(job.model, job.x)
    attack = job.make_attack()
    attack.plan_cache = cache
    return attack.generate(job.x, job.y)


def run(seed: int, seconds: float, tracer=None, root: str = ".") -> Result:
    from repro.nn import set_default_dtype
    from repro.serve import PlanCache, ServeError, build_workload
    from repro.serve.net import ServeClient
    from repro.serve.resilience import DeadlineError

    set_default_dtype("float32")
    res = Result("serve_poisson")
    n_jobs = max(1, round(RATE_HZ * seconds))
    spec = make_spec(n_jobs)
    offsets = arrival_offsets(seed, [j["kind"] for j in spec["jobs"]],
                              RATE_HZ)
    workload = build_workload(spec)
    seeded_payloads(workload, seed)

    child = _Child(root, {"spec": spec, "trace": tracer is not None,
                          "spans_path": spans_path(root, "serve_poisson",
                                                   seed, "server")})
    client = None
    try:
        ready = child.json_line(READY_TIMEOUT_S)
        client_id = f"bench{seed}"
        client = ServeClient("127.0.0.1", ready["ready"],
                             attempt_timeout_s=5.0, retry_seed=seed,
                             client_id=client_id)
        if not client.health():
            raise RuntimeError("server reported unhealthy")

        futures: List = [None] * n_jobs
        sent = np.zeros(n_jobs)
        done = np.full(n_jobs, np.nan)
        outcomes: List[str] = ["lost"] * n_jobs
        values: List = [None] * n_jobs
        pending: deque = deque()

        def collect(now: float) -> None:
            for i in list(pending):
                fut = futures[i]
                if not fut.done:
                    continue
                pending.remove(i)
                done[i] = now
                outcomes[i] = fut.outcome or "failed"
                try:
                    values[i] = fut.result()
                except ServeError:
                    values[i] = None

        # the generator's own heap (workload models and inputs, kept for
        # the reference runs) is frozen so the collector's full passes
        # over it cannot stall the client mid-window
        gc.collect()
        gc.freeze()
        t0 = clock() + 0.05
        due = t0 + offsets
        nxt = 0
        while nxt < n_jobs or pending:
            now = clock()
            if nxt < n_jobs and now >= due[nxt]:
                job = workload.jobs[nxt]
                sent[nxt] = clock()
                futures[nxt] = client.submit(job.record, job.x, job.y)
                pending.append(nxt)
                nxt += 1
                continue
            if not pending:
                time.sleep(due[nxt] - now)
                continue
            if nxt < n_jobs:
                wait = due[nxt] - now
            else:
                wait = min(1.0, due[-1] + DRAIN_BUDGET_S - now)
                if wait <= 0:
                    break
            try:
                futures[pending[0]].result(timeout=max(wait, 1e-4))
            except DeadlineError:
                pass            # the bounded wait ran out; job still open
            except ServeError:
                pass            # the job failed; collect() records it
            collect(clock())
        retries = client.stats["retries"]
        client.shutdown_server()
        server = child.json_line(60.0)
    finally:
        gc.unfreeze()
        if client is not None:
            client.close()
        child.stop()

    # -- correctness: every ok result equals its solo in-process run ----- #
    res.attempted = n_jobs
    cache = PlanCache()
    for i in range(n_jobs):
        if outcomes[i] != "ok":
            res.failed += 1
            continue
        ref = solo_reference(workload, i, cache)
        got = values[i]
        if not res.check(got is not None and got.shape == ref.shape
                         and got.dtype == ref.dtype
                         and np.array_equal(got, ref),
                         f"job {i} ({workload.jobs[i].kind}) differs from "
                         "its solo in-process run"):
            res.failed += 1
            outcomes[i] = "mismatch"

    lat = [open_loop_latency_ms(due[i], done[i]) if outcomes[i] == "ok"
           else None for i in range(n_jobs)]
    ok_lat = [v for v in lat if v is not None]
    res.put("serve.latency_p50_ms", median(ok_lat) if ok_lat else None, "ms",
            "no job completed ok")
    res.put("serve.latency_p95_ms", tail_percentile(ok_lat, 95.0), "ms",
            f"refused: {len(ok_lat)} ok jobs, p95 needs 200")
    res.put("slo_met_frac", slo_met_frac(outcomes, lat, LIMIT_MS), "frac")
    res.put("rows_per_s", goodput_rows_per_s(
        outcomes, lat, [len(job.x) for job in workload.jobs], LIMIT_MS,
        float(offsets[-1])), "rows/s")
    res.put("setup_s", server["setup_s"], "s")
    res.put("peak_rss_mb", server["peak_rss_mb"], "MB")
    res.put("ok_frac", ok_frac(res.attempted, res.failed), "frac")

    if tracer is not None:
        for name, (value, unit) in server["layers"].items():
            res.put(name, value, unit)
        for which, kinds in (("attack", ATTACK_KINDS),
                             ("predict", {"predict", "predict_float"})):
            vals = [v for i, v in enumerate(lat)
                    if v is not None and workload.jobs[i].kind in kinds]
            res.put(f"serve.latency_p50_ms.{which}",
                    median(vals) if vals else None, "ms", "no such job ok")
        res.put("net.client_retries", retries, "count")
        lag_ms = [max(0.0, (sent[i] - due[i]) * 1e3) for i in range(nxt)]
        res.put("loadgen.lag_p95_ms", tail_percentile(lag_ms, 95.0), "ms",
                f"refused: {len(lag_ms)} sends, p95 needs 200")
        res.put("loadgen.late_frac",
                sum(1 for v in lag_ms if v > LATE_MS) / max(1, len(lag_ms)),
                "frac")
        res.put("trace.overhead_frac",
                server["trace_cost_s"] / server["window_s"], "frac")
        for label in server["absent"]:
            res.notes.append(f"absent entry point: {label}")
        # one client.job span per request, due time to the moment the
        # generator saw it finish; its job id is the request's wire key,
        # which the server's spans carry too (the client spends key 0 on
        # the health probe, so job i travels as <client_id>-<i+1>)
        for i, job in enumerate(workload.jobs):
            end = due[i] if np.isnan(done[i]) else done[i]
            tracer.records.append([
                i, "client.job", float(due[i]), float(end), None,
                f"{client_id}-{i + 1}", "run",
                {"kind": job.kind, "outcome": outcomes[i],
                 "lag_ms": max(0.0, float(sent[i] - due[i]) * 1e3)}])
    return res
