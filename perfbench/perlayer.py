"""Per-layer metrics derived from one process's spans.

Every workload reports every per-layer metric, so each one is defined
even when the workload never calls into its layer: busy time is a share
of the measured window and work is a count, and both read 0 for a layer
that saw no call.  Times and counts cover the measured window (spans in
phase ``run``), except plan compiles and builds, which also count the
set-ups, because that is where they should happen.

Per-call percentiles and ratios of counts have no value when a layer saw
no call; they go to ``info`` (printed, not in the JSON line) whenever
they are defined.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .metrics import SpanIndex, median, tail_percentile
from .timers import Tracer

Metrics = Dict[str, Tuple[float, str]]

#: edge program batch sizes the ``edge_predict`` workload runs
EDGE_BATCHES = (1, 256)

_ZERO_SERVE = {"dispatches": 0, "jobs_served": 0, "coalesced_dispatches": 0,
               "deduped": 0,
               "plan_cache": {"hits": 0, "misses": 0, "evictions": 0,
                              "resident_bytes": 0}}


def _in_window(idx: SpanIndex, name: str, phases=("run",)):
    return [s for s in idx.spans if s.name == name and s.phase in phases]


def _attack_layer(idx: SpanIndex, window_s: float, out: Metrics,
                  info: Metrics) -> None:
    """``repro.attacks``: time in the attack driver (``generate`` and
    scheduler-driven ``run_scheduled``), split into the driver's own
    time and the compiled-graph time inside it, plus the work done."""
    roots = idx.outermost("attacks")
    generate_s = sum(s.dur for s in roots)
    inner = idx.covered_by(roots, "graph")
    graph_s = sum(s.dur for s in inner)
    grads = [s for s in inner if s.name == "graph.grad"]
    row_steps = sum(s.attrs.get("rows", 0) for s in grads)
    budget = sum(s.attrs.get("rows", 0) * s.attrs.get("steps", 0)
                 for s in roots)
    out["attacks.busy_frac"] = (generate_s / window_s, "frac")
    out["attacks.driver_self_frac"] = ((generate_s - graph_s) / window_s,
                                       "frac")
    out["attacks.grad_passes"] = (len(grads), "count")
    out["attacks.row_steps"] = (row_steps, "count")
    out["attacks.row_step_budget"] = (budget, "count")
    loops = _in_window(idx, "attacks.loop")
    served = sum(1 for s in loops if s.attrs.get("served"))
    out["attacks.loop_path_calls"] = (served, "count")
    if roots:
        info["attacks.generate_s"] = (generate_s, "s")
        info["attacks.driver_self_s"] = (generate_s - graph_s, "s")
        info["attacks.graph_in_generate_s"] = (graph_s, "s")
    if budget:
        info["attacks.early_stop_frac"] = (1.0 - row_steps / budget, "frac")
    if loops:
        info["attacks.loop_path_frac"] = (served / len(loops), "frac")


def _graph_layer(idx: SpanIndex, window_s: float, setup_s: float,
                 out: Metrics) -> None:
    """``repro.nn.graph``: compiled input-gradient and replay time
    (outermost graph spans only, so validation replays inside a compile
    are not double-counted) and compiles over set-up and run."""
    top = idx.outermost("graph")
    for name, metric in (("graph.grad", "graph.grad_frac"),
                         ("graph.replay", "graph.replay_frac")):
        busy = sum(s.dur for s in top if s.name == name)
        out[metric] = (busy / window_s, "frac")
    compiles = _in_window(idx, "graph.compile", ("setup", "run"))
    out["graph.compiles"] = (len(compiles), "count")
    out["graph.compile_frac"] = (sum(s.dur for s in compiles)
                                 / (setup_s + window_s), "frac")


def _edge_layer(idx: SpanIndex, window_s: float, out: Metrics,
                info: Metrics) -> None:
    """``repro.edge``: predict time, program run time by batch size,
    program runs, and program builds (set-up and run)."""
    predicts = [s for s in idx.outermost("edge") if s.name == "edge.predict"]
    out["edge.predict_frac"] = (sum(s.dur for s in predicts) / window_s,
                                "frac")
    runs = _in_window(idx, "edge.program_run")
    for rows in EDGE_BATCHES:
        at = [s.dur for s in runs if s.attrs.get("rows") == rows]
        out[f"edge.program_run_frac.b{rows}"] = (sum(at) / window_s, "frac")
        if at:
            info[f"edge.program_run_ms.b{rows}"] = (median(at) * 1e3, "ms")
    out["edge.program_runs"] = (len(runs), "count")
    builds = _in_window(idx, "edge.program_build", ("setup", "run"))
    out["edge.program_builds"] = (len(builds), "count")
    misses = len(_in_window(idx, "edge.program_build"))
    out["edge.plan_misses"] = (misses, "count")
    if runs:
        info["edge.plan_hit_frac"] = (max(0, len(runs) - misses) / len(runs),
                                      "frac")


def _serve_layer(idx: SpanIndex, tracer: Tracer, window_s: float,
                 serve: Optional[Dict], out: Metrics, info: Metrics) -> None:
    """``repro.serve`` session/scheduler, ``repro.serve.cache`` and
    ``repro.serve.net``, measured in the server process.  ``serve``
    holds the session, cache and server stats at the start (``stats0``)
    and end (``stats1``) of the window and the dispatch log length; it
    is None in a process that serves nothing, where every count is 0."""
    if serve is None:
        serve = {"stats0": _ZERO_SERVE, "stats1": _ZERO_SERVE,
                 "dispatch_log_len": 0}
    s0, s1 = serve["stats0"], serve["stats1"]
    server_ms = [s.attrs["server_ms"] for s in _in_window(idx, "serve.settle")
                 if "server_ms" in s.attrs]
    if server_ms:
        info["serve.server_ms.p50"] = (median(server_ms), "ms")
        p95 = tail_percentile(server_ms, 95.0)
        if p95 is not None:
            info["serve.server_ms.p95"] = (p95, "ms")
    drains = _in_window(idx, "serve.drain")
    out["serve.drains"] = (len(drains), "count")
    out["serve.drain_busy_frac"] = (sum(s.dur for s in drains) / window_s,
                                    "frac")
    dispatches = s1["dispatches"] - s0["dispatches"]
    jobs = s1["jobs_served"] - s0["jobs_served"]
    coalesced = s1["coalesced_dispatches"] - s0["coalesced_dispatches"]
    out["serve.dispatches"] = (dispatches, "count")
    out["serve.jobs_served"] = (jobs, "count")
    out["serve.coalesced_dispatches"] = (coalesced, "count")
    if dispatches:
        info["serve.jobs_per_dispatch"] = (jobs / dispatches, "count")
        info["serve.coalesced_frac"] = (coalesced / dispatches, "frac")
    out["serve.gc_pause_frac"] = (tracer.counter("serve.gc_pause_s")
                                  / window_s, "frac")
    out["serve.dispatch_log_len"] = (serve["dispatch_log_len"], "count")

    c0, c1 = s0["plan_cache"], s1["plan_cache"]
    hits, misses = c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]
    out["cache.hits"] = (hits, "count")
    out["cache.builds"] = (misses, "count")
    out["cache.evictions"] = (c1["evictions"] - c0["evictions"], "count")
    out["cache.resident_mb"] = (c1["resident_bytes"] / 2 ** 20, "MB")
    if hits + misses:
        info["cache.hit_frac"] = (hits / (hits + misses), "frac")

    polls = _in_window(idx, "net.poll")
    out["net.poll_self_frac"] = (sum(idx.self_time(s) for s in polls)
                                 / window_s, "frac")
    out["net.frames_in"] = (tracer.counter("net.frames_in"), "count")
    out["net.bytes_out"] = (tracer.counter("net.bytes_out"), "bytes")
    out["net.deduped"] = (s1["deduped"] - s0["deduped"], "count")


def layer_metrics(tracer: Tracer, window_s: float, setup_s: float,
                  serve: Optional[Dict] = None) -> Tuple[Metrics, Metrics]:
    """``(metrics, info)`` for every layer from ``tracer``'s spans.

    ``window_s`` is the measured window, ``setup_s`` the total time of
    every set-up the process ran, ``serve`` the server's stats (see
    :func:`_serve_layer`).  The client-side metrics (``net.client_retries``,
    ``loadgen.*``) and ``trace.overhead_frac`` are the caller's to add.
    """
    idx = SpanIndex(tracer.spans())
    out: Metrics = {}
    info: Metrics = {}
    _attack_layer(idx, window_s, out, info)
    _graph_layer(idx, window_s, setup_s, out)
    _edge_layer(idx, window_s, out, info)
    _serve_layer(idx, tracer, window_s, serve, out, info)
    return out, info


def closed_loop_client(tracer: Tracer, window_s: float) -> Metrics:
    """Client-side metrics of a closed loop with one in-process caller:
    it never retries over a wire, each call is due when the previous one
    returns (so it is never late), plus the timers' own cost."""
    return {"net.client_retries": (0, "count"),
            "loadgen.late_frac": (0.0, "frac"),
            "trace.overhead_frac": (tracer.run_cost_s / window_s, "frac")}
