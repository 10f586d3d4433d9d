"""Server process for the ``serve_poisson`` workload.

Configured as ``repro-exp serve --listen`` configures it: float32
default dtype, the default single-threaded :class:`ServeSession`
(capacity 64, float coalescing on, no deadline), no journal.  Reads one
JSON config from stdin (``spec``, ``trace``, ``spans_path``), sets up
the server several times (models, session, socket, and a warm-up of one
job per kind submitted straight to the session), prints
``{"ready": port, ...}``, serves until a client sends the ``shutdown``
op, then prints one JSON line of server-side measurements and exits.

Run it through ``perfbench/run.py``; it is not meant to be started by
hand.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
import time

import numpy as np

from .common import SETUPS, clock, peak_rss_mb
from .metrics import median


def _warm(server, spec) -> None:
    """One job of every kind in the spec, straight into the session, so
    plan caches are filled before the measured window opens."""
    from repro.serve.workload import attack_factory
    from repro.training import predict_labels

    session = server.session
    r = np.random.default_rng([spec["seed"], 1 << 30])
    am, em = spec["attack_model"], spec["edge_model"]
    attack_shape = (3, am["image_size"], am["image_size"])
    edge_shape = (em.get("in_channels", 1), em["image_size"],
                  em["image_size"])
    seen, futures = set(), []
    for rec in spec["jobs"]:
        kind = rec["kind"]
        if kind in seen:
            continue
        seen.add(kind)
        rows = int(rec["rows"])
        if kind == "predict":
            x = r.random((rows,) + edge_shape).astype(np.float32)
            futures.append(session.submit_predict(server.edge, x))
            continue
        x = r.random((rows,) + attack_shape).astype(np.float32)
        if kind == "predict_float":
            futures.append(session.submit_predict(server.adapted, x))
            continue
        make = attack_factory(server.original, server.adapted, rec,
                              default_steps=int(spec.get("steps", 10)))
        futures.append(session.submit_attack(
            make(), x, predict_labels(server.original, x)))
    session.drain()
    for future in futures:
        future.result()


def _snapshot(server):
    stats = server.session.stats
    return {"dispatches": stats["dispatches"],
            "jobs_served": stats["jobs_served"],
            "coalesced_dispatches": stats["coalesced_dispatches"],
            "plan_cache": dict(stats["plan_cache"]),
            "deduped": server.stats["deduped"]}


def _exit_with_parent() -> None:
    """End this process if the benchmark process that started it dies,
    so a killed run leaves no server behind."""
    parent = os.getppid()
    while True:
        time.sleep(1.0)
        if os.getppid() != parent:
            os._exit(3)


def main() -> int:
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    cfg = json.loads(sys.stdin.read())
    spec = cfg["spec"]
    from repro.nn import set_default_dtype
    set_default_dtype("float32")

    tracer = None
    if cfg.get("trace"):
        from .timers import GcTimer, Tracer, install
        tracer = install(Tracer(), serve=True)
        tracer.on = True
        gc.callbacks.append(GcTimer(tracer))

    from repro.serve import ServeSession
    from repro.serve.net import ServeServer
    from repro.serve.workload import build_models

    server = None
    setup_s = []
    for _ in range(SETUPS):
        if server is not None:
            server.shutdown(drain=True)
            server = None
        t0 = clock()
        server = ServeServer(ServeSession(capacity=64), spec=spec,
                             models=build_models(spec), port=0)
        _warm(server, spec)
        setup_s.append(clock() - t0)
    print(json.dumps({"ready": server.port, "setup_s": setup_s}), flush=True)

    if tracer is not None:
        tracer.phase = "run"
    stats0 = _snapshot(server)
    t_start = clock()
    server.serve_forever()
    window_s = clock() - t_start
    if tracer is not None:
        tracer.phase = "check"
    out = {"setup_s": median(setup_s), "peak_rss_mb": peak_rss_mb(),
           "window_s": window_s}
    if tracer is not None:
        from .perlayer import layer_metrics
        layers, info = layer_metrics(
            tracer, window_s, sum(setup_s),
            {"stats0": stats0, "stats1": _snapshot(server),
             "dispatch_log_len": len(server.session.dispatch_log)})
        out["layers"] = {**layers, **info}
        out["trace_cost_s"] = tracer.run_cost_s
        out["absent"] = tracer.absent
        tracer.write(cfg["spans_path"], {"process": "server",
                                         "installed": tracer.installed,
                                         "absent": tracer.absent})
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
