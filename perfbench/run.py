#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py --workload attack_batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each
    python3 perfbench/run.py --selftest        # the arithmetic self-tests only

Run it from anywhere; it measures the ``src/`` tree next to this
directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
(from timers installed around each layer's entry points) with
``--trace 1``, on every workload.  The exit code is 0 only when every
correctness check passed; a run that did not measure a listed metric
prints no result and exits 4.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("attack_batch", "serve_poisson", "edge_predict")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    return p.parse_args(argv)


def run_one(args) -> int:
    from perfbench import environment
    from perfbench.common import ManifestError, load_manifest, spans_path
    from perfbench.timers import Tracer, install
    from repro.nn import set_default_dtype

    wanted = load_manifest(ROOT)["per_layer" if args.trace else "end_to_end"]
    set_default_dtype("float32")
    tracer = None
    if args.trace:
        tracer = Tracer()
        if args.workload != "serve_poisson":
            # the serving workload's layers run in its server process,
            # which installs its own timers
            install(tracer)
            tracer.on = True
    module = importlib.import_module(f"perfbench.{args.workload}")
    kwargs = {"root": ROOT} if args.workload == "serve_poisson" else {}
    result = module.run(args.seed, args.seconds, tracer, **kwargs)
    header = {"seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment.record(ROOT)}
    if tracer is not None:
        for label in tracer.absent:
            result.notes.append(f"absent entry point: {label}")
        tracer.write(spans_path(ROOT, args.workload, args.seed, "main"),
                     dict(header, process="main",
                          installed=tracer.installed))
    try:
        result.emit(header, wanted)
    except ManifestError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 4
    return 0 if result.correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            last = None
        if proc.returncode != 0 or last is None:
            code = 1
            summary["correct"] = False
            print(f"# {workload} exited with code {proc.returncode}")
            continue
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary), flush=True)
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              "missing", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import selftest

    failures = selftest.run_all()
    if failures:
        print("perfbench: self-tests failed, refusing to measure:\n"
              + "\n".join(failures), file=sys.stderr)
        return 3
    if args.selftest:
        print(f"perfbench: {len(selftest.CHECKS)} self-tests passed")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
