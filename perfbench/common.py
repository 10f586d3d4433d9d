"""Result record and helpers shared by the workloads."""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
import os
import resource
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .metrics import median

#: times the set-up is repeated in one run; ``setup_s`` is their median
SETUPS = 7

clock = time.perf_counter


def rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent seeded stream per (seed, stream...) tuple."""
    return np.random.default_rng([seed, *stream])


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeated_setup(build: Callable[[], object], times: int = SETUPS
                   ) -> Tuple[object, float, float]:
    """Run ``build`` ``times`` times; keep the last product and return
    it with the median and the total set-up time.  Earlier products are
    dropped and
    collected (compiled plans are reference cycles) before the next
    build starts, so only one lives at a time and peak memory does not
    depend on when the collector happens to run."""
    seconds: List[float] = []
    product = None
    for _ in range(times):
        product = None
        gc.collect()
        t0 = clock()
        product = build()
        seconds.append(clock() - t0)
    return product, median(seconds), sum(seconds)


def load_manifest(root: str) -> Dict[str, Dict[str, str]]:
    """Metric names and units from ``BENCHMARK.json``: the end-to-end
    ones (``"end_to_end"``) and the per-layer ones (``"per_layer"``)."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in manifest[key]}
            for key in ("end_to_end", "per_layer")}


class ManifestError(RuntimeError):
    """A run did not measure a metric the manifest lists, or measured it
    in another unit: a defect of the benchmark, so no result line."""


class Window:
    """The measured window of a closed loop, less the pauses taken in it
    to check outputs.  Checking each round's outputs as they come, rather
    than keeping them all for the end, keeps memory flat, so
    ``peak_rss_mb`` does not grow with throughput."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.paused_s = 0.0
        self.start = clock()

    def elapsed(self) -> float:
        return clock() - self.start - self.paused_s

    @contextmanager
    def pause(self) -> Iterator[None]:
        """Time spent in the block is left out of the window, and spans
        opened in it are tagged ``check``."""
        t0 = clock()
        if self.tracer is not None:
            self.tracer.phase, job, self.tracer.job = "check", \
                self.tracer.job, None
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.phase, self.tracer.job = "run", job
            self.paused_s += clock() - t0


class Result:
    """One workload run: correctness, operation counts and metrics.

    ``metrics`` maps a name to ``(value, unit)``: every value the run
    measured.  The JSON line carries the manifest's metrics; the rest
    are printed as information lines.  ``notes`` are human lines printed
    before the final JSON line (refused or absent metrics, check
    failures).
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.notes: List[str] = []

    def put(self, name: str, value: Optional[float], unit: str,
            why_absent: str = "") -> None:
        if value is None:
            self.notes.append(f"absent: {name} ({why_absent})")
        else:
            self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.correct = False
            self.notes.append(f"CHECK FAILED: {message}")
        return ok

    def reported(self, wanted: Dict[str, str]
                 ) -> Dict[str, Tuple[float, str]]:
        """The metrics named in ``wanted`` (name -> unit), which the JSON
        line carries; raises :class:`ManifestError` if one is missing or
        in another unit."""
        out = {}
        for name, unit in wanted.items():
            if name not in self.metrics:
                raise ManifestError(f"{self.workload} did not measure "
                                    f"{name}")
            value, got = self.metrics[name]
            if got != unit:
                raise ManifestError(f"{self.workload} measured {name} in "
                                    f"{got}, the manifest says {unit}")
            out[name] = (value, unit)
        return out

    def as_json(self, wanted: Dict[str, str]) -> Dict:
        return {"correct": bool(self.correct),
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u)
                            in self.reported(wanted).items()}}

    def emit(self, header: Dict, wanted: Dict[str, str],
             stream=sys.stdout) -> None:
        """Human-readable lines, then the one-line JSON result last.
        ``wanted`` names the metrics (and units) the JSON line carries;
        nothing is printed if one of them is missing."""
        line = json.dumps(self.as_json(wanted))
        print(f"# perfbench {self.workload} "
              + " ".join(f"{k}={v}" for k, v in header.items()
                         if k != "env"), file=stream)
        print("# env " + json.dumps(header.get("env", {}), sort_keys=True),
              file=stream)
        width = max([len(k) for k in self.metrics] + [8])
        for name, (value, unit) in sorted(self.metrics.items()):
            tag = "" if name in wanted else "  (info)"
            print(f"  {name:<{width}}  {value:.6g} {unit}{tag}", file=stream)
        for note in self.notes:
            print(f"  {note}", file=stream)
        print(f"  correct={self.correct} attempted={self.attempted} "
              f"failed={self.failed}", file=stream)
        print(line, file=stream, flush=True)


def spans_path(root: str, workload: str, seed: int, proc: str) -> str:
    """Where a traced run writes its spans (ignored by git)."""
    return os.path.join(root, ".perfbench", "spans",
                        f"{workload}-seed{seed}-{proc}.jsonl")
