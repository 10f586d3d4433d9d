"""``edge_predict``: the deployed int8 artifact, a closed loop with one caller.

The VGGFaceNet int8 edge artifact (width 8, 32x32, 50 identities)
answers single-frame ``predict`` calls (batch 1) interleaved with
256-row scoring calls.  Only the integer program path runs, with no
float backward pass; batch 1 is per-op overhead and batch 256 is integer
GEMM, so a change that helps one and costs the other shows.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .common import Result, clock, peak_rss_mb, repeated_setup, rng
from .metrics import median, ok_frac, tail_percentile

IMAGE = (3, 32, 32)
SCORE_ROWS = 256
#: single-frame calls per 256-row scoring call
FRAMES_PER_ROUND = 8
#: every CHECK_EVERY-th round is re-run on the eager integer op loop
CHECK_EVERY = 16


def build_edge():
    from repro.edge import compile_edge
    from repro.models import build_model
    from repro.quantization import calibrate, prepare_qat

    model = build_model("vggface", num_identities=50, image_size=32,
                        width=8, seed=0)
    model.eval()
    q = prepare_qat(model, weight_bits=8, act_bits=8, per_channel=True)
    calib = np.random.default_rng(0).random((64,) + IMAGE)
    calibrate(q, calib.astype(np.float32))
    q.freeze()
    return compile_edge(q, 50)


def _setup(seed: int):
    edge = build_edge()
    # warm-up: builds and validates the batch-1 and batch-256 programs
    warm = rng(seed, 1 << 30)
    edge.predict(warm.random((1,) + IMAGE).astype(np.float32))
    edge.predict(warm.random((SCORE_ROWS,) + IMAGE).astype(np.float32))
    return edge


def run(seed: int, seconds: float, tracer=None) -> Result:
    res = Result("edge_predict")
    edge, setup_s, setup_total_s = repeated_setup(lambda: _setup(seed))

    if tracer is not None:
        tracer.phase = "run"
    score_s: List[float] = []
    frame_s: List[float] = []
    round_s: List[float] = []
    #: (round, frame index or -1 for the scoring call, compiled output);
    #: inputs are drawn again from the seed for the check, so memory does
    #: not grow with the number of rounds
    sampled: List[Tuple[int, int, np.ndarray]] = []

    def inputs(k: int) -> Tuple[np.ndarray, np.ndarray]:
        r = rng(seed, k)
        x = r.random((SCORE_ROWS,) + IMAGE).astype(np.float32)
        return x, r.random((FRAMES_PER_ROUND, 1) + IMAGE).astype(np.float32)

    def call(x: np.ndarray, sink: List[float], tag) -> bool:
        res.attempted += 1
        t0 = clock()
        try:
            out = edge.predict(x)
        except Exception as exc:            # noqa: BLE001 - counted
            res.failed += 1
            res.notes.append(f"predict on {x.shape} raised "
                             f"{type(exc).__name__}: {exc}")
            return False
        sink.append(clock() - t0)
        if tag is not None:
            sampled.append(tag + (out,))
        return True

    t_start = clock()
    k = 0
    while k == 0 or clock() - t_start < seconds:
        keep = k % CHECK_EVERY == 0
        if tracer is not None:
            tracer.job = f"score-{k}"
        x, frames = inputs(k)
        whole = call(x, score_s, (k, -1) if keep else None)
        for j, frame in enumerate(frames):
            if tracer is not None:
                tracer.job = f"frame-{k}-{j}"
            whole &= call(frame, frame_s, (k, j) if keep and j == 0
                          else None)
        if whole:
            round_s.append(score_s[-1] + sum(frame_s[-FRAMES_PER_ROUND:]))
        k += 1
    window_s = clock() - t_start
    rss_mb = peak_rss_mb()          # before the checks allocate
    if tracer is not None:
        tracer.phase = "check"
        tracer.job = None

    for k, j, out in sampled:
        x, frames = inputs(k)
        x = x if j < 0 else frames[j]
        if not res.check(np.array_equal(out, edge.predict(x, compiled=False)),
                         f"compiled predict on {x.shape} differs from the "
                         "eager integer op loop"):
            res.failed += 1

    res.put("rows_per_s",
            (SCORE_ROWS + FRAMES_PER_ROUND) / median(round_s) if round_s
            else None, "rows/s", "no round completed")
    res.put("edge_rows_per_s",
            SCORE_ROWS / median(score_s) if score_s else None, "rows/s",
            "no scoring call completed")
    frame_ms = [s * 1e3 for s in frame_s]
    res.put("frame_latency_p50_ms", median(frame_ms) if frame_ms else None,
            "ms", "no frame call completed")
    res.put("frame_latency_p95_ms", tail_percentile(frame_ms, 95.0), "ms",
            f"refused: {len(frame_ms)} frames, p95 needs 200")
    res.put("setup_s", setup_s, "s")
    res.put("peak_rss_mb", rss_mb, "MB")
    res.put("ok_frac", ok_frac(res.attempted, res.failed), "frac")

    if tracer is not None:
        from .perlayer import closed_loop_client, layer_metrics
        layers, info = layer_metrics(tracer, window_s, setup_total_s)
        for name, (value, unit) in {**layers, **info,
                                    **closed_loop_client(tracer, window_s)
                                    }.items():
            res.put(name, value, unit)
    return res
