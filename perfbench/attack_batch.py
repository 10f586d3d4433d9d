"""``attack_batch``: the paper's core job, a closed loop with one caller.

One DIVA and one PGD instance (steps=20, eps=8/255) each run
``generate`` over successive seeded batches of 128 images against the
seeded, untrained width-8 resnet at 16x16 and its frozen 8-bit QAT
adaptation (the pair the serve specs and bench fixtures use; untrained
so set-up stays in seconds).  Nearly all the time goes to compiled
forward and input-gradient passes and the attack driver; serving and the
int8 engine are never touched, so kernel and attack-engine changes show
here and serving changes must not.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .common import Result, Window, clock, peak_rss_mb, repeated_setup, rng
from .metrics import median, ok_frac

BATCH = 128
STEPS = 20
EPS = 8 / 255
IMAGE = (3, 16, 16)
WARM_ROWS = 8


def build_pair():
    """The seeded untrained resnet and its frozen 8-bit adaptation."""
    from repro.models import build_model
    from repro.quantization import calibrate, prepare_qat

    original = build_model("resnet", num_classes=10, width=8, seed=0)
    original.eval()
    adapted = prepare_qat(original, weight_bits=8)
    calib = np.random.default_rng(0).random((16,) + IMAGE)
    calibrate(adapted, calib.astype(np.float32))
    adapted.freeze()
    adapted.eval()
    return original, adapted


def _setup(seed: int):
    from repro.attacks import DIVA, PGD
    from repro.training import predict_labels

    original, adapted = build_pair()
    diva = DIVA(original, adapted, eps=EPS, steps=STEPS)
    pgd = PGD(adapted, eps=EPS, steps=STEPS)
    # warm-up: compiles and validates every plan the measured calls use
    xw = rng(seed, 1 << 30).random((WARM_ROWS,) + IMAGE).astype(np.float32)
    yw = predict_labels(original, xw)
    diva.generate(xw, yw)
    pgd.generate(xw, yw)
    return original, adapted, diva, pgd


def in_eps_ball(adv: np.ndarray, x: np.ndarray, eps: float) -> bool:
    """Inside the L-inf ball and the pixel range, with the bounds
    computed in the input dtype exactly as the projection computes
    them."""
    e = np.asarray(eps, dtype=x.dtype)
    return bool(adv.shape == x.shape and adv.dtype == x.dtype
                and np.all(adv >= x - e) and np.all(adv <= x + e)
                and np.all(adv >= 0.0) and np.all(adv <= 1.0))


def run(seed: int, seconds: float, tracer=None) -> Result:
    from repro.training import predict_labels

    res = Result("attack_batch")
    (original, adapted, diva, pgd), setup_s, setup_total_s = repeated_setup(
        lambda: _setup(seed))

    if tracer is not None:
        tracer.phase = "run"
    times = {"diva": [], "pgd": []}
    evasive = {"diva": [0, 0], "pgd": [0, 0]}
    window = Window(tracer)
    k = 0
    while k == 0 or window.elapsed() < seconds:
        x = rng(seed, k).random((BATCH,) + IMAGE).astype(np.float32)
        y = predict_labels(original, x)
        outputs: List[Tuple[str, np.ndarray]] = []
        for name, attack in (("diva", diva), ("pgd", pgd)):
            if tracer is not None:
                tracer.job = f"{name}-{k}"
            res.attempted += 1
            t0 = clock()
            try:
                adv = attack.generate(x, y)
            except Exception as exc:        # noqa: BLE001 - counted
                res.failed += 1
                res.notes.append(f"{name} batch {k} raised "
                                 f"{type(exc).__name__}: {exc}")
                continue
            times[name].append(clock() - t0)
            outputs.append((name, adv))
        with window.pause():
            for name, adv in outputs:
                if not res.check(in_eps_ball(adv, x, EPS),
                                 f"{name} output left the eps-ball or "
                                 "[0, 1]"):
                    res.failed += 1
                    continue
                po = predict_labels(original, adv)
                pa = predict_labels(adapted, adv)
                evasive[name][0] += int(np.sum((po == y) & (pa != y)))
                evasive[name][1] += len(y)
        k += 1
    window_s = window.elapsed()
    rss_mb = peak_rss_mb()

    if times["diva"] and times["pgd"]:
        # one DIVA and one PGD pass over every row, at the median call
        # of each
        res.put("rows_per_s", 2 * BATCH / (median(times["diva"])
                                           + median(times["pgd"])), "rows/s")
    for name in ("diva", "pgd"):
        res.put(f"{name}_rows_per_s",
                BATCH / median(times[name]) if times[name] else None,
                "rows/s", "no call completed")
        hit, rows = evasive[name]
        res.put(f"{name}_evasive_frac", hit / rows if rows else None,
                "frac", "no output passed its checks")
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
