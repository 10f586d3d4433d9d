"""Self-tests for the benchmark's own arithmetic and timers.

``run.py`` runs them before every measurement and refuses to measure if
one fails; ``python3 perfbench/run.py --selftest`` runs them alone.
They need no part of the program under test except for the last one,
which only checks that a missing entry point is tolerated.
"""

from __future__ import annotations

import traceback
from typing import Callable, List

from .metrics import (Span, SpanIndex, goodput_rows_per_s, median, ok_frac,
                      open_loop_latency_ms, quantile, samples_needed,
                      slo_met_frac, tail_percentile)
from .perlayer import closed_loop_client, layer_metrics
from .timers import Tracer, _install_one


def _raises(fn: Callable, exc=ValueError) -> bool:
    try:
        fn()
    except exc:
        return True
    return False


def check_percentile_rule() -> None:
    assert samples_needed(95.0) == 200
    assert samples_needed(90.0) == 100
    assert samples_needed(99.0) == 1000
    assert tail_percentile([float(i) for i in range(199)], 95.0) is None
    values = [float(i) for i in range(200)]
    p95 = tail_percentile(values, 95.0)
    assert p95 is not None and abs(p95 - 189.05) < 1e-9
    assert sum(1 for v in values if v > p95) >= 10
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.25) == 1.75    # numpy 'linear'
    assert _raises(lambda: quantile([], 0.5))


def check_open_loop_from_due() -> None:
    # a job due at 1.0 s, sent late at 1.3 s, answered at 1.5 s waited
    # 500 ms, not 200 ms
    assert abs(open_loop_latency_ms(1.0, 1.5) - 500.0) < 1e-9
    assert _raises(lambda: open_loop_latency_ms(2.0, 1.0))


def check_misses_count_against_slo() -> None:
    outcomes = ["ok", "ok", "failed", "rejected", "lost", "ok"]
    lat = [100.0, 300.0, None, None, None, 250.0]
    assert slo_met_frac(outcomes, lat, 250.0) == 2 / 6
    # a refused job with a fast answer is still a miss
    assert slo_met_frac(["rejected"], [1.0], 250.0) == 0.0
    # goodput counts the rows of the same requests, per offered second
    rows = [10, 20, 30, 40, 50, 60]
    assert goodput_rows_per_s(outcomes, lat, rows, 250.0, 2.0) == 35.0
    assert _raises(lambda: goodput_rows_per_s(outcomes, lat, rows, 250.0,
                                              0.0))
    assert ok_frac(6, 3) == 0.5
    assert _raises(lambda: ok_frac(0, 0))
    assert _raises(lambda: slo_met_frac(["ok"], [], 250.0))


def check_span_self_time() -> None:
    spans = [
        Span(0, "attacks.generate", 0.0, 10.0),
        Span(1, "attacks.run_scheduled", 1.0, 9.5, parent=0),
        Span(2, "graph.grad", 2.0, 4.0, parent=1),
        Span(3, "graph.grad", 5.0, 8.0, parent=1),
        Span(4, "graph.compile", 8.5, 9.0, parent=1),
        Span(5, "graph.grad", 8.6, 8.8, parent=4),     # validation pass
        Span(6, "graph.replay", 11.0, 12.0),            # outside generate
    ]
    idx = SpanIndex(spans)
    assert idx.self_time(spans[0]) == 10.0 - 8.5
    assert abs(idx.self_time(spans[1]) - (8.5 - 5.5)) < 1e-12
    assert abs(idx.self_time(spans[4]) - 0.3) < 1e-12
    roots = idx.outermost("attacks")
    assert [s.id for s in roots] == [0]
    inner = idx.covered_by(roots, "graph")
    assert sorted(s.id for s in inner) == [2, 3, 4]
    graph_s = sum(s.dur for s in inner)
    driver_self = sum(s.dur for s in roots) - graph_s
    assert abs(driver_self - 4.5) < 1e-12
    assert abs(driver_self + graph_s - 10.0) < 1e-12
    assert sorted(s.id for s in idx.outermost("graph")) == [2, 3, 4, 6]


def check_tracer_nesting() -> None:
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("graph.grad", lambda x: x * 2)
    outer = tracer.wrap("attacks.generate", lambda x: inner(x) + 1)
    assert outer(3) == 7                     # tracing off: plain calls
    assert tracer.records == []
    tracer.on, tracer.phase, tracer.job = True, "run", "job-1"
    assert outer(3) == 7
    spans = tracer.spans()
    assert [s.name for s in spans] == ["attacks.generate", "graph.grad"]
    assert spans[1].parent == spans[0].id and spans[0].parent is None
    assert all(s.job == "job-1" and s.phase == "run" for s in spans)
    assert spans[0].start < spans[1].start < spans[1].end < spans[0].end
    assert tracer.run_cost_s > 0


def check_missing_entry_point() -> None:
    tracer = Tracer()
    _install_one(tracer, "attacks.loop", "repro.no_such_module",
                 "try_run_loop", None, None)
    _install_one(tracer, "attacks.loop", "perfbench.metrics",
                 "NoSuchClass.method", None, None)
    assert tracer.absent == ["repro.no_such_module.try_run_loop",
                             "perfbench.metrics.NoSuchClass.method"]
    assert tracer.installed == []


def check_layers_defined_without_calls() -> None:
    # a process that never called a layer still reports every per-layer
    # metric, as 0 busy share and 0 work
    tracer = Tracer()
    layers, info = layer_metrics(tracer, 2.0, 1.0)
    layers.update(closed_loop_client(tracer, 2.0))
    assert len(layers) == 34 and info == {}
    assert all(value == 0 for value, _ in layers.values())


CHECKS = [check_percentile_rule, check_open_loop_from_due,
          check_misses_count_against_slo, check_span_self_time,
          check_tracer_nesting, check_missing_entry_point,
          check_layers_defined_without_calls]


def run_all() -> List[str]:
    """Names and tracebacks of the checks that failed (empty: all pass)."""
    failures = []
    for check in CHECKS:
        try:
            check()
        except Exception:                   # noqa: BLE001 - reported
            failures.append(f"{check.__name__}\n{traceback.format_exc()}")
    return failures
