"""Metric arithmetic shared by every workload.

Pure functions on plain numbers and span records, so the rules the
benchmark reports by are checked on their own (``perfbench/selftest.py``)
before any measurement is trusted:

- a tail percentile is reported only when at least ten samples lie
  beyond it (p95 therefore needs 200 samples) and is refused otherwise;
- open-loop latency runs from the moment a request was *due*, not from
  when the generator got round to sending it;
- a request that failed, was refused or never came back misses the
  latency limit;
- a span's self time is its duration minus the time its children cover.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

#: samples that must lie beyond a reported tail percentile
TAIL_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level {q} outside [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def samples_needed(pct: float, beyond: int = TAIL_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples past ``pct``."""
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile {pct} outside (0, 100)")
    return math.ceil(round(beyond * 100.0 / (100.0 - pct), 9))


def tail_percentile(values: Sequence[float], pct: float = 95.0,
                    beyond: int = TAIL_BEYOND) -> Optional[float]:
    """The ``pct`` percentile, or None (refused) when fewer than
    ``beyond`` samples would lie beyond it."""
    if len(values) < samples_needed(pct, beyond):
        return None
    return quantile(values, pct / 100.0)


def open_loop_latency_ms(due_s: float, done_s: float) -> float:
    """Latency of one open-loop request, timed from when it was due.

    A generator that sends late still owes the requester the wait, so
    the send time plays no part.
    """
    if done_s < due_s:
        raise ValueError("request finished before it was due")
    return (done_s - due_s) * 1e3


def ok_frac(attempted: int, failed: int) -> float:
    """Share of attempted operations that completed correctly."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad counts: attempted={attempted} failed={failed}")
    return (attempted - failed) / attempted


def slo_met_frac(outcomes: Sequence[str],
                 latencies_ms: Sequence[Optional[float]],
                 limit_ms: float) -> float:
    """Share of requests *sent* that came back ``ok`` within the limit.

    Failed, refused and lost requests (any outcome but ``ok``, or no
    latency at all) count as misses, so shedding load cannot raise it.
    """
    if len(outcomes) != len(latencies_ms) or not outcomes:
        raise ValueError("need one latency slot per request sent")
    met = sum(1 for o, lat in zip(outcomes, latencies_ms)
              if o == "ok" and lat is not None and lat <= limit_ms)
    return met / len(outcomes)


def goodput_rows_per_s(outcomes: Sequence[str],
                       latencies_ms: Sequence[Optional[float]],
                       rows: Sequence[int], limit_ms: float,
                       span_s: float) -> float:
    """Rows of the requests that came back ``ok`` within the limit, per
    second of the span over which the requests were offered.  The same
    requests miss as in :func:`slo_met_frac`."""
    if not len(outcomes) == len(latencies_ms) == len(rows) or not outcomes:
        raise ValueError("need one latency slot and row count per request")
    if span_s <= 0:
        raise ValueError(f"offered span {span_s} s is not positive")
    met = sum(n for o, lat, n in zip(outcomes, latencies_ms, rows)
              if o == "ok" and lat is not None and lat <= limit_ms)
    return met / span_s


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #

class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("id", "name", "start", "end", "parent", "job", "phase",
                 "attrs")

    def __init__(self, id: int, name: str, start: float, end: float,
                 parent: Optional[int] = None, job=None, phase: str = "run",
                 attrs: Optional[Dict] = None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.phase = phase
        self.attrs = attrs or {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_dict(self) -> Dict:
        out = {"id": self.id, "name": self.name, "start": self.start,
               "end": self.end, "parent": self.parent, "job": self.job,
               "phase": self.phase}
        out.update(self.attrs)
        return out


class SpanIndex:
    """Parent/child lookups over one process's spans."""

    def __init__(self, spans: Iterable[Span]):
        self.spans: List[Span] = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.children: Dict[Optional[int], List[Span]] = {}
        for s in self.spans:
            self.children.setdefault(s.parent, []).append(s)

    def ancestors(self, span: Span):
        pid = span.parent
        while pid is not None:
            parent = self.by_id.get(pid)
            if parent is None:
                return
            yield parent
            pid = parent.parent

    def self_time(self, span: Span) -> float:
        """Duration minus the time its direct child spans cover."""
        return span.dur - sum(c.dur for c in self.children.get(span.id, ()))

    def outermost(self, layer: str, phase: Optional[str] = "run"
                  ) -> List[Span]:
        """Spans of ``layer`` with no ancestor in the same layer: their
        durations never overlap, so they sum to the layer's busy time."""
        return [s for s in self.spans
                if s.layer == layer
                and (phase is None or s.phase == phase)
                and not any(a.layer == layer for a in self.ancestors(s))]

    def covered_by(self, roots: Sequence[Span], layer: str) -> List[Span]:
        """Outermost ``layer`` spans nested anywhere under ``roots``."""
        ids = {r.id for r in roots}
        return [s for s in self.outermost(layer, phase=None)
                if any(a.id in ids for a in self.ancestors(s))]
