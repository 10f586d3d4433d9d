"""Layer timers installed from outside the program.

The benchmark does not edit the code it measures.  In a traced run it
rebinds each layer's entry points (listed in :data:`TARGETS`) to timed
wrappers that record one span per call: name, start, end, parent span,
job id and phase.  Spans stay in memory and are written when the run
ends.  An entry point that no longer exists (for example
``repro.attacks.loop`` after the planned deletion of the whole-loop
recorder) is listed in :attr:`Tracer.absent` and its metrics are
reported as absent; nothing crashes.

Module-level functions are rebound in their home module *and* in every
loaded ``repro`` module that imported them by name (the scheduler binds
``run_scheduled`` at import time, for instance), so every call site is
timed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import Span


class Tracer:
    """In-memory span recorder for one process.

    ``on`` gates recording (wrappers call straight through while it is
    off), ``phase`` tags each span (``setup``, ``run`` or ``check``) and
    ``job`` is the request id stamped on spans opened while it is set.
    ``costs`` accumulates the wrappers' own bookkeeping time per phase,
    the tracing overhead the traced run reports.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.on = False
        self.phase = "setup"
        self.job: Any = None
        self.records: List[list] = []
        self.counters: Dict[Tuple[str, str], float] = {}
        self.costs: Dict[str, float] = {}
        self.installed: List[str] = []
        self.absent: List[str] = []
        self._stack: List[int] = []
        #: serve-side request identity: id(array) -> wire key, and
        #: id(future) -> (submit return time, wire key)
        self.wire_keys: Dict[int, Any] = {}
        self.submitted: Dict[int, Tuple[float, Any]] = {}

    # -- recording ------------------------------------------------------- #
    def count(self, name: str, n: float = 1) -> None:
        key = (name, self.phase)
        self.counters[key] = self.counters.get(key, 0) + n

    def counter(self, name: str, phase: str = "run") -> float:
        return self.counters.get((name, phase), 0)

    def add_cost(self, seconds: float, phase: Optional[str] = None) -> None:
        phase = self.phase if phase is None else phase
        self.costs[phase] = self.costs.get(phase, 0.0) + seconds

    @property
    def run_cost_s(self) -> float:
        return self.costs.get("run", 0.0)

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Timed wrapper: ``attrs(args, kwargs)`` runs before the call
        and returns span attributes (a ``job`` entry overrides the
        current job id); ``after(record, args, result)`` runs after."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            t_in = clock()
            sid = len(tracer.records)
            parent = tracer._stack[-1] if tracer._stack else None
            extra = attrs(args, kwargs) if attrs is not None else {}
            job = extra.pop("job", tracer.job)
            rec = [sid, name, 0.0, 0.0, parent, job, tracer.phase, extra]
            tracer.records.append(rec)
            tracer._stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                rec[2], rec[3] = t0, t1
            if after is not None:
                after(rec, args, result)
            tracer.add_cost((t0 - t_in) + (clock() - t1), rec[6])
            return result

        timed.__wrapped_by_perfbench__ = True
        return timed

    def spans(self) -> List[Span]:
        return [Span(*rec) for rec in self.records]

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the run's spans as JSON lines (header line first)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans():
                fh.write(json.dumps(span.as_dict(), default=str) + "\n")


# --------------------------------------------------------------------- #
# attribute hooks
# --------------------------------------------------------------------- #

def _rows_at(i: int) -> Callable:
    def attrs(args, kwargs):
        x = args[i] if len(args) > i else kwargs.get("x")
        return {"rows": len(x)} if x is not None else {}
    return attrs


def _attack_rows(args, kwargs):
    """``generate(self, x, ...)`` and ``run_scheduled(attack, x, ...)``
    both carry the attack first and the batch second."""
    out = _rows_at(1)(args, kwargs)
    steps = getattr(args[0], "steps", None) if args else None
    if steps is not None:
        out["steps"] = int(steps)
    return out


def _loop_served(rec, args, result) -> None:
    rec[7]["served"] = result is not None


def _make_submit_hooks(tracer: Tracer):
    def attrs(args, kwargs):
        x = args[2] if len(args) > 2 else kwargs.get("x")
        return {"job": tracer.wire_keys.pop(id(x), tracer.job)}

    def after(rec, args, future):
        tracer.submitted[id(future)] = (rec[3], rec[5])
    return attrs, after


def _make_settle_hooks(tracer: Tracer):
    def attrs(args, kwargs):
        job = args[1] if len(args) > 1 else kwargs.get("job")
        fut = getattr(job, "future", None)
        if fut is None or fut.done:
            return {}
        t_ret, key = tracer.submitted.pop(id(fut), (None, tracer.job))
        out = {"job": key}
        if t_ret is not None:
            out["server_ms"] = (tracer.clock() - t_ret) * 1e3
        return out
    return attrs, None


# --------------------------------------------------------------------- #
# installation
# --------------------------------------------------------------------- #

#: (span name, module, attribute path, attrs hook, after hook); see
#: :meth:`Tracer.wrap`.  Attribute paths with a dot are methods on a class.
TARGETS = [
    ("attacks.generate", "repro.attacks.base", "Attack.generate",
     _attack_rows, None),
    ("attacks.run_scheduled", "repro.attacks.engine", "run_scheduled",
     _attack_rows, None),
    ("attacks.loop", "repro.attacks.loop", "try_run_loop", None,
     _loop_served),
    ("graph.grad", "repro.nn.graph", "CompiledForward.value_and_input_grad",
     _rows_at(1), None),
    ("graph.grad", "repro.attacks.engine",
     "PairedExecutor.value_and_input_grad", _rows_at(1), None),
    # the whole-loop recorder inlines PairedExecutor.value_and_input_grad
    # instead of calling it; timing its per-pass helper as the same span
    # keeps graph.grad_s comparable before and after the recorder goes
    ("graph.grad", "repro.attacks.loop", "_gradient_and_aux", _rows_at(1),
     None),
    ("graph.replay", "repro.nn.graph", "CompiledForward.replay", _rows_at(1),
     None),
    ("graph.compile", "repro.nn.graph", "compile_forward", None, None),
    ("edge.predict", "repro.edge.engine", "EdgeModel.predict", _rows_at(1),
     None),
    ("edge.program_run", "repro.edge.program", "EdgeProgram.run",
     _rows_at(1), None),
    ("edge.program_build", "repro.edge.program", "EdgeProgram.__init__",
     None, None),
]

#: serving-side timers: (span name, module, attribute path, factory
#: returning the (attrs, after) hooks bound to the tracer, or None)
SERVE_TARGETS = [
    ("serve.submit", "repro.serve.session", "ServeSession.submit_attack",
     _make_submit_hooks),
    ("serve.submit", "repro.serve.session", "ServeSession.submit_predict",
     _make_submit_hooks),
    ("serve.drain", "repro.serve.session", "ServeSession.drain", None),
    ("serve.settle", "repro.serve.scheduler", "Scheduler.settle",
     _make_settle_hooks),
    ("net.poll", "repro.serve.net", "ServeServer.poll", None),
]


def _resolve(module: str, path: str):
    """(owner, attribute name, original) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = getattr(owner, attr, None)
    if orig is None:
        return None
    return owner, attr, orig


def _rebind(owner, attr: str, orig, wrapped) -> None:
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for name, mod in list(sys.modules.items()):
        if (mod is not None and (name == "repro" or name.startswith("repro."))
                and getattr(mod, attr, None) is orig):
            setattr(mod, attr, wrapped)


def _install_one(tracer: Tracer, name: str, module: str, path: str,
                 attrs, after) -> None:
    label = f"{module}.{path}"
    found = _resolve(module, path)
    if found is None:
        tracer.absent.append(label)
        return
    owner, attr, orig = found
    if getattr(orig, "__wrapped_by_perfbench__", False):
        return
    _rebind(owner, attr, orig, tracer.wrap(name, orig, attrs, after))
    tracer.installed.append(label)


def install(tracer: Tracer, serve: bool = False) -> Tracer:
    """Install the layer timers (plus the serving-side ones with
    ``serve``) and return ``tracer``; absent entry points are noted."""
    for name, module, path, attrs, after in TARGETS:
        _install_one(tracer, name, module, path, attrs, after)
    if serve:
        for name, module, path, hooks in SERVE_TARGETS:
            attrs, after = hooks(tracer) if hooks is not None else (None,
                                                                    None)
            _install_one(tracer, name, module, path, attrs, after)
        _count_frames_in(tracer)
        _count_bytes_out(tracer)
    return tracer


def _count_frames_in(tracer: Tracer) -> None:
    """Count every frame the server parses (no span per frame).  Frames
    that carry an input array also map that array to the request's wire
    key, which is how server spans learn their job id."""
    label = "repro.serve.net.FrameParser.frames"
    found = _resolve("repro.serve.net", "FrameParser.frames")
    if found is None:
        tracer.absent.append(label)
        return
    owner, attr, orig = found

    @functools.wraps(orig)
    def frames(self, *args, **kwargs):
        for item in orig(self, *args, **kwargs):
            if tracer.on:
                t0 = tracer.clock()
                tracer.count("net.frames_in")
                header, arrays = item[0], item[1]
                if "x" in arrays:
                    tracer.wire_keys[id(arrays["x"])] = header.get("key")
                tracer.add_cost(tracer.clock() - t0)
            yield item
    setattr(owner, attr, frames)
    tracer.installed.append(label)


def _count_bytes_out(tracer: Tracer) -> None:
    """Count the bytes of every frame the server encodes."""
    label = "repro.serve.net.encode_frame"
    found = _resolve("repro.serve.net", "encode_frame")
    if found is None:
        tracer.absent.append(label)
        return
    owner, attr, orig = found

    @functools.wraps(orig)
    def encode_frame(*args, **kwargs):
        out = orig(*args, **kwargs)
        if tracer.on:
            tracer.count("net.bytes_out", len(out))
        return out
    _rebind(owner, attr, orig, encode_frame)
    tracer.installed.append(label)


class GcTimer:
    """Collector pause time per phase, through ``gc.callbacks``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._t0: Optional[float] = None

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._t0 = self.tracer.clock()
        elif self._t0 is not None:
            self.tracer.count("serve.gc_pause_s",
                              self.tracer.clock() - self._t0)
            self._t0 = None
