"""Paired-program attack engine (§5.2 economics, engineered).

Three cooperating pieces turn the attack loop from "one model pass at a
time, one configuration at a time" into a single scheduled computation:

- :class:`PairedExecutor` — compiles the (original, adapted) model pair
  into replayable programs, replays both forwards on the same batch,
  computes *one* combined softmax-seeded gradient for both logit blocks,
  then runs both backwards and sums the input gradients.  DIVA's Eq. 5
  step is thereby a single fused unit instead of two independent
  ``value_and_input_grad`` calls.  The two passes share nothing until
  their gradients are summed, so on batches of at least
  :data:`LANE_MIN_ROWS` rows they run in two lanes — the caller's thread
  and one process-wide helper thread — each lane with its own
  :class:`~repro.nn.graph.ScratchPool`.

- :func:`run_scheduled` — the active-slot scheduler behind
  ``Attack.generate`` / ``Attack.generate_sweep``. Work items (sample,
  variant) occupy up to ``capacity`` slots; each pass runs one gradient
  batch over the occupied slots, retires items that satisfied their
  success criterion (checked against the logits the gradient pass
  already produced — the shifted keep-best check), and refills freed
  slots with pending items from later batches / variants (cross-batch
  work stealing). Because every per-sample trajectory is independent,
  the produced iterates are bit-identical to the per-batch sequential
  loop; the trailing success forward the sequential loop paid is dropped
  entirely (it cannot change the returned iterate when done samples stop
  stepping). It is the only attack execution path: every ``generate``,
  ``generate_sweep`` and served attack dispatch runs through it, with
  compiled replay (or the eager tape) inside
  ``attack.gradient_with_logits``.

- variant tiling — ``Attack.generate_sweep`` maps an (eps, c, ...) grid
  onto per-item parameter vectors so a whole figure's configuration
  sweep shares one compiled program pair and one scheduler pass.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.graph import ScratchPool, compile_forward_or_none

#: variant keys interpreted by the scheduler itself (all attacks)
SCHEDULER_KEYS = frozenset({"eps", "alpha", "keep_best"})

#: smallest batch whose paired step runs its programs in two lanes.  On
#: 2 CPUs (the float32 width-8 resnet pair, 16x16 inputs) the concurrent
#: step ran at 0.6-0.8x the sequential one at 4-8 rows, where thread
#: handoff and the GIL dominate, 0.9-1.3x at 16, 1.3-1.7x at 32 and
#: 1.4-1.75x at 128.  Pinned to one CPU it stayed at 0.93-1.06x from 32
#: to 128 rows, so no CPU-count check is needed.
LANE_MIN_ROWS = 32

_helper: Optional[ThreadPoolExecutor] = None
_helper_pid: Optional[int] = None
_helper_lock = threading.Lock()


def _helper_lane() -> ThreadPoolExecutor:
    """The process-wide one-thread executor that runs the odd-indexed
    programs of every laned paired step (created on first use, and again
    in a forked child, which does not inherit the thread)."""
    global _helper, _helper_pid
    with _helper_lock:
        if _helper is None or _helper_pid != os.getpid():
            _helper = ThreadPoolExecutor(max_workers=1,
                                         thread_name_prefix="paired-lane")
            _helper_pid = os.getpid()
        return _helper


def _run_each(work: Callable[[int], None], indices: range) -> None:
    for i in indices:
        work(i)


class PairedExecutor:
    """N compiled programs driven in lockstep over one input batch.

    Built for the two-model DIVA objective (hence the name), but any
    number of frozen models over the same input works.  Forwards run
    first so the seed function sees every program's logits at once, then
    each program's backward runs and the input gradients are summed in
    place, in program order.

    Program ``i`` belongs to lane ``i % 2``.  On batches of at least
    :data:`LANE_MIN_ROWS` rows the caller's thread runs lane 0 while the
    process-wide helper thread runs lane 1, forwards and backwards each;
    smaller batches run every program on the caller's thread.  Each lane
    draws transient scratch from its own :class:`ScratchPool`, so the
    concurrent programs never share a buffer.  Every program computes
    exactly what it computes alone, so the lanes do not change a bit.
    """

    def __init__(self, programs: Sequence):
        self.programs = list(programs)

    @classmethod
    def compile(cls, models: Sequence, example: np.ndarray
                ) -> Optional["PairedExecutor"]:
        """Compile every model against ``example``, with one scratch pool
        per lane; None (eager fallback) unless all of them compile."""
        pools = (ScratchPool(), ScratchPool())
        programs = []
        for i, model in enumerate(models):
            prog = compile_forward_or_none(model, example, pool=pools[i % 2])
            if prog is None:
                return None
            programs.append(prog)
        return cls(programs)

    def refresh(self) -> None:
        for prog in self.programs:
            prog.refresh()

    def replay(self, x: np.ndarray, copy: bool = True) -> Tuple[np.ndarray, ...]:
        """Forward-only logits for every program (views when ``copy``
        is False, valid until that program's next replay)."""
        return tuple(prog.replay(x, copy=copy) for prog in self.programs)

    def value_and_input_grad(self, x: np.ndarray,
                             seeds_fn: Callable[[Sequence[np.ndarray]],
                                                Sequence[np.ndarray]],
                             ) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
        """One fused paired step: all logits plus the summed d(loss)/dx.

        ``seeds_fn`` maps the tuple of logit blocks to one seed per
        program (computed together — DIVA does a single stacked softmax
        for both models).  The returned logits are buffer views valid
        until the next replay; the gradient is freshly owned.
        """
        progs = self.programs
        xs = [prog._check_input(x) for prog in progs]
        outs: List[Optional[np.ndarray]] = [None] * len(progs)
        grads: List[Optional[np.ndarray]] = [None] * len(progs)
        seeds: Sequence[np.ndarray] = ()

        def forward(i: int) -> None:
            outs[i] = progs[i]._forward(xs[i])

        def backward(i: int) -> None:
            grads[i] = progs[i]._backward_from_seed(np.asarray(seeds[i]),
                                                    xs[i])

        run = (self._in_lanes if len(progs) > 1 and len(x) >= LANE_MIN_ROWS
               else self._in_order)
        run(forward)
        seeds = seeds_fn(tuple(outs))
        run(backward)
        gx = grads[0]                        # freshly owned by contract
        for g in grads[1:]:
            np.add(gx, g, out=gx)
        return tuple(outs), gx

    def _in_order(self, work: Callable[[int], None]) -> None:
        _run_each(work, range(len(self.programs)))

    def _in_lanes(self, work: Callable[[int], None]) -> None:
        """``work(i)`` for the odd ``i`` on the helper thread and the even
        ones here.  The helper is joined before this returns or raises,
        so no program is still running when the caller moves on; an
        error on the caller's lane wins over one on the helper's."""
        n = len(self.programs)
        fut = _helper_lane().submit(_run_each, work, range(1, n, 2))
        try:
            _run_each(work, range(0, n, 2))
        finally:
            err = fut.exception()            # waits for the helper
        if err is not None:
            raise err


def generate_grid(attacks: Dict[str, Any], x: np.ndarray, y: np.ndarray,
                  variants: Optional[Dict[str, Sequence[Dict[str, Any]]]] = None,
                  batch_size: int = 64) -> Dict[str, Any]:
    """Run a named grid of attacks over one attack set.

    The experiment drivers' per-configuration loops collapse into one
    call: every attack runs on the slot scheduler, and entries with
    parameter ``variants`` (``{name: [variant, ...]}``) run as a single
    vectorized sweep sharing that attack's compiled programs.  Returns
    ``{name: adversarial_batch}`` — or a list of per-variant batches for
    swept entries.  Distinct attacks hold distinct model pairs, so they
    cannot share programs with each other; the win across entries is
    scheduling, the win within an entry is the sweep.
    """
    out: Dict[str, Any] = {}
    for name, attack in attacks.items():
        v = (variants or {}).get(name)
        if v is None:
            out[name] = attack.generate(x, y, batch_size=batch_size)
        else:
            out[name] = attack.generate_sweep(x, y, v, batch_size=batch_size)
    return out


def _per_item(value, n: int, dtype) -> np.ndarray:
    """Broadcast a scalar (or per-item array) to an (n,) vector."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        return np.full(n, arr, dtype=dtype)
    if arr.shape != (n,):
        raise ValueError(f"per-item parameter has shape {arr.shape}, "
                         f"expected ({n},)")
    return arr


def run_scheduled(attack, x: np.ndarray, y: np.ndarray, adv: np.ndarray,
                  eps: np.ndarray, alpha: np.ndarray, check: np.ndarray,
                  params: Optional[Dict[str, np.ndarray]],
                  capacity: int,
                  snaps: Optional[np.ndarray] = None,
                  deadline=None) -> np.ndarray:
    """Active-slot keep-best loop with cross-batch work stealing.

    ``adv`` holds the initialized iterates and is advanced in place;
    items enter slots in order, step until their criterion fires (only
    where ``check`` is set) or ``attack.steps`` is exhausted, and their
    freed slot is refilled from the pending tail.  ``snaps[t, i]`` — when
    requested — receives item ``i``'s iterate after ``t + 1`` steps,
    frozen at the success iterate once done (the AttackTrace contract).

    Per-sample trajectories depend only on that sample's own gradients,
    so outputs are bit-identical to running each item in its own
    sequential batch — scheduling only changes wall-time.

    ``deadline`` — a :class:`~repro.serve.resilience.DeadlineToken` (or
    anything with its ``poll``/``expire`` surface) — is checked once per
    pass, *before* the next gradient is paid: rows whose deadline has
    passed retire immediately with their current best-so-far iterate and
    are recorded on the token.  Rows that already retired normally are
    never polled, so a completed row can never be marked expired.
    """
    n_items = len(x)
    steps = attack.steps
    steps_done = np.zeros(n_items, dtype=np.intp)
    active: List[int] = []
    next_item = 0

    while active or next_item < n_items:
        while len(active) < capacity and next_item < n_items:
            active.append(next_item)
            next_item += 1
        act = np.asarray(active, dtype=np.intp)
        if deadline is not None:
            exp = np.asarray(deadline.poll(act), dtype=bool)
            if exp.any():
                rows = act[exp]
                deadline.expire(rows, steps_done[rows])
                if snaps is not None:
                    for i in rows:
                        snaps[steps_done[i]:, i] = adv[i]
                active = [i for i, e in zip(active, exp) if not e]
                if not active:
                    continue
                act = act[~exp]
        variant = ({k: v[act] for k, v in params.items()}
                   if params else None)
        g, aux = attack.gradient_with_logits(adv[act], y[act], variant)

        # shifted success check: the logits of this pass describe the
        # current iterates, which earlier passes produced
        keep = np.ones(len(act), dtype=bool)
        elig = (steps_done[act] > 0) & check[act]
        if elig.any():
            mask = attack._success_mask(aux, adv[act], y[act])
            if mask is not None:
                keep = ~(np.asarray(mask, dtype=bool) & elig)

        kact = act[keep]
        if kact.size:
            adv[kact] = attack._step(adv[kact], x[kact], g[keep],
                                     eps=eps[kact], alpha=alpha[kact])
            steps_done[kact] += 1
            if snaps is not None:
                snaps[steps_done[kact] - 1, kact] = adv[kact]

        retired = ~keep | (steps_done[act] >= steps)
        if retired.any():
            if snaps is not None:
                for i in act[retired]:
                    snaps[steps_done[i]:, i] = adv[i]
            active = [i for i, r in zip(active, retired) if not r]
    return adv
