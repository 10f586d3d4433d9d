"""Paired-program attack engine: sweep-vs-sequential parity, cross-batch
work-stealing equivalence, paired-vs-separate executor bit-parity,
keep-best early exit and gradient-pass counts, the executor-cache keying
fix, and the experiment dtype policy."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.attacks import (AttackTrace, CWLinf, DIVA, MomentumPGD, PGD,
                           PairedExecutor, TargetedDIVA, generate_grid)
from repro.attacks.base import softmax_np, softmax_vjp
from repro.nn.graph import ScratchPool, compile_forward
from repro.nn.module import Module


@pytest.fixture(scope="module")
def pair_setup(request):
    """(original, adapted, attack set) trained pair from the shared
    session fixtures."""
    model = request.getfixturevalue("tiny_model")
    quant = request.getfixturevalue("tiny_quantized")
    train, val = request.getfixturevalue("tiny_dataset")
    from repro.data import select_attack_set
    atk = select_attack_set(val, [model, quant], per_class=4)
    return model, quant, atk


@pytest.fixture(scope="module")
def qat_pair():
    """Untrained resnet + frozen 8-bit adaptation with self-labels, in
    float32 pixels."""
    from repro.models import build_model
    from repro.quantization import calibrate, prepare_qat
    from repro.training import predict_labels
    rng = np.random.default_rng(0)
    x = rng.random((16, 3, 12, 12), dtype=np.float32)
    orig = build_model("resnet", num_classes=6, width=4, seed=0)
    quant = prepare_qat(orig, weight_bits=8)
    calibrate(quant, x)
    quant.freeze()
    quant.eval()
    y = predict_labels(orig, x, batch_size=len(x))
    return orig, quant, x, y


EPS = 32.0 / 255.0
ALPHA = 4.0 / 255.0
KW = dict(eps=EPS, alpha=ALPHA, steps=6)

#: compiled-vs-eager parity cases: (attack factory, sweep variants or
#: None for a plain ``generate``)
PARITY_CASES = [
    pytest.param(lambda o, q: DIVA(o, q, **KW), None, id="DIVA"),
    pytest.param(lambda o, q: TargetedDIVA(o, q, target_class=1, **KW), None,
                 id="TargetedDIVA"),
    pytest.param(lambda o, q: TargetedDIVA(o, q, target_class=2, **KW), None,
                 id="TargetedDIVA-target2"),
    pytest.param(lambda o, q: DIVA(o, q, **dict(KW, c=0.5)), None,
                 id="DIVA-c0.5"),
    pytest.param(lambda o, q: DIVA(o, q, **dict(KW, c=2.0)), None,
                 id="DIVA-c2.0"),
    pytest.param(lambda o, q: PGD(q, **dict(KW, eps=0.03, alpha=0.01)), None,
                 id="PGD-keep_best-eps0.03"),
    pytest.param(lambda o, q: PGD(q, **dict(KW, eps=0.1, alpha=0.05)), None,
                 id="PGD-keep_best-eps0.1"),
    pytest.param(lambda o, q: PGD(q, keep_best=False,
                                  **dict(KW, eps=0.03, alpha=0.01)), None,
                 id="PGD-no_keep_best-eps0.03"),
    pytest.param(lambda o, q: PGD(q, keep_best=False,
                                  **dict(KW, eps=0.1, alpha=0.05)), None,
                 id="PGD-no_keep_best-eps0.1"),
    pytest.param(lambda o, q: CWLinf(q, kappa=0.0, **KW), None,
                 id="CWLinf-kappa0"),
    pytest.param(lambda o, q: CWLinf(q, kappa=1.0, **KW), None,
                 id="CWLinf-kappa1"),
    pytest.param(lambda o, q: DIVA(o, q, **KW),
                 [{"c": 0.5}, {"c": 1.0, "eps": 0.05},
                  {"c": 2.0, "alpha": 0.02}], id="DIVA-sweep"),
]


class _SpyModel(Module):
    """Counts forward calls through a wrapped model."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.calls = 0

    def forward(self, x):
        self.calls += 1
        return self.inner(x)


class _NeverSucceeds:
    """Mixin: the success criterion never fires, so every row runs all
    ``steps`` and the pass count is exactly deterministic."""

    def success_from_logits(self, aux, y):
        return None if aux is None else np.zeros(len(y), dtype=bool)

    def is_success(self, x_adv, y):
        return np.zeros(len(x_adv), dtype=bool)


class _NeverSucceedsPGD(_NeverSucceeds, PGD):
    pass


class _NeverSucceedsMomentumPGD(_NeverSucceeds, MomentumPGD):
    pass


class _AlwaysSucceedsMomentumPGD(MomentumPGD):
    """Every checked iterate satisfies the success criterion."""

    def success_from_logits(self, aux, y):
        return None if aux is None else np.ones(len(y), dtype=bool)

    def is_success(self, x_adv, y):
        return np.ones(len(x_adv), dtype=bool)


class _FullBatchPGD(PGD):
    """PGD forced onto the legacy per-batch keep-best loop."""

    shrink_done = False


class TestPairedExecutor:
    def test_paired_matches_separate_bitwise(self, pair_setup):
        """One fused paired step must reproduce the two separate
        value_and_input_grad calls bit for bit (DIVA's Eq. 5 economics
        rely on the fusion being value-neutral)."""
        orig, quant, atk = pair_setup
        x, y = atk.x[:6], atk.y[:6]
        c = 1.0
        pe = PairedExecutor.compile((orig, quant), x)
        assert pe is not None
        atk_obj = DIVA(orig, quant, c=c)
        (zo, za), g = pe.value_and_input_grad(
            x, lambda zs: atk_obj._paired_seeds(zs, y, c))

        exo = compile_forward(orig, x)
        exa = compile_forward(quant, x)

        def seed(z, coeff):
            p = softmax_np(z)
            v = np.zeros_like(p)
            v[np.arange(len(y)), y] = coeff
            return softmax_vjp(p, v)

        zo_ref, go = exo.value_and_input_grad(x, lambda z: seed(z, 1.0))
        za_ref, ga = exa.value_and_input_grad(x, lambda z: seed(z, -c))
        np.testing.assert_array_equal(zo, zo_ref)
        np.testing.assert_array_equal(za, za_ref)
        np.testing.assert_array_equal(g, go + ga)

    def test_paired_lanes_own_their_scratch(self, pair_setup):
        """The two programs run concurrently on large batches, so each
        lane draws from its own pool; within a program, a same-geometry
        conv's gather backward reuses its forward's im2col entry."""
        orig, quant, atk = pair_setup
        pe = PairedExecutor.compile((orig, quant), atk.x[:4])
        assert pe.programs[0]._pool is not pe.programs[1]._pool
        pe.replay(atk.x[:4])
        for prog in pe.programs:
            gathers = [key[1] for key in prog._bufs
                       if isinstance(key, tuple) and key[0] == "conv_gcols"]
            assert gathers
            assert any(prog._bufs[("conv_gcols", o)]
                       is prog._bufs[("conv_cols", o)] for o in gathers)
            assert any(key[0][0] == "conv_cols" for key in prog._pool._bufs)

    @staticmethod
    def _lane_case(pair_setup, rows):
        orig, quant, atk = pair_setup
        rng = np.random.default_rng(rows)
        x = rng.random((rows,) + atk.x.shape[1:])
        y = rng.integers(0, 6, rows)
        pe = PairedExecutor.compile((orig, quant), x[:8])
        diva = DIVA(orig, quant, c=1.0)
        return pe, x, lambda zs: diva._paired_seeds(zs, y, 1.0)

    @pytest.mark.parametrize("rows,laned", [(128, True), (16, False)])
    def test_lanes_match_programs_run_alone(self, pair_setup, rows, laned):
        """Concurrent (128 rows) and sequential (16 rows) paired steps
        return exactly the bytes of each program run alone, with the
        gradients summed in program order."""
        import threading

        from repro.attacks.engine import LANE_MIN_ROWS
        assert (rows >= LANE_MIN_ROWS) == laned
        pe, x, seeds_fn = self._lane_case(pair_setup, rows)
        p0, p1 = pe.programs
        threads = []
        forward = p1._forward

        def spy(xc):
            threads.append(threading.get_ident())
            return forward(xc)

        p1._forward = spy
        (z0, z1), g = pe.value_and_input_grad(x, seeds_fn)
        z0, z1, g = z0.copy(), z1.copy(), g.copy()
        del p1._forward
        assert (threads[0] != threading.get_ident()) == laned

        xc = p0._check_input(x)
        o0 = p0._forward(xc).copy()
        o1 = p1._forward(xc).copy()
        s0, s1 = seeds_fn((o0, o1))
        g0 = p0._backward_from_seed(np.asarray(s0), xc)
        g1 = p1._backward_from_seed(np.asarray(s1), xc)
        assert z0.tobytes() == o0.tobytes()
        assert z1.tobytes() == o1.tobytes()
        assert g.tobytes() == (g0 + g1).tobytes()

    @pytest.mark.parametrize("method", ["_forward", "_backward_from_seed"])
    def test_helper_lane_error_propagates(self, pair_setup, method):
        """An error on the helper's lane reaches the caller (after the
        helper is joined), and the executor replays correctly after."""
        pe, x, seeds_fn = self._lane_case(pair_setup, 128)
        (_, _), ref = pe.value_and_input_grad(x, seeds_fn)
        ref = ref.copy()
        helper_prog = pe.programs[1]

        def boom(*args):
            raise RuntimeError("helper lane failed")

        setattr(helper_prog, method, boom)
        with pytest.raises(RuntimeError, match="helper lane failed"):
            pe.value_and_input_grad(x, seeds_fn)
        delattr(helper_prog, method)
        (_, _), g = pe.value_and_input_grad(x, seeds_fn)
        assert g.tobytes() == ref.tobytes()

    def test_concurrent_callers_share_the_helper_lane(self, pair_setup):
        """More callers than CPUs, each with its own executor, queue on
        the one helper thread under a short switch interval; every step
        still returns its sequential bytes."""
        import sys
        import threading

        cases = [self._lane_case(pair_setup, 32 + i) for i in range(4)]
        refs = []
        for pe, x, seeds_fn in cases:
            (_, _), g = pe.value_and_input_grad(x, seeds_fn)
            refs.append(g.tobytes())
        got = [[] for _ in cases]

        def caller(i):
            pe, x, seeds_fn = cases[i]
            for _ in range(5):
                (_, _), g = pe.value_and_input_grad(x, seeds_fn)
                got[i].append(g.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,))
                       for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[ref] * 5 for ref in refs]

    def test_compile_fallback_is_none(self):
        class Opaque:
            def eval(self):
                return self

            def __call__(self, x):
                return "nope"

        assert PairedExecutor.compile((Opaque(),), np.zeros((2, 1, 4, 4))) is None

    @pytest.mark.parametrize("make,variants", PARITY_CASES)
    def test_paired_generate_matches_eager(self, pair_setup, make, variants):
        orig, quant, atk = pair_setup

        def run(compiled):
            a = make(orig, quant)
            a.use_compiled = compiled
            if variants is None:
                return [a.generate(atk.x, atk.y)]
            return a.generate_sweep(atk.x, atk.y, variants)

        fast, slow = run(True), run(False)
        assert len(fast) == len(slow) == len(variants or [None])
        for f, s in zip(fast, slow):
            np.testing.assert_allclose(f, s, rtol=0, atol=1e-12)


class TestWorkStealing:
    """Scheduling must be value-neutral: per-sample trajectories do not
    depend on which other samples share the gradient batch."""

    def test_small_capacity_equals_full_batch(self, pair_setup):
        orig, quant, atk = pair_setup
        kw = dict(eps=EPS, alpha=ALPHA, steps=8)
        ref = DIVA(orig, quant, **kw).generate(atk.x, atk.y, batch_size=64)
        stolen = DIVA(orig, quant, **kw).generate(atk.x, atk.y, batch_size=3)
        np.testing.assert_array_equal(ref, stolen)

    def test_equals_per_sample_runs_under_uneven_success(self, pair_setup):
        """The trained pair produces genuinely uneven success steps, so
        slots retire and refill at different times; every sample must
        still match its own single-sample run."""
        orig, quant, atk = pair_setup
        kw = dict(eps=EPS, alpha=ALPHA, steps=8)
        batch = DIVA(orig, quant, **kw).generate(atk.x, atk.y, batch_size=5)
        atk_solo = DIVA(orig, quant, **kw)
        for i in range(len(atk.x)):
            solo = atk_solo.generate(atk.x[i:i + 1], atk.y[i:i + 1])
            np.testing.assert_array_equal(batch[i:i + 1], solo)

    def test_pgd_steals_too(self, pair_setup):
        orig, quant, atk = pair_setup
        kw = dict(eps=EPS, alpha=ALPHA, steps=8)
        ref = PGD(quant, **kw).generate(atk.x, atk.y)
        stolen = PGD(quant, **kw).generate(atk.x, atk.y, batch_size=4)
        np.testing.assert_array_equal(ref, stolen)


class TestEarlyExit:
    def test_successful_rows_hold_their_first_success(self, qat_pair):
        """A keep-best row retires at its first success: stepping it
        further (keep_best=False) changes bytes, proving the done mask
        (not luck) held the iterate."""
        orig, quant, x, y = qat_pair
        a = PGD(quant, eps=0.1, alpha=0.02, steps=10)
        a.generate(x, y)                              # warm the plans
        got = a.generate(x, y)
        c = PGD(quant, eps=0.1, alpha=0.02, steps=10, keep_best=False)
        free = c.generate(x, y)
        ok = a.is_success(got, y)
        assert ok.any()
        # every successful row is genuinely adversarial and in-budget
        assert np.abs(got - x).max() <= 0.1 + 1e-6
        # at least one early-retired row differs from the free-running one
        assert any(not np.array_equal(got[i], free[i])
                   for i in np.flatnonzero(ok))

    def test_never_succeeding_rows_pay_exactly_steps_replays(self, qat_pair):
        """Warm plans, never-succeeding rows: program replays == steps —
        no trailing success forward, no hidden extra passes."""
        orig, quant, x, y = qat_pair
        steps = 7
        a = _NeverSucceedsPGD(quant, eps=0.5, alpha=0.01, steps=steps)
        a.generate(x[:8], y[:8])                      # warm the plans
        ex = a._compiled(quant, x[:8])
        before = ex.replays
        a.generate(x[:8], y[:8])
        assert ex.replays - before == steps


class TestPassCountRegression:
    """generate and run_scheduled share done-mask semantics; single-step
    keep-best runs cost exactly one pass on *both* loops (the legacy
    per-batch keep-best loop historically paid a trailing success
    forward)."""

    def test_legacy_keep_best_loop_passes_exactly_steps(self, qat_pair):
        orig, quant, x, y = qat_pair
        steps = 5
        spy = _SpyModel(quant)
        atk = _NeverSucceedsMomentumPGD(spy, steps=steps, eps=0.1,
                                        alpha=0.01)
        atk.use_compiled = False
        atk.generate(x[:8], y[:8])
        assert spy.calls == steps

    @pytest.mark.parametrize("keep_best", [True, False])
    def test_full_batch_loop_stops_once_every_row_expired(self, qat_pair,
                                                          keep_best):
        """Rows whose deadline has passed freeze before the first pass:
        no gradient pass can change what is returned, so none is paid
        (the keep-best loop used to pay all ``steps``)."""
        from repro.serve import DeadlineToken, ManualClock
        orig, quant, x, y = qat_pair
        spy = _SpyModel(quant)
        atk = MomentumPGD(spy, steps=20, keep_best=keep_best)
        atk.use_compiled = False
        token = DeadlineToken(np.zeros(4), ManualClock())
        trace = AttackTrace()
        got = atk.generate(x[:4], y[:4], trace=trace, deadline=token)
        assert spy.calls == 0
        assert np.array_equal(got, x[:4])
        assert token.expired.all() and not token.steps_done.any()
        assert len(trace.snapshots) == 20
        assert all(np.array_equal(s, x[:4]) for s in trace.snapshots)

    def test_full_batch_loop_stops_once_every_row_succeeded(self, qat_pair):
        """Every row succeeds at its first checked iterate: the loop
        stops after the pass that checks it, with the bytes (and trace)
        of a run that had the full budget."""
        orig, quant, x, y = qat_pair
        spy = _SpyModel(quant)
        atk = _AlwaysSucceedsMomentumPGD(spy, steps=20, eps=0.1, alpha=0.01)
        atk.use_compiled = False
        trace = AttackTrace()
        got = atk.generate(x[:4], y[:4], trace=trace)
        assert spy.calls == 2
        one_step = MomentumPGD(quant, steps=1, eps=0.1, alpha=0.01)
        one_step.use_compiled = False
        want = one_step.generate(x[:4], y[:4])
        assert np.array_equal(got, want)
        assert len(trace.snapshots) == 20
        assert all(np.array_equal(s, want) for s in trace.snapshots)

    def test_fgsm_as_single_step_pgd_costs_one_pass_both_loops(self,
                                                               qat_pair):
        orig, quant, x, y = qat_pair
        # float32-exact eps/alpha: the scheduled engine carries them as
        # per-row float32 vectors, the legacy loop as python scalars
        spy_sched = _SpyModel(quant)
        sched = PGD(spy_sched, eps=0.125, alpha=0.125, steps=1)
        sched.use_compiled = False
        got_sched = sched.generate(x[:8], y[:8])
        spy_legacy = _SpyModel(quant)
        legacy = _FullBatchPGD(spy_legacy, eps=0.125, alpha=0.125, steps=1)
        legacy.use_compiled = False
        got_legacy = legacy.generate(x[:8], y[:8])
        # identical done-mask semantics for rows succeeding on step 0:
        # same bytes, and exactly one gradient pass on either loop
        assert np.array_equal(got_sched, got_legacy)
        assert spy_sched.calls == 1
        assert spy_legacy.calls == 1


class TestGenerateSweep:
    def test_sweep_matches_sequential_per_variant(self, pair_setup):
        orig, quant, atk = pair_setup
        steps = 6
        variants = [{"c": 0.1}, {"c": 1.0}, {"eps": 16 / 255, "alpha": 2 / 255},
                    {"c": 5.0, "eps": 48 / 255}, {"keep_best": False}]
        sweep = DIVA(orig, quant, c=1.0, eps=EPS, alpha=ALPHA,
                     steps=steps).generate_sweep(atk.x, atk.y, variants)
        assert len(sweep) == len(variants)
        for v, got in zip(variants, sweep):
            ref_atk = DIVA(orig, quant, c=v.get("c", 1.0),
                           eps=v.get("eps", EPS), alpha=v.get("alpha", ALPHA),
                           steps=steps, keep_best=v.get("keep_best", True))
            np.testing.assert_array_equal(got, ref_atk.generate(atk.x, atk.y))

    def test_sweep_rejects_unknown_params(self, pair_setup):
        orig, quant, atk = pair_setup
        with pytest.raises(ValueError, match="unsupported sweep parameter"):
            DIVA(orig, quant).generate_sweep(atk.x, atk.y, [{"steps": 3}])

    def test_pgd_eps_sweep(self, pair_setup):
        orig, quant, atk = pair_setup
        variants = [{"eps": e, "alpha": e / 8} for e in (8 / 255, 32 / 255)]
        sweep = PGD(quant, steps=6).generate_sweep(atk.x, atk.y, variants)
        for v, got in zip(variants, sweep):
            ref = PGD(quant, eps=v["eps"], alpha=v["alpha"], steps=6)
            np.testing.assert_array_equal(got, ref.generate(atk.x, atk.y))

    def test_momentum_pgd_falls_back_to_sequential(self, pair_setup):
        from repro.attacks import MomentumPGD
        orig, quant, atk = pair_setup
        variants = [{"eps": 16 / 255, "alpha": 2 / 255}, {}]
        sweep = MomentumPGD(quant, eps=EPS, alpha=ALPHA,
                            steps=4).generate_sweep(atk.x, atk.y, variants)
        for v, got in zip(variants, sweep):
            ref = MomentumPGD(quant, eps=v.get("eps", EPS),
                              alpha=v.get("alpha", ALPHA), steps=4)
            np.testing.assert_array_equal(got, ref.generate(atk.x, atk.y))

    def test_generate_grid_mixes_plain_and_sweeps(self, pair_setup):
        orig, quant, atk = pair_setup
        kw = dict(eps=EPS, alpha=ALPHA, steps=4)
        advs = generate_grid(
            {"pgd": PGD(quant, **kw), "diva": DIVA(orig, quant, **kw)},
            atk.x, atk.y, variants={"diva": [{"c": 0.5}, {"c": 2.0}]})
        np.testing.assert_array_equal(
            advs["pgd"], PGD(quant, **kw).generate(atk.x, atk.y))
        assert len(advs["diva"]) == 2
        np.testing.assert_array_equal(
            advs["diva"][1],
            DIVA(orig, quant, c=2.0, **kw).generate(atk.x, atk.y))


class TestExecutorCacheKeying:
    """Regression for the (id(model), shape) cache-key collision: entries
    must pin the model they were compiled from."""

    def _fresh(self, seed=3):
        from repro.models import build_model
        rng = np.random.default_rng(11)
        m = build_model("lenet", num_classes=6, in_channels=1, image_size=12,
                        width=4, seed=seed)
        m.eval()
        x = rng.random((4, 1, 12, 12))
        y = np.zeros(4, dtype=int)
        return m, x, y

    def test_cache_entry_pins_model(self):
        model, x, y = self._fresh()
        atk = PGD(model, steps=2, eps=0.1, alpha=0.05)
        atk.generate(x, y)
        wr = weakref.ref(model)
        # rebind the attack's model: the only strong reference to the old
        # model is now the cache entry itself — exactly what keeps its id
        # from being recycled for a different model
        atk.model, model = self._fresh(seed=4)[0], None
        gc.collect()
        assert wr() is not None
        assert any(o is wr() for _, e in atk.plan_cache.items(scope=atk)
                   for o in e.owners)

    def test_rebound_model_gets_its_own_program(self):
        model_a, x, y = self._fresh(seed=3)
        atk = PGD(model_a, steps=3, eps=0.1, alpha=0.05)
        first = atk.generate(x, y)
        model_b = self._fresh(seed=17)[0]
        atk.model = model_b
        rebound = atk.generate(x, y)
        ref = PGD(model_b, steps=3, eps=0.1, alpha=0.05).generate(x, y)
        np.testing.assert_allclose(rebound, ref, rtol=0, atol=1e-12)
        assert not np.array_equal(first, rebound)
        # both entries alive, each pinning its own model
        models = [o for _, e in atk.plan_cache.items(scope=atk)
                  for o in e.owners]
        assert any(m is model_a for m in models)
        assert any(m is model_b for m in models)


class TestDtypePolicy:
    def test_dtype_keys_artifact_cache(self):
        from repro.experiments import ExperimentConfig
        a = ExperimentConfig.smoke()
        b = dataclasses.replace(a, dtype="float32")
        assert a.cache_key("orig", "resnet") != b.cache_key("orig", "resnet")

    def test_pipeline_applies_dtype_to_attack_set(self, tmp_path, request):
        from repro.experiments import ArtifactStore, ExperimentConfig, Pipeline
        from repro.nn import get_default_dtype
        cfg = dataclasses.replace(ExperimentConfig.smoke(), dtype="float32",
                                  train_epochs=1, num_classes=4,
                                  train_per_class=8, val_per_class=6,
                                  attack_per_class=2)
        pipe = Pipeline(cfg, store=ArtifactStore(str(tmp_path)))
        assert get_default_dtype() == np.float32
        orig = pipe.original("resnet")
        atk = pipe.attack_set([orig], "dtype-test")
        assert atk.x.dtype == np.float32

    def test_coexisting_pipelines_keep_their_own_dtype(self, tmp_path):
        """Constructing a second pipeline must not poison what the first
        one builds afterwards: accessors re-pin their own policy."""
        from repro.experiments import ArtifactStore, ExperimentConfig, Pipeline
        cfg = dataclasses.replace(ExperimentConfig.smoke(), train_epochs=1,
                                  num_classes=4, train_per_class=8,
                                  val_per_class=6, attack_per_class=2)
        pipe64 = Pipeline(cfg, store=ArtifactStore(str(tmp_path / "a")))
        Pipeline(dataclasses.replace(cfg, dtype="float32"),
                 store=ArtifactStore(str(tmp_path / "b")))   # moves the global
        model = pipe64.original("resnet")
        params = list(model.parameters())
        assert params[0].data.dtype == np.float64

    def test_run_dtype_delta_records_deltas(self, tmp_path, monkeypatch):
        from repro.experiments import ArtifactStore, ExperimentConfig
        from repro.experiments import exp_fig6
        monkeypatch.chdir(tmp_path)      # save_results writes under cwd
        cfg = dataclasses.replace(
            ExperimentConfig.smoke(), train_epochs=1, qat_epochs=1,
            num_classes=4, train_per_class=8, val_per_class=6,
            surrogate_per_class=4, attack_per_class=2, steps=3, width=4)
        res = exp_fig6.run_dtype_delta(
            cfg, verbose=False, store=ArtifactStore(str(tmp_path / "store")))
        assert set(res["per_dtype"]) == {"float64", "float32"}
        for name in ("pgd", "diva"):
            assert name in res["dtype_deltas"]
            assert -1.0 <= res["dtype_deltas"][name] <= 1.0
