import concurrent.futures
import contextlib
import functools
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from dpselect import losses, models, rng, trainer
from dpselect.data import LabeledDataset, gen_gaussian_outlier, gen_mixture
from dpselect.data import MixtureComponent, MixtureSpec
from dpselect.losses import cross_entropy_loss, sat_loss, selectivenet_loss
from dpselect.models import ModelSpec, init_params, predict, predict_probs
from dpselect.trainer import (
    CheckpointLog,
    PrivacyConfig,
    TrainConfig,
    clip_rows,
    dpsgd_step,
    eval_set_id,
    load_checkpoint_log,
    poisson_sample,
    save_checkpoint_log,
    sgd_step,
    steps_per_epoch,
    train,
)


def two_blob_data(n_per=40, seed=0):
    spec = MixtureSpec(
        (
            MixtureComponent((-1.5, 0.0), 1.0, n_per, 0),
            MixtureComponent((1.5, 0.0), 1.0, n_per, 1),
        )
    )
    return gen_mixture(spec, seed)


class TestPrimitives:
    def test_clip_rescales_long_rows(self):
        rows = np.array([[3.0, 4.0], [0.3, 0.4]])
        out = clip_rows(rows, 2.5)
        np.testing.assert_allclose(out[0], [1.5, 2.0], atol=1e-15)
        np.testing.assert_array_equal(out[1], rows[1])

    def test_clip_infinite_is_noop(self):
        rows = np.array([[30.0, 40.0]])
        np.testing.assert_array_equal(clip_rows(rows, math.inf), rows)

    def test_clip_zero_row_safe(self):
        np.testing.assert_array_equal(clip_rows(np.zeros((1, 3)), 1.0), np.zeros((1, 3)))

    def test_poisson_sample_deterministic(self):
        a = poisson_sample(100, 0.1, seed=4, step=7)
        b = poisson_sample(100, 0.1, seed=4, step=7)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, poisson_sample(100, 0.1, seed=4, step=8))

    def test_poisson_sample_full_rate(self):
        np.testing.assert_array_equal(poisson_sample(10, 1.0, 0, 1), np.arange(10))

    def test_poisson_sample_rate(self):
        sizes = [len(poisson_sample(1000, 0.05, 0, t)) for t in range(200)]
        assert np.mean(sizes) == pytest.approx(50, rel=0.1)

    def test_clip_norm_must_be_positive(self):
        for clip_norm in (0.0, math.nan):
            with pytest.raises(ValueError, match="clip_norm must be positive"):
                clip_rows(np.ones((2, 3)), clip_norm)

    @pytest.mark.parametrize("q", [0.0, 1.5])
    def test_poisson_sample_rate_out_of_range(self, q):
        with pytest.raises(ValueError, match=r"sampling rate must be in \(0, 1\]"):
            poisson_sample(10, q, seed=0, step=1)

    @pytest.mark.parametrize("change, match", [
        ({"epsilon": 0.0}, r"epsilon must be positive \(math.inf allowed\)"),
        ({"epsilon": math.nan}, r"epsilon must be positive \(math.inf allowed\)"),
        ({"steps": -1}, "steps must be >= 0"),
        ({"steps": math.nan}, "steps must be an integer, got nan"),
        ({"steps": 10.0}, "steps must be an integer, got 10.0"),
        ({"delta": None}, r"finite epsilon requires delta in \(0, 1\)"),
    ], ids=["epsilon", "nan_epsilon", "steps", "nan_steps", "float_steps", "no_delta"])
    def test_privacy_config_is_checked(self, change, match):
        args = {"epsilon": 3.0, "delta": 1e-5, "clip_norm": 1.0, "sampling_rate": 0.1,
                "steps": 10}
        with pytest.raises(ValueError, match=match):
            PrivacyConfig(**{**args, **change})

    @pytest.mark.parametrize("change, match", [
        ({"steps": -1}, "steps must be >= 0"),
        ({"steps": math.nan}, "steps must be an integer, got nan"),
        ({"steps": 10.0}, "steps must be an integer, got 10.0"),
        ({"steps": True}, "steps must be an integer, got True"),
    ], ids=["steps", "nan_steps", "float_steps", "bool_steps"])
    def test_train_config_is_checked(self, change, match):
        args = {"learning_rate": 0.5, "steps": 10, "loss": cross_entropy_loss(),
                "checkpoint_interval": 5}
        with pytest.raises(ValueError, match=match):
            TrainConfig(**{**args, **change})

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
    def test_usable_cpus_is_the_affinity_set(self):
        assert trainer._usable_cpus() == len(os.sched_getaffinity(0))

    def test_steps_per_epoch(self):
        assert steps_per_epoch(0.05) == 20
        assert steps_per_epoch(1.0) == 1
        assert steps_per_epoch(0.7) == 1


class TestStepEquivalence:
    def test_dpsgd_degenerates_to_sgd(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(6,))
        a = init_params(spec, seed=1)
        b = init_params(spec, seed=1)
        loss = cross_entropy_loss()
        for t in range(1, 51):
            idx = poisson_sample(len(data), 0.2, seed=2, step=t)
            x, y = data.features[idx], data.labels[idx]
            a = dpsgd_step(a, spec, x, y, loss, clip_norm=1e9, sigma=0.0,
                           learning_rate=0.3, noise_seed=t)
            b = sgd_step(b, spec, x, y, loss, learning_rate=0.3)
        assert np.max(np.abs(a.values - b.values)) < 1e-9

    def test_empty_batch_still_noises(self):
        spec = ModelSpec(input_dim=2, num_classes=2)
        params = init_params(spec, seed=1)
        x = np.zeros((0, 2))
        y = np.zeros(0, dtype=int)
        out = dpsgd_step(params, spec, x, y, cross_entropy_loss(), clip_norm=1.0,
                         sigma=1.0, learning_rate=0.5, noise_seed=rng.generator(3))
        assert not np.array_equal(out.values, params.values)
        quiet = sgd_step(params, spec, x, y, cross_entropy_loss(), learning_rate=0.5)
        np.testing.assert_array_equal(quiet.values, params.values)

    @pytest.mark.parametrize("x, loss, match", [
        (np.zeros(0), cross_entropy_loss(), r"expected an \(N, 2\) batch"),
        (np.zeros((0, 3)), cross_entropy_loss(), r"expected an \(N, 2\) batch"),
        (np.zeros((0, 2)), sat_loss(), "sat loss requires abstention_head=True"),
    ], ids=["one_dimensional", "wrong_width", "sat_on_plain_head"])
    def test_empty_batch_is_checked(self, x, loss, match):
        # An empty batch takes the checked gradient path like any other.
        spec = ModelSpec(input_dim=2, num_classes=2)
        params = init_params(spec, seed=1)
        with pytest.raises(ValueError, match=match):
            sgd_step(params, spec, x, np.zeros(0, dtype=int), loss, learning_rate=0.5)

    def test_noise_requires_finite_clip(self):
        spec = ModelSpec(input_dim=2, num_classes=2)
        params = init_params(spec, seed=1)
        with pytest.raises(ValueError):
            dpsgd_step(params, spec, np.zeros((1, 2)), np.zeros(1, dtype=int),
                       cross_entropy_loss(), clip_norm=math.inf, sigma=1.0,
                       learning_rate=0.1, noise_seed=rng.generator(0))


    def test_noise_requires_a_seed(self):
        # Without a seed, numpy would draw the noise from OS entropy.
        spec = ModelSpec(input_dim=2, num_classes=2)
        params = init_params(spec, seed=1)
        x, y = np.zeros((2, 2)), np.zeros(2, dtype=int)
        for seed in (None, 3):  # an integer is not a noise generator
            with pytest.raises(ValueError, match="noise_seed"):
                dpsgd_step(params, spec, x, y, cross_entropy_loss(), clip_norm=1.0,
                           sigma=1.0, learning_rate=0.1, noise_seed=seed)
        quiet = dpsgd_step(params, spec, x, y, cross_entropy_loss(), clip_norm=1.0,
                           sigma=0.0, learning_rate=0.1, noise_seed=None)
        assert np.all(np.isfinite(quiet.values))


class TestRunStreamsInTrain:
    def test_private_dropout_sat_run_equals_the_per_step_reference(self):
        # The reference keys every step through poisson_sample and
        # derive_seed; train() draws the same numbers from one RunStreams.
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(5, 3),
                         abstention_head=True, dropout_rate=0.25)
        loss = sat_loss(momentum=0.8, burn_in_epochs=2)
        steps, q, seed = rng.CHUNK_STEPS + 44, 0.1, 2**33 + 7
        cfg = TrainConfig(learning_rate=0.2, steps=steps, loss=loss, entropy_beta=0.01,
                          checkpoint_interval=50, seed=seed)
        privacy = PrivacyConfig(epsilon=4.0, delta=1e-3, clip_norm=0.8,
                                sampling_rate=q, steps=steps)
        result = train(data, spec, cfg, privacy)
        sigma = result.report.sigma
        assert sigma > 0

        params = init_params(spec, seed)
        targets = np.eye(spec.num_classes)[data.labels]
        for t in range(1, steps + 1):
            idx = poisson_sample(len(data), q, seed, t)
            batch_targets = None
            if len(idx) > 0:
                probs = models.predict_probs(params, spec, data.features[idx])
                targets[idx] = losses.sat_update_targets(
                    targets[idx], losses.renormalized_class_probs(probs, spec.num_classes),
                    loss.momentum, epoch=(t - 1) // steps_per_epoch(q),
                    burn_in_epochs=loss.burn_in_epochs,
                )
                batch_targets = targets[idx]
            params = dpsgd_step(
                params, spec, data.features[idx], data.labels[idx], loss,
                clip_norm=0.8, sigma=sigma, learning_rate=0.2, entropy_beta=0.01,
                sat_targets=batch_targets,
                noise_seed=rng.generator(rng.derive_seed(seed, rng.STREAM_NOISE, t)),
                dropout_seed=functools.partial(
                    rng.generator, rng.derive_seed(seed, rng.STREAM_DROPOUT, t),
                    rng.STREAM_DROPOUT),
            )
        assert np.array_equal(result.params.values, params.values)


class TestFactorizedStep:
    def test_step_never_materializes_rows(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the training step built per-example rows")

        monkeypatch.setattr(models, "per_sample_grad", refuse)
        monkeypatch.setattr(trainer, "clip_rows", refuse)
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(4,), dropout_rate=0.2)
        params = init_params(spec, seed=1)
        out = dpsgd_step(params, spec, data.features[:10], data.labels[:10],
                         cross_entropy_loss(), clip_norm=1.0, sigma=1.0,
                         learning_rate=0.1, noise_seed=rng.generator(3),
                         dropout_seed=functools.partial(rng.generator, 5, rng.STREAM_DROPOUT))
        assert not np.array_equal(out.values, params.values)
        cfg = TrainConfig(learning_rate=0.3, steps=10, loss=cross_entropy_loss(),
                          checkpoint_interval=5, seed=1)
        privacy = PrivacyConfig(epsilon=3.0, delta=1e-3, clip_norm=1.0,
                                sampling_rate=0.2, steps=10)
        result = train(data, spec, cfg, privacy)
        assert np.all(np.isfinite(result.params.values))

    def test_wide_step_memory_is_bounded(self):
        # The (B, P) per-example matrix alone would be 750 x 67,074 x 8 B = 402 MB.
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(256, 256),
                         dropout_rate=0.1)
        params = init_params(spec, seed=0)
        draws = np.random.default_rng(0)
        x = draws.normal(size=(750, 2))
        y = draws.integers(0, 2, size=750)
        tracemalloc.start()
        try:
            dpsgd_step(params, spec, x, y, cross_entropy_loss(), clip_norm=1.0,
                       sigma=1.0, learning_rate=0.1, noise_seed=rng.generator(1),
                       dropout_seed=functools.partial(rng.generator, 2, rng.STREAM_DROPOUT))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestStepBuffers:
    def test_step_computes_in_the_given_buffers(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(6,))
        params = init_params(spec, seed=1)
        before = params.values.copy()
        x, y, loss = data.features[:12], data.labels[:12], cross_entropy_loss()
        step = functools.partial(dpsgd_step, params, spec, x, y, loss, clip_norm=1.0,
                                 sigma=1.0, learning_rate=0.3)
        out, noise = np.empty(len(params)), np.empty(len(params))
        got = step(noise_seed=rng.generator(4), out=out, noise_out=noise)
        want = step(noise_seed=rng.generator(4))
        assert got.values is out and got.values.tobytes() == want.values.tobytes()
        plain = sgd_step(params, spec, x, y, loss, learning_rate=0.3, out=noise)
        assert plain.values is noise
        assert plain.values.tobytes() == sgd_step(params, spec, x, y, loss,
                                                  learning_rate=0.3).values.tobytes()
        assert params.values.tobytes() == before.tobytes()
        for overlap in ({"out": params.values}, {"out": out, "noise_out": out},
                        {"out": out, "noise_out": params.values}):
            with pytest.raises(ValueError, match="overlap|separate"):
                step(noise_seed=rng.generator(4), **overlap)

    @pytest.mark.parametrize("private", [False, True])
    def test_train_matches_steps_into_fresh_arrays(self, private):
        # train() steps into two alternating parameter vectors and one noise vector;
        # a loop of dpsgd_step calls that allocate must give the same parameter bytes.
        data, eval_set = two_blob_data(), two_blob_data(n_per=200, seed=9)
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(8, 4), dropout_rate=0.2)
        steps, q, seed, sigma = 40, 0.2, 11, 1.1
        cfg = TrainConfig(learning_rate=0.3, steps=steps, loss=cross_entropy_loss(),
                          entropy_beta=0.01, checkpoint_interval=10, seed=seed)
        privacy = (PrivacyConfig(epsilon=8.0, delta=1e-3, clip_norm=1.0, sampling_rate=q,
                                 steps=steps, noise_multiplier=sigma)
                   if private else PrivacyConfig.non_private(steps, q))
        result = train(data, spec, cfg, privacy, eval_set)

        params = init_params(spec, seed)
        for t in range(1, steps + 1):
            idx = poisson_sample(len(data), q, seed, t)
            params = dpsgd_step(
                params, spec, data.features[idx], data.labels[idx], cross_entropy_loss(),
                clip_norm=1.0 if private else math.inf, sigma=sigma if private else 0.0,
                learning_rate=0.3, entropy_beta=0.01,
                noise_seed=rng.generator(rng.derive_seed(seed, rng.STREAM_NOISE, t)),
                dropout_seed=functools.partial(
                    rng.generator, rng.derive_seed(seed, rng.STREAM_DROPOUT, t),
                    rng.STREAM_DROPOUT),
            )
        assert result.params.values.tobytes() == params.values.tobytes()
        assert result.log.final_probs.tobytes() == predict_probs(
            params, spec, eval_set.features).tobytes()
        # A later run writes into buffers of its own, never into a returned result.
        train(data, spec, cfg, privacy, eval_set)
        assert result.params.values.tobytes() == params.values.tobytes()


# Two hidden layers of 128 give 17,154 parameters, just above the overlap gate.
WIDE = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(128, 128), dropout_rate=0.1)


class SlowWorker(concurrent.futures.ThreadPoolExecutor):
    """One worker thread that starts each task late, so the main thread finishes first."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.futures = []

    def submit(self, fn, /, *args, **kwargs):
        def late():
            time.sleep(0.05)
            return fn(*args, **kwargs)

        self.futures.append(super().submit(late))
        return self.futures[-1]


@contextlib.contextmanager
def busy_worker():
    """A one-thread executor whose thread an earlier task holds for the block (at
    most 5 s), so a draw submitted in the block is still queued when its gradient
    is done."""
    gate = threading.Event()
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as worker:
        worker.submit(gate.wait, 5.0)
        try:
            yield worker
        finally:
            gate.set()


def wide_step(params, **kwargs):
    data = two_blob_data()
    return dpsgd_step(params, WIDE, data.features[:15], data.labels[:15], cross_entropy_loss(),
                      clip_norm=1.0, sigma=1.3, learning_rate=0.2, noise_seed=rng.generator(6),
                      dropout_seed=functools.partial(rng.generator, 8, rng.STREAM_DROPOUT),
                      **kwargs)


def threads_during_train(monkeypatch, spec, privacy, cpus, fail_at=None, learning_rate=0.3):
    """Run 6 steps of ``train`` with ``cpus`` usable CPUs; returns the thread count seen
    in each step.

    ``fail_at`` makes that gradient call raise, as a broken step would.
    """
    seen = []
    batch_grad = models.batch_grad

    def counting(*args, **kwargs):
        seen.append(threading.active_count())
        if len(seen) == fail_at:
            raise RuntimeError("gradient failed")
        return batch_grad(*args, **kwargs)

    monkeypatch.setattr(models, "batch_grad", counting)
    monkeypatch.setattr(trainer, "_usable_cpus", lambda: cpus)
    cfg = TrainConfig(learning_rate=learning_rate, steps=6, loss=cross_entropy_loss(),
                      checkpoint_interval=2, seed=4)
    train(two_blob_data(), spec, cfg, privacy)
    return seen


class TestNoiseWorker:
    PRIVATE = PrivacyConfig(epsilon=8.0, delta=1e-3, clip_norm=1.0, sampling_rate=0.3,
                            steps=6, noise_multiplier=1.1)

    @pytest.mark.parametrize("batch", [15, 0])
    @pytest.mark.parametrize("buffers", [False, True], ids=["fresh", "buffers"])
    def test_worker_draw_is_the_inline_draw(self, batch, buffers):
        data = two_blob_data()
        params = init_params(WIDE, seed=2)
        x, y = data.features[:batch], data.labels[:batch]
        step = functools.partial(dpsgd_step, params, WIDE, x, y, cross_entropy_loss(),
                                 clip_norm=1.0, sigma=1.3, learning_rate=0.2)
        kwargs = ({"out": np.empty(len(params)), "noise_out": np.empty(len(params))}
                  if buffers else {})
        inline = step(noise_seed=rng.generator(6)).values.tobytes()
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as worker:
            got = step(noise_seed=rng.generator(6), noise_worker=worker, **kwargs)
        assert got.values.tobytes() == inline
        if buffers:
            assert got.values is kwargs["out"]

    @pytest.mark.parametrize("threaded", [False, True], ids=["inline", "worker"])
    def test_rejected_call_leaves_out_unchanged(self, threaded):
        # The worker's draw is submitted only after the gradient's arguments pass.
        data = two_blob_data()
        params = init_params(WIDE, seed=2)
        before = params.values.copy()
        out, noise = np.full(len(params), 7.0), np.full(len(params), 5.0)
        call = {"x": data.features[:15], "y": data.labels[:15], "loss": cross_entropy_loss(),
                "clip_norm": 1.0, "sigma": 1.3, "out": out, "noise_out": noise}
        rejected = [({"noise_out": noise_out}, "overlap")
                    for noise_out in (params.values, out, out[::2])]
        rejected += [({"out": params.values}, "separate vector"),
                     ({"x": data.features[0]}, "batch"),
                     ({"clip_norm": 0.0}, "clip_norm must be positive"),
                     ({"clip_norm": math.nan}, "noise requires a finite clip_norm"),
                     ({"sigma": math.nan}, "sigma must be >= 0 and finite"),
                     ({"sigma": -1.0}, "sigma must be >= 0 and finite"),
                     ({"sigma": math.inf}, "sigma must be >= 0 and finite"),
                     ({"loss": selectivenet_loss(0.5)}, "selectivenet_heads"),
                     ({"loss": sat_loss()}, "sat loss requires abstention_head=True")]
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as worker:
            threads = {"noise_worker": worker} if threaded else {}
            for change, match in rejected:
                with pytest.raises(ValueError, match=match):
                    dpsgd_step(params, WIDE, **{**call, **change}, learning_rate=0.2,
                               noise_seed=rng.generator(6), **threads)
        assert out.tobytes() == np.full(len(params), 7.0).tobytes()
        assert noise.tobytes() == np.full(len(params), 5.0).tobytes()
        assert params.values.tobytes() == before.tobytes()

    def test_failed_gradient_waits_for_the_draw(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("gradient failed")

        params = init_params(WIDE, seed=2)
        want = np.empty(len(params))
        wide_step(params, noise_out=want, out=np.empty_like(want))
        monkeypatch.setattr(models, "batch_grad", fail)
        noise = np.zeros_like(want)
        with SlowWorker() as worker:
            with pytest.raises(RuntimeError, match="gradient failed"):
                wide_step(params, noise_out=noise, noise_worker=worker)
            assert worker.futures[0].done()
            assert noise.tobytes() == want.tobytes()

    def test_failed_gradient_cancels_a_queued_draw(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("gradient failed")

        monkeypatch.setattr(models, "batch_grad", fail)
        noise = np.zeros(len(init_params(WIDE, seed=2)))
        with busy_worker() as worker:
            with pytest.raises(RuntimeError, match="gradient failed"):
                wide_step(init_params(WIDE, seed=2), noise_out=noise, noise_worker=worker)
        assert not noise.any()  # nor after the worker was freed

    def test_a_draw_the_worker_has_not_started_is_made_inline(self, monkeypatch):
        params = init_params(WIDE, seed=2)
        want = np.empty(len(params))
        inline = wide_step(params, noise_out=want, out=np.empty_like(want)).values.tobytes()
        threads, draw_noise = [], trainer._draw_noise

        def recording(*args):
            threads.append(threading.current_thread())
            return draw_noise(*args)

        monkeypatch.setattr(trainer, "_draw_noise", recording)
        noise = np.empty_like(want)
        with busy_worker() as worker:
            got = wide_step(params, noise_out=noise, noise_worker=worker).values.tobytes()
        assert got == inline and threads == [threading.current_thread()]
        assert noise.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "hidden, private, cpus, threaded",
        [((128, 128), True, 2, True), ((128, 128), True, 1, False),
         ((128, 128), False, 2, False), ((8,), True, 2, False)],
        ids=["wide_private", "one_cpu", "non_private", "narrow"])
    def test_only_wide_private_runs_on_two_cpus_take_a_worker(self, monkeypatch, hidden,
                                                              private, cpus, threaded):
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=hidden)
        assert (len(init_params(spec, 0)) >= trainer.OVERLAP_MIN_PARAMS) == (hidden != (8,))
        before = threading.active_count()
        privacy = self.PRIVATE if private else PrivacyConfig.non_private(6, 0.3)
        seen = threads_during_train(monkeypatch, spec, privacy, cpus)
        assert seen == [before + threaded] * 6
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_the_worker_trains_the_same_bits(self, monkeypatch, cpus):
        data, eval_set = two_blob_data(), two_blob_data(n_per=30, seed=9)
        cfg = TrainConfig(learning_rate=0.3, steps=6, loss=cross_entropy_loss(),
                          entropy_beta=0.01, checkpoint_interval=2, seed=4)
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
        try:
            result = train(data, WIDE, cfg, self.PRIVATE, eval_set)
        finally:
            sys.setswitchinterval(interval)
        params = init_params(WIDE, 4)
        for t in range(1, 7):
            idx = poisson_sample(len(data), 0.3, 4, t)
            params = dpsgd_step(
                params, WIDE, data.features[idx], data.labels[idx], cross_entropy_loss(),
                clip_norm=1.0, sigma=1.1, learning_rate=0.3, entropy_beta=0.01,
                noise_seed=rng.generator(rng.derive_seed(4, rng.STREAM_NOISE, t)),
                dropout_seed=functools.partial(
                    rng.generator, rng.derive_seed(4, rng.STREAM_DROPOUT, t),
                    rng.STREAM_DROPOUT),
            )
        assert result.params.values.tobytes() == params.values.tobytes()
        assert result.log.final_probs.tobytes() == predict_probs(
            params, WIDE, eval_set.features).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("ending", ["success", "diverged", "raised"])
    def test_train_closes_its_worker(self, monkeypatch, ending):
        before = threading.active_count()
        privacy = self.PRIVATE
        if ending == "success":
            seen = threads_during_train(monkeypatch, WIDE, privacy, cpus=2)
        elif ending == "diverged":
            with pytest.raises(ValueError, match="training diverged"):
                threads_during_train(monkeypatch, WIDE, privacy, cpus=2, learning_rate=1e200)
        else:
            with pytest.raises(RuntimeError, match="gradient failed"):
                threads_during_train(monkeypatch, WIDE, privacy, cpus=2, fail_at=3)
        assert threading.active_count() == before
        if ending == "success":
            assert seen == [before + 1] * 6


class TestTrain:
    def test_checkpoint_schedule(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, steps=25, loss=cross_entropy_loss(),
                          checkpoint_interval=10, seed=3)
        result = train(data, spec, cfg, PrivacyConfig.non_private(25, 0.5))
        np.testing.assert_array_equal(result.log.checkpoint_times, [10, 20, 25])

    def test_zero_steps_logs_initial_model(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, steps=0, loss=cross_entropy_loss(), seed=3)
        result = train(data, spec, cfg, PrivacyConfig.non_private(0, 0.5))
        np.testing.assert_array_equal(result.log.checkpoint_times, [0])
        np.testing.assert_array_equal(result.params.values, init_params(spec, 3).values)

    def test_checkpoint_matrix_is_allocated_once(self):
        # 100 checkpoints over 20,000 rows: a list of rows stacked at the end held
        # the (checkpoints, N) matrix twice (31.2 MB traced for a 15.3 MB matrix).
        data, eval_set = two_blob_data(), two_blob_data(n_per=10_000, seed=9)
        spec = ModelSpec(input_dim=2, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, steps=100, loss=cross_entropy_loss(),
                          checkpoint_interval=1, seed=3)
        tracemalloc.start()
        try:
            result = train(data, spec, cfg, PrivacyConfig.non_private(100, 0.2), eval_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        preds = result.log.predictions
        assert preds.shape == (100, 20_000) and preds.dtype == np.int64
        assert peak < 1.25 * preds.nbytes + 2**20

    def test_final_row_matches_returned_params(self):
        data = two_blob_data()
        eval_set = two_blob_data(seed=9)
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(4,))
        cfg = TrainConfig(learning_rate=0.5, steps=30, loss=cross_entropy_loss(),
                          checkpoint_interval=7, seed=3)
        result = train(data, spec, cfg, PrivacyConfig.non_private(30, 0.2), eval_set)
        np.testing.assert_array_equal(
            result.log.predictions[-1], predict(result.params, spec, eval_set.features)
        )
        assert result.log.eval_set_id == eval_set_id(eval_set)

    def test_horizon_mismatch_rejected(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, steps=10, loss=cross_entropy_loss(),
                          checkpoint_interval=10, seed=0)
        with pytest.raises(ValueError, match="horizon"):
            train(data, spec, cfg, PrivacyConfig.non_private(20, 0.5))

    def test_eval_set_of_another_width_rejected_before_the_first_step(self, monkeypatch):
        # It used to train all 2,000 steps and fail at the final checkpoint's prediction.
        steps = []
        monkeypatch.setattr(trainer, "dpsgd_step", lambda *a, **k: steps.append(a))
        data, eval_set = two_blob_data(), two_blob_data(seed=9)
        eval_set = LabeledDataset(np.hstack([eval_set.features, eval_set.features[:, :1]]),
                                  eval_set.labels, eval_set.num_classes)
        spec = ModelSpec(input_dim=2, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, steps=2000, loss=cross_entropy_loss(),
                          checkpoint_interval=2000, seed=0)
        with pytest.raises(ValueError, match=r"expected an \(N, 2\) batch, got shape \(80, 3\)"):
            train(data, spec, cfg, PrivacyConfig.non_private(2000, 0.5), eval_set)
        assert steps == []

    def test_insufficient_noise_rejected(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, steps=10, loss=cross_entropy_loss(),
                          checkpoint_interval=10, seed=0)
        privacy = PrivacyConfig(epsilon=0.5, delta=1e-3, clip_norm=1.0,
                                sampling_rate=0.5, steps=10, noise_multiplier=0.4)
        with pytest.raises(ValueError, match="exceeds target"):
            train(data, spec, cfg, privacy)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_noise_multiplier_rejected(self, sigma):
        # inf trained to NaN parameters and certified a finite epsilon; NaN trained
        # the whole run before the accountant found no finite RDP value.
        with pytest.raises(ValueError, match="noise_multiplier must be 'auto' or >= 0 and finite"):
            PrivacyConfig(epsilon=3.0, delta=1e-3, clip_norm=1.0, sampling_rate=0.5,
                          steps=10, noise_multiplier=sigma)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("private", [False, True], ids=["non_private", "private"])
    def test_diverged_run_raises(self, private):
        # Overflowing steps leave NaN parameters; the command line runs with the
        # RuntimeWarnings they raise ignored, so the run itself must fail.
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(8,))
        cfg = TrainConfig(learning_rate=1e200, steps=20, loss=cross_entropy_loss(),
                          checkpoint_interval=5, seed=0)
        privacy = (PrivacyConfig(epsilon=3.0, delta=1e-3, clip_norm=1.0, sampling_rate=0.5,
                                 steps=20) if private else PrivacyConfig.non_private(20, 0.5))
        with pytest.raises(ValueError, match="training diverged"):
            train(data, spec, cfg, privacy)

    def test_private_run_reports_calibrated_budget(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, steps=20, loss=cross_entropy_loss(),
                          checkpoint_interval=20, seed=0)
        privacy = PrivacyConfig(epsilon=3.0, delta=1e-3, clip_norm=1.0,
                                sampling_rate=0.2, steps=20)
        result = train(data, spec, cfg, privacy)
        assert 0.999 * 3.0 <= result.report.epsilon <= 3.0
        assert result.report.sigma > 0

    def test_non_private_report(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, steps=5, loss=cross_entropy_loss(),
                          checkpoint_interval=5, seed=0)
        report = train(data, spec, cfg, PrivacyConfig.non_private(5, 0.5)).report
        assert report.epsilon == math.inf and report.sigma == 0.0

    def test_reproducible_end_to_end(self):
        data = gen_gaussian_outlier(60, [6.0, 0.0], seed=2)
        spec = ModelSpec(input_dim=2, num_classes=2)
        cfg = TrainConfig(learning_rate=0.5, steps=15, loss=cross_entropy_loss(),
                          checkpoint_interval=15, seed=5)
        privacy = PrivacyConfig(epsilon=3.0, delta=1e-2, clip_norm=1.0,
                                sampling_rate=0.2, steps=15)
        a = train(data, spec, cfg, privacy)
        b = train(data, spec, cfg, privacy)
        np.testing.assert_array_equal(a.params.values, b.params.values)

    def test_sat_training_emits_wide_simplex(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2, abstention_head=True)
        cfg = TrainConfig(learning_rate=0.5, steps=20, loss=sat_loss(burn_in_epochs=1),
                          checkpoint_interval=10, seed=1)
        result = train(data, spec, cfg, PrivacyConfig.non_private(20, 0.2))
        assert result.log.final_probs.shape == (len(data), 3)
        np.testing.assert_allclose(result.log.final_probs.sum(axis=1), 1.0, atol=1e-9)
        assert result.log.predictions.max() <= 1  # argmax over real classes only

    def test_selectivenet_training_logs_selection(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(4,),
                         selectivenet_heads=True)
        cfg = TrainConfig(learning_rate=0.3, steps=20, loss=selectivenet_loss(0.5),
                          checkpoint_interval=10, seed=1)
        result = train(data, spec, cfg, PrivacyConfig.non_private(20, 0.2))
        assert result.log.final_selection is not None
        assert result.log.final_selection.shape == (len(data),)

    def test_dropout_training_runs(self):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2, hidden_sizes=(4,),
                         dropout_rate=0.2)
        cfg = TrainConfig(learning_rate=0.3, steps=10, loss=cross_entropy_loss(),
                          checkpoint_interval=5, seed=1)
        result = train(data, spec, cfg, PrivacyConfig.non_private(10, 0.3))
        assert np.all(np.isfinite(result.params.values))


class TestLogPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        data = two_blob_data()
        spec = ModelSpec(input_dim=2, num_classes=2, selectivenet_heads=True)
        cfg = TrainConfig(learning_rate=0.3, steps=10, loss=selectivenet_loss(0.5),
                          checkpoint_interval=5, seed=1)
        log = train(data, spec, cfg, PrivacyConfig.non_private(10, 0.3)).log
        save_checkpoint_log(log, tmp_path / "log")
        loaded = load_checkpoint_log(tmp_path / "log")
        np.testing.assert_array_equal(loaded.checkpoint_times, log.checkpoint_times)
        np.testing.assert_array_equal(loaded.predictions, log.predictions)
        np.testing.assert_array_equal(loaded.final_probs, log.final_probs)
        np.testing.assert_array_equal(loaded.final_selection, log.final_selection)
        assert loaded.eval_set_id == log.eval_set_id

    def test_golden_bytes(self, tmp_path):
        log = CheckpointLog(
            checkpoint_times=np.array([5, 10]),
            predictions=np.array([[0, 1, 2], [1, 1, 0]]),
            final_probs=np.array([[0.25, 0.75], [0.1, 0.9], [1 / 3, 2 / 3]]),
            eval_set_id="abc",
            final_selection=np.array([0.5, -1, 2]),
        )
        save_checkpoint_log(log, tmp_path / "log")
        files = {p.name: p.read_bytes() for p in (tmp_path / "log").iterdir()}
        assert files == {
            "log.json": b'{\n  "format": "dpselect-checkpoint-log",\n  "version": 1,\n'
                        b'  "checkpoint_times": [\n    5,\n    10\n  ],\n'
                        b'  "eval_set_id": "abc",\n  "eval_size": 3,\n  "num_outputs": 2,\n'
                        b'  "has_selection": true\n}',
            "predictions.csv": b"0,1,2\n1,1,0\n",
            "final_probs.csv": b"0.25,0.75\n0.10000000000000001,0.90000000000000002\n"
                               b"0.33333333333333331,0.66666666666666663\n",
            "final_selection.csv": b"0.5\n-1\n2\n",
        }

    def test_rejects_another_version(self, tmp_path):
        log = CheckpointLog(checkpoint_times=np.array([5]), predictions=np.zeros((1, 3)),
                            final_probs=np.full((3, 2), 0.5), eval_set_id="x")
        save_checkpoint_log(log, tmp_path / "log")
        header = tmp_path / "log" / "log.json"
        header.write_text(header.read_text().replace('"version": 1', '"version": 2'))
        with pytest.raises(ValueError, match="unsupported log version 2"):
            load_checkpoint_log(tmp_path / "log")

    def test_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "log.json").write_text("{}")
        with pytest.raises(ValueError):
            load_checkpoint_log(tmp_path)

    def test_log_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CheckpointLog(
                checkpoint_times=np.array([5, 5]),
                predictions=np.zeros((2, 3), dtype=int),
                final_probs=np.full((3, 2), 0.5),
                eval_set_id="x",
            )
        with pytest.raises(ValueError, match="predictions shape does not match"):
            CheckpointLog(
                checkpoint_times=np.array([5, 10]),
                predictions=np.zeros((2, 4), dtype=int),
                final_probs=np.full((3, 2), 0.5),
                eval_set_id="x",
            )

    def test_eval_set_id_distinguishes_data(self):
        assert eval_set_id(two_blob_data(seed=0)) != eval_set_id(two_blob_data(seed=1))

    def test_eval_set_id_is_pinned(self):
        # Stored in every log.json: the digest of the features' and labels' bytes.
        assert eval_set_id(two_blob_data(seed=0)) == "c2305014cdf5fcac"
