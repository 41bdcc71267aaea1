"""Minibatch SGD and DP-SGD training loops with checkpointed predictions.

One loop serves both regimes. A step samples a Poisson batch at rate ``q``,
takes the mean of the per-example gradients each clipped to L2 norm ``c``
(:func:`models.batch_grad`, which works from per-layer factors and never
materializes the per-example rows), adds Gaussian noise
``N(0, (sigma c)^2 I)`` divided by the realized batch size once per step,
and applies a plain gradient step. A non-private run is the degenerate
configuration ``sigma = 0`` with clipping disabled, on the identical batch
sequence.

Plain SGD keeps no optimizer state (no momentum, no schedules); reproducing
a run requires only (data, spec, configs, seed).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import accountant, losses, models
from .data import LabeledDataset
from .evaluation import read_table, write_atomic, write_table
from .losses import LossSpec
from .models import DropoutSeed, ModelSpec, ParamVector
from .rng import STREAM_BATCH, RunStreams, generator

CHECKPOINT_LOG_FORMAT = "dpselect-checkpoint-log"
CHECKPOINT_LOG_VERSION = 1
# Bumped whenever a change to the training or evaluation arithmetic moves
# trained parameters or logged outputs, so run directories made by older code
# hash apart. 2: clipped gradients from per-layer factors instead of
# materialized rows. 3: evaluation passes run in blocks of 256 rows, which
# moves the last bits of final probabilities and selection outputs. 4: MC-dropout
# passes run in blocks of 256 rows, which moves the last bits of mcdo scores.
ALGORITHM_VERSION = 4
# A private run of at least this many parameters draws each step's noise on a
# worker thread while the main thread computes the gradient, when the process
# may run on two or more CPUs. Below it the handoff costs more than the draw.
OVERLAP_MIN_PARAMS = 2**14


def _check_steps(steps) -> None:
    """A step count is an integer >= 0; a bool, a float and nan are none."""
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ValueError("steps must be >= 0")


@dataclass(frozen=True)
class PrivacyConfig:
    """Privacy regime of one training run.

    ``epsilon`` may be ``math.inf``, which disables clipping and noise
    entirely. ``noise_multiplier`` is either an explicit value or ``"auto"``,
    in which case :func:`train` calibrates it against the target with the
    accountant. ``steps`` is the accounting horizon and must match the
    optimizer's step count.
    """

    epsilon: float
    delta: float | None
    clip_norm: float
    sampling_rate: float
    steps: int
    noise_multiplier: float | str = "auto"

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive (math.inf allowed)")
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        _check_steps(self.steps)
        if math.isinf(self.epsilon):
            return
        if self.delta is None or not 0.0 < self.delta < 1.0:
            raise ValueError("finite epsilon requires delta in (0, 1)")
        if not 0.0 < self.clip_norm < math.inf:
            raise ValueError("finite epsilon requires a finite positive clip_norm")
        if self.noise_multiplier != "auto" and not 0 <= float(self.noise_multiplier) < math.inf:
            raise ValueError("noise_multiplier must be 'auto' or >= 0 and finite, "
                             f"got {self.noise_multiplier!r}")

    @classmethod
    def non_private(cls, steps: int, sampling_rate: float = 1.0) -> "PrivacyConfig":
        return cls(
            epsilon=math.inf,
            delta=None,
            clip_norm=math.inf,
            sampling_rate=sampling_rate,
            steps=steps,
            noise_multiplier=0.0,
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    steps: int
    loss: LossSpec
    entropy_beta: float = 0.0
    checkpoint_interval: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
        _check_steps(self.steps)
        if not 0 <= self.entropy_beta < math.inf:
            raise ValueError(f"entropy_beta must be >= 0 and finite, got {self.entropy_beta!r}")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.steps > 0 and self.checkpoint_interval > self.steps:
            raise ValueError("checkpoint_interval exceeds total steps")


@dataclass(frozen=True)
class CheckpointLog:
    """Predicted labels on a fixed evaluation set along the trajectory.

    ``checkpoint_times`` are 1-based optimizer steps (0 alone for untrained
    models), strictly increasing, and the last entry is the final model, so
    the last prediction row always matches ``predict`` of the returned
    parameters. ``final_probs`` holds the final model's full output simplex
    (``C + 1`` wide for abstention heads, the prediction head for selective
    nets, whose raw selection outputs ride along in ``final_selection``).
    """

    checkpoint_times: np.ndarray
    predictions: np.ndarray
    final_probs: np.ndarray
    eval_set_id: str
    final_selection: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.checkpoint_times, dtype=np.int64)
        preds = np.asarray(self.predictions, dtype=np.int64)
        probs = np.asarray(self.final_probs, dtype=np.float64)
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("checkpoint_times must be strictly increasing")
        if preds.shape != (times.shape[0], probs.shape[0]):
            raise ValueError("predictions shape does not match times and eval set")
        object.__setattr__(self, "checkpoint_times", times)
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "final_probs", probs)


@dataclass(frozen=True)
class TrainResult:
    params: ParamVector
    log: CheckpointLog
    report: accountant.PrivacyReport


def steps_per_epoch(sampling_rate: float) -> int:
    """Steps per expected pass over the data under Poisson sampling."""
    return max(1, round(1.0 / sampling_rate))


def poisson_sample(n: int, q: float, seed: int, step: int) -> np.ndarray:
    """Indices of one Poisson batch; a pure function of (n, q, seed, step).

    The reference for :func:`train`, which draws the same batches from
    ``RunStreams(seed).batch(step)``.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    u = generator(seed, STREAM_BATCH, step).random(n)
    return np.flatnonzero(u < q)


def clip_rows(rows: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale each row to L2 norm at most ``clip_norm``; infinite norm is a no-op.

    The materialized reference for the clipping inside :func:`models.batch_grad`.
    """
    if not clip_norm > 0:
        raise ValueError("clip_norm must be positive")
    if not math.isfinite(clip_norm):
        return rows
    norms = np.linalg.norm(rows, axis=1)
    factors = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))
    return rows * factors[:, None]


def eval_set_id(data: LabeledDataset) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(data.features))
    digest.update(np.ascontiguousarray(data.labels))
    return digest.hexdigest()[:16]


def dpsgd_step(
    params: ParamVector,
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    loss: LossSpec,
    *,
    clip_norm: float,
    sigma: float,
    learning_rate: float,
    noise_seed: np.random.Generator | None,
    entropy_beta: float = 0.0,
    sat_targets: np.ndarray | None = None,
    dropout_seed: DropoutSeed = None,
    out: np.ndarray | None = None,
    noise_out: np.ndarray | None = None,
    noise_worker: concurrent.futures.Executor | None = None,
) -> ParamVector:
    """One DP-SGD update: average clipped per-example gradients, add noise once.

    The clipped mean comes from :func:`models.batch_grad`, which takes each
    example's norm as ``sum_l |U_l,i|^2 (|A_l,i|^2 + 1)`` over the per-layer
    factors and contracts each layer as ``(w * U_l)^T A_l``, so the (B, P)
    per-example matrix is never built. The noise ``N(0, (sigma c)^2 I)`` is
    divided by ``max(|B|, 1)``: an empty batch contributes no gradient but
    still releases a noise draw. ``noise_seed`` is the noise ``Generator``;
    it is read only when ``sigma > 0``, and is then required. The noise is
    ``sigma c`` times a ``standard_normal`` draw, plus 0.0, which is
    ``normal(0, sigma c)`` bit for bit. With ``sigma = 0`` and infinite
    ``clip_norm`` the update degenerates to plain minibatch SGD; ``sigma``
    must be >= 0 and finite.

    The gradient and then the new parameters are computed in ``out`` and the
    noise in ``noise_out``, when they are given: float64 vectors of length P
    that overlap neither each other nor ``params``; otherwise each is a new
    array. The step's own arguments are checked first. The gradient's are
    checked by :func:`models.check_grad_args`: with a ``noise_worker``
    before the draw is submitted, and otherwise by :func:`models.batch_grad`,
    after which the noise is drawn inline. Either way a rejected call draws
    and writes nothing.

    With a ``noise_worker`` (an executor of one thread, as :func:`train`
    opens for wide private runs) the noise is drawn on the worker while this
    thread computes the gradient; the draw reads only ``noise_seed`` and
    writes only ``noise_out``, and its bits are those of the inline draw.
    When the gradient is done, a draw the worker has not started is
    cancelled and made inline instead, so a worker that the scheduler wakes
    late costs no wait; a draw in flight is waited for, also when the
    gradient raises. So nothing writes ``noise_out`` after the call returns
    or re-raises.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be >= 0 and finite, got {sigma!r}")
    if sigma > 0.0 and not math.isfinite(clip_norm):
        raise ValueError("noise requires a finite clip_norm")
    if sigma > 0.0 and not isinstance(noise_seed, np.random.Generator):
        raise ValueError("noise requires a noise_seed generator")
    if sigma > 0.0 and noise_out is not None and (
            (out is not None and np.may_share_memory(noise_out, out))
            or np.may_share_memory(noise_out, params.values)):
        raise ValueError("noise_out must not overlap out or the parameters")
    draw = pending = None
    if sigma > 0.0:
        draw = functools.partial(_draw_noise, noise_seed, len(params), sigma * clip_norm,
                                 noise_out)
        if noise_worker is not None:
            # The worker may write noise_out before batch_grad checks anything.
            x = models.check_grad_args(params, spec, x, loss, sat_targets=sat_targets,
                                       clip_norm=clip_norm, out=out)
            pending = noise_worker.submit(draw, len(x))
    try:
        grad = models.batch_grad(
            params, spec, x, y, loss,
            entropy_beta=entropy_beta, sat_targets=sat_targets, dropout_seed=dropout_seed,
            clip_norm=clip_norm, out=out,
        )
    except BaseException:
        if pending is not None and not pending.cancel():
            pending.exception()  # waits for the draw in flight; the gradient's error is raised
        raise
    if pending is not None and pending.cancel():
        pending = None  # the worker had not started it: draw here rather than wait for it
    if draw is not None:
        grad += draw(len(x)) if pending is None else pending.result()
    return _descend(params, grad, learning_rate)


def _draw_noise(noise_seed: np.random.Generator, size: int, scale: float,
                out: np.ndarray | None, batch: int) -> np.ndarray:
    """``normal(0, scale, size) / max(batch, 1)`` in ``out``; only numpy calls, so
    it may run on a worker thread."""
    noise = noise_seed.standard_normal(size, out=out)
    noise *= scale
    noise += 0.0  # normal() adds its mean, which turns -0.0 into 0.0
    noise /= max(batch, 1)
    return noise


def sgd_step(
    params: ParamVector,
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    loss: LossSpec,
    *,
    learning_rate: float,
    entropy_beta: float = 0.0,
    sat_targets: np.ndarray | None = None,
    dropout_seed: DropoutSeed = None,
    out: np.ndarray | None = None,
) -> ParamVector:
    """Plain minibatch step on the mean loss; empty batches change nothing.

    The new parameters are computed in ``out`` when it is given, as in
    :func:`dpsgd_step`.
    """
    grad = models.batch_grad(
        params, spec, x, y, loss,
        entropy_beta=entropy_beta, sat_targets=sat_targets, dropout_seed=dropout_seed,
        out=out,
    )
    return _descend(params, grad, learning_rate)


def _descend(params: ParamVector, grad: np.ndarray, learning_rate: float) -> ParamVector:
    """``params - learning_rate * grad``, computed in ``grad``'s own buffer."""
    grad *= learning_rate
    return params.replace(np.subtract(params.values, grad, out=grad))


def _resolve_sigma(privacy: PrivacyConfig) -> float:
    if math.isinf(privacy.epsilon):
        return 0.0
    if privacy.noise_multiplier == "auto":
        return accountant.calibrate_sigma(
            privacy.epsilon, privacy.delta, privacy.sampling_rate, privacy.steps
        )
    return float(privacy.noise_multiplier)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def train(
    data: LabeledDataset,
    spec: ModelSpec,
    train_cfg: TrainConfig,
    privacy: PrivacyConfig,
    eval_set: LabeledDataset | None = None,
) -> TrainResult:
    """Run the configured number of steps and log checkpointed predictions.

    Checkpoints land on every multiple of ``checkpoint_interval`` plus the
    final step. Self-adaptive targets start as one-hot rows and track the
    renormalized class probabilities of sampled points once the burn-in
    epochs (of ``steps_per_epoch(q)`` steps each) have passed. Raises before
    the first step if ``eval_set`` is not an (N, input_dim) batch. Raises if a
    finite epsilon target would be exceeded by the realized account, and if
    the run diverged: its final parameters or final probabilities are not
    all finite (checked once, after the last step).

    Batches, dropout masks and noise come from one :class:`rng.RunStreams`
    of the run seed: step ``t`` draws as :func:`poisson_sample` at ``(seed,
    t)`` and as :func:`dpsgd_step` with ``noise_seed=generator(derive_seed(seed,
    STREAM_NOISE, t))`` and ``dropout_seed`` mapping layer ``l`` to
    ``generator(derive_seed(seed, STREAM_DROPOUT, t), STREAM_DROPOUT, l)``.

    Memory: a run allocates its parameter-sized vectors once, two for the
    parameters and, when it adds noise, one for the noise. Step ``t``
    computes its gradient and then the new parameters in the spare vector,
    and the old parameters become the next step's spare. The returned
    parameters are the last step's vector; nothing writes to it afterwards.
    Checkpoint predictions, final probabilities and selection outputs come
    from the blocked deterministic pass of :func:`models.forward`. The
    checkpoint times are known before the first step, so the (checkpoints,
    N_eval) prediction matrix is allocated once and each checkpoint fills
    its row.

    Threads: a private run of at least ``OVERLAP_MIN_PARAMS`` parameters, in
    a process allowed on two or more CPUs, opens one worker thread that
    draws each step's noise into the noise vector while the gradient
    computes, unless the gradient is done before the worker has started
    (see :func:`dpsgd_step`). The thread lives only while the steps
    run and is joined when they end, raise or not, so none outlives
    ``train`` and a later fork (``harness.run`` with ``jobs > 1``) copies no
    live thread. Every other run, and every run on one CPU, stays on the
    calling thread. The trained bits are the same either way.
    """
    if eval_set is None:
        eval_set = data
    models.check_batch(spec, eval_set.features)
    if privacy.steps != train_cfg.steps:
        raise ValueError(
            f"privacy horizon {privacy.steps} != optimizer steps {train_cfg.steps}"
        )
    non_private = math.isinf(privacy.epsilon)
    sigma = _resolve_sigma(privacy)
    clip = math.inf if non_private else privacy.clip_norm
    loss = train_cfg.loss
    seed = train_cfg.seed
    q = privacy.sampling_rate

    params = models.init_params(spec, seed)
    spare = np.empty(len(params))
    noise = np.empty(len(params)) if sigma > 0 else None
    streams = RunStreams(seed)
    sat_targets = None
    if loss.kind == "sat":
        sat_targets = np.zeros((len(data), spec.num_classes))
        sat_targets[np.arange(len(data)), data.labels] = 1.0
    per_epoch = steps_per_epoch(q)

    # Checkpoint k < last is step (k + 1) * interval; each fills its row in place.
    interval = train_cfg.checkpoint_interval
    times = np.append(np.arange(interval, train_cfg.steps, interval), train_cfg.steps)
    preds = np.empty((len(times), len(eval_set)), dtype=np.int64)
    overlap = sigma > 0 and len(params) >= OVERLAP_MIN_PARAMS and _usable_cpus() > 1
    noise_thread = (concurrent.futures.ThreadPoolExecutor(max_workers=1) if overlap
                    else contextlib.nullcontext())
    with noise_thread as worker:
        for t in range(1, train_cfg.steps + 1):
            idx = np.flatnonzero(streams.batch(t).random(len(data)) < q)
            xb, yb = data.features[idx], data.labels[idx]
            batch_targets = None
            if sat_targets is not None and len(idx) > 0:
                probs = models.predict_probs(params, spec, xb)
                sat_targets[idx] = losses.sat_update_targets(
                    sat_targets[idx],
                    losses.renormalized_class_probs(probs, spec.num_classes),
                    loss.momentum,
                    epoch=(t - 1) // per_epoch,
                    burn_in_epochs=loss.burn_in_epochs,
                )
                batch_targets = sat_targets[idx]
            stepped = dpsgd_step(
                params, spec, xb, yb, loss,
                clip_norm=clip,
                sigma=sigma,
                learning_rate=train_cfg.learning_rate,
                noise_seed=streams.noise(t) if sigma > 0 else None,
                entropy_beta=train_cfg.entropy_beta,
                sat_targets=batch_targets,
                dropout_seed=functools.partial(streams.dropout, t),
                out=spare,
                noise_out=noise,
                noise_worker=worker,
            )
            params, spare = stepped, params.values
            if t % interval == 0 and t != train_cfg.steps:
                preds[t // interval - 1] = models.predict(params, spec, eval_set.features)

    # The last checkpoint is the final model (step 0 when untrained); its
    # predictions come from the same pass as its probabilities.
    out = models.forward(params, spec, eval_set.features)
    final_probs = models.head_probs(out)
    final_selection = out.g_raw if spec.selectivenet_heads else None
    if not (np.isfinite(params.values).all() and np.isfinite(final_probs).all()):
        raise ValueError("training diverged: the final parameters or probabilities are "
                         "not all finite; lower learning_rate")
    preds[-1] = np.argmax(final_probs[:, : spec.num_classes], axis=-1)
    log = CheckpointLog(
        checkpoint_times=times,
        predictions=preds,
        final_probs=final_probs,
        eval_set_id=eval_set_id(eval_set),
        final_selection=final_selection,
    )

    if non_private:
        report = accountant.PrivacyReport(
            math.inf, 0.0, 0.0, q, train_cfg.steps, None
        )
    else:
        report = accountant.account(sigma, q, train_cfg.steps, privacy.delta)
        if report.epsilon > privacy.epsilon:
            raise ValueError(
                f"realized epsilon {report.epsilon:.6g} exceeds target "
                f"{privacy.epsilon:.6g}; increase noise_multiplier or use 'auto'"
            )
    return TrainResult(params=params, log=log, report=report)


def save_checkpoint_log(log: CheckpointLog, directory: str | Path) -> None:
    """``log.json`` plus headerless tables, each file moved into place whole.

    ``predictions.csv`` has a row per checkpoint, ``final_probs.csv`` and (for
    selective nets) ``final_selection.csv`` a row per evaluation point. Floats
    keep 17 significant digits, so rescoring a reload is bit for bit exact.
    """
    directory = Path(directory)
    header = {
        "format": CHECKPOINT_LOG_FORMAT,
        "version": CHECKPOINT_LOG_VERSION,
        "checkpoint_times": [int(t) for t in log.checkpoint_times],
        "eval_set_id": log.eval_set_id,
        "eval_size": int(log.final_probs.shape[0]),
        "num_outputs": int(log.final_probs.shape[1]),
        "has_selection": log.final_selection is not None,
    }
    write_atomic(directory / "log.json", json.dumps(header, indent=2))
    write_table(directory / "predictions.csv", None, log.predictions.T)
    write_table(directory / "final_probs.csv", None, log.final_probs.T)
    if log.final_selection is not None:
        write_table(directory / "final_selection.csv", None, [log.final_selection])


def load_checkpoint_log(directory: str | Path) -> CheckpointLog:
    directory = Path(directory)
    header = json.loads((directory / "log.json").read_text())
    if header.get("format") != CHECKPOINT_LOG_FORMAT:
        raise ValueError(f"{directory} does not hold a checkpoint log")
    if header.get("version") != CHECKPOINT_LOG_VERSION:
        raise ValueError(f"unsupported log version {header.get('version')}")
    preds = np.array(read_table(directory / "predictions.csv", None), dtype=np.int64)
    probs = np.array(read_table(directory / "final_probs.csv", None), dtype=np.float64)
    selection = None
    if header["has_selection"]:
        table = read_table(directory / "final_selection.csv", None)
        selection = np.array(table, dtype=np.float64).ravel()
    return CheckpointLog(
        checkpoint_times=np.array(header["checkpoint_times"], dtype=np.int64),
        predictions=preds,
        final_probs=probs,
        eval_set_id=header["eval_set_id"],
        final_selection=selection,
    )
