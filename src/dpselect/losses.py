"""Training objectives and their gradients at the model heads.

Three objectives are supported:

* plain cross-entropy, optionally with a confidence penalty that subtracts
  ``beta`` times the predictive entropy from the loss;
* self-adaptive cross-entropy over ``C + 1`` outputs, where the extra output
  absorbs probability mass for points whose moving-average target confidence
  is low;
* a coverage-constrained selective objective with prediction head ``f``,
  selection head ``g`` and auxiliary head ``h``, where the batch loss couples
  examples through the empirical coverage ``mean(g)``.

Every gradient helper returns, per example, the derivative of that example's
loss with respect to the head pre-activations. For the selective objective,
whose batch loss is not a mean of per-example terms, the helpers return the
chain-rule decomposition ``B * dL/d(head_i)`` instead; the mean of those
contributions is exactly the batch-loss gradient, which is the property the
optimizer relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_CLAMP = 1e-12
# Floor for the empirical coverage wherever it appears in a denominator.
COVERAGE_FLOOR = 1e-6


@dataclass(frozen=True)
class LossSpec:
    """Which objective to train, with its knobs.

    ``kind`` is one of ``cross_entropy``, ``sat``, ``selectivenet``. Fields
    irrelevant to the chosen kind are ignored.
    """

    kind: str = "cross_entropy"
    # sat
    momentum: float = 0.9
    burn_in_epochs: int = 0
    # selectivenet
    c_target: float = 1.0
    lam: float = 32.0
    alpha: float = 0.5

    def __post_init__(self):
        if self.kind not in ("cross_entropy", "sat", "selectivenet"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "sat":
            if not 0.0 <= self.momentum < 1.0:
                raise ValueError("sat momentum must be in [0, 1)")
            if self.burn_in_epochs < 0:
                raise ValueError("burn_in_epochs must be >= 0")
        if self.kind == "selectivenet":
            if not 0.0 < self.c_target <= 1.0:
                raise ValueError("c_target must be in (0, 1]")
            if not 0 <= self.lam < math.inf or not 0.0 <= self.alpha <= 1.0:
                raise ValueError("need lam >= 0 and alpha in [0, 1], lam finite; got "
                                 f"lam={self.lam!r}, alpha={self.alpha!r}")


def cross_entropy_loss() -> LossSpec:
    return LossSpec(kind="cross_entropy")


def sat_loss(momentum: float = 0.9, burn_in_epochs: int = 0) -> LossSpec:
    return LossSpec(kind="sat", momentum=momentum, burn_in_epochs=burn_in_epochs)


def selectivenet_loss(
    c_target: float, lam: float = 32.0, alpha: float = 0.5
) -> LossSpec:
    return LossSpec(kind="selectivenet", c_target=c_target, lam=lam, alpha=alpha)


def _log(p: np.ndarray) -> np.ndarray:
    out = np.maximum(p, LOG_CLAMP)
    return np.log(out, out=out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + e^-x)`` for ``x >= 0`` and ``e^x / (1 + e^x)`` below, from one ``exp``."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, np.divide(e, d, out=e))


def entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats along the last axis."""
    p = np.asarray(probs, dtype=np.float64)
    return -(p * _log(p)).sum(axis=-1)


def _rows(probs, y):
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim < 2:
        p = np.atleast_2d(p)
    yv = np.asarray(y, dtype=np.int64)
    if yv.ndim < 1:
        yv = np.atleast_1d(yv)
    if yv.shape[0] != p.shape[0]:
        raise ValueError("probs and labels disagree on batch size")
    return p, yv


def loss_ce_entropy(probs: np.ndarray, y, beta: float = 0.0) -> float:
    """Mean cross-entropy minus ``beta`` times mean predictive entropy."""
    p, yv = _rows(probs, y)
    ce = -_log(p[np.arange(len(yv)), yv])
    return float(np.mean(ce) - beta * np.mean(entropy(p)))


def loss_sat(probs: np.ndarray, y, targets: np.ndarray) -> float:
    """Self-adaptive loss over ``C + 1`` outputs.

    ``targets`` holds one moving-average distribution per example over the
    ``C`` real classes; only the true-class entry ``t_y`` enters the loss,
    splitting mass between the true class and the abstention output::

        -mean( t_y * log p_y + (1 - t_y) * log p_abstain )
    """
    p, yv = _rows(probs, y)
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    idx = np.arange(len(yv))
    t_true = t[idx, yv]
    return float(-np.mean(t_true * _log(p[idx, yv]) + (1.0 - t_true) * _log(p[:, -1])))


def renormalized_class_probs(probs, num_classes: int) -> np.ndarray:
    """First ``num_classes`` entries of each row, renormalized to the simplex."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))[:, :num_classes]
    return p / np.maximum(p.sum(axis=1, keepdims=True), LOG_CLAMP)


def sat_update_targets(
    targets: np.ndarray,
    probs: np.ndarray,
    momentum: float,
    epoch: int,
    burn_in_epochs: int,
) -> np.ndarray:
    """Exponential moving average of predictions, frozen during burn-in.

    Before ``burn_in_epochs`` the targets pass through unchanged (they start
    as one-hot rows); afterwards ``t <- momentum * t + (1 - momentum) * p``.
    Rows stay on the simplex whenever ``probs`` rows are on it.
    """
    t = np.asarray(targets, dtype=np.float64)
    if epoch < burn_in_epochs:
        return t.copy()
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"probs shape {p.shape} != targets shape {t.shape}")
    return momentum * t + (1.0 - momentum) * p


def loss_selectivenet(
    f_probs: np.ndarray,
    g_sel: np.ndarray,
    h_probs: np.ndarray,
    y,
    c_target: float,
    lam: float = 32.0,
    alpha: float = 0.5,
) -> float:
    """Coverage-constrained selective objective.

    The selective term weights each example's cross-entropy by its selection
    value and normalizes by the empirical coverage ``mean(g_sel)`` (floored at
    ``COVERAGE_FLOOR``); a quadratic penalty charges coverage shortfall below
    ``c_target``. The auxiliary head pays plain cross-entropy at full
    coverage. Terms mix as ``alpha * selective + (1 - alpha) * auxiliary``.
    """
    fp, yv = _rows(f_probs, y)
    hp, _ = _rows(h_probs, y)
    g = np.atleast_1d(np.asarray(g_sel, dtype=np.float64))
    idx = np.arange(len(yv))
    ce_f = -_log(fp[idx, yv])
    ce_h = -_log(hp[idx, yv])
    cov = float(np.mean(g))
    sel = float(np.mean(g * ce_f)) / max(cov, COVERAGE_FLOOR)
    penalty = lam * max(0.0, c_target - cov) ** 2
    return float(alpha * (sel + penalty) + (1.0 - alpha) * np.mean(ce_h))


# ---------------------------------------------------------------------------
# Gradients with respect to head pre-activations (softmax logits, raw
# selection output). Conventions documented in the module docstring.
# ---------------------------------------------------------------------------


def _entropy_penalty_grad(p: np.ndarray, beta: float) -> np.ndarray | float:
    """d(-beta * H(p))/d logits for softmax probabilities ``p``.

    ``beta * p * (log p + H(p))``, taking ``log p`` once; ``0.0`` when
    ``beta`` is 0, for the caller to add like an array of zeros.
    """
    if beta == 0.0:
        return 0.0
    log_p = _log(p)
    p_log_p = p * log_p
    log_p -= p_log_p.sum(axis=-1)[:, None]
    log_p *= np.multiply(beta, p, out=p_log_p)
    return log_p


def ce_entropy_head_grads(probs: np.ndarray, y, beta: float = 0.0) -> np.ndarray:
    p, yv = _rows(probs, y)
    grad = p.copy()
    grad[np.arange(len(yv)), yv] -= 1.0
    return grad + _entropy_penalty_grad(p, beta)


def sat_head_grads(
    probs: np.ndarray, y, targets: np.ndarray, beta: float = 0.0
) -> np.ndarray:
    p, yv = _rows(probs, y)
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    idx = np.arange(len(yv))
    w = np.zeros_like(p)
    w[idx, yv] = t[idx, yv]
    w[:, -1] += 1.0 - t[idx, yv]
    # weights sum to one, so d(-sum w log p)/dz = p - w
    return (p - w) + _entropy_penalty_grad(p, beta)


def selectivenet_head_grads(
    f_probs: np.ndarray,
    g_sel: np.ndarray,
    h_probs: np.ndarray,
    y,
    c_target: float,
    lam: float = 32.0,
    alpha: float = 0.5,
    beta: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-example contributions ``B * dL/d(head)`` for the selective loss.

    Returns ``(S_f, S_raw, S_h)`` where ``S_raw`` differentiates through the
    sigmoid that produced ``g_sel``. The entropy penalty, when enabled, acts
    on the prediction head ``f`` only.
    """
    fp, yv = _rows(f_probs, y)
    hp, _ = _rows(h_probs, y)
    g = np.atleast_1d(np.asarray(g_sel, dtype=np.float64))
    idx = np.arange(len(yv))
    ce_f = -_log(fp[idx, yv])

    cov = float(g.mean())
    cov_f = max(cov, COVERAGE_FLOOR)
    sel_mean = float((g * ce_f).mean())

    onehot_grad_f = fp.copy()
    onehot_grad_f[idx, yv] -= 1.0
    s_f = alpha * (g / cov_f)[:, None] * onehot_grad_f
    s_f += _entropy_penalty_grad(fp, beta)

    # d/dg of the normalized selective term; the denominator only moves when
    # the coverage sits above its floor.
    dsel = ce_f / cov_f
    if cov > COVERAGE_FLOOR:
        dsel = dsel - sel_mean / cov_f**2
    dpen = -2.0 * lam * max(0.0, c_target - cov)
    s_raw = alpha * (dsel + dpen) * g * (1.0 - g)

    onehot_grad_h = hp.copy()
    onehot_grad_h[idx, yv] -= 1.0
    s_h = (1.0 - alpha) * onehot_grad_h
    return s_f, s_raw, s_h


def training_loss_value(
    loss: LossSpec,
    *,
    probs: np.ndarray | None = None,
    y=None,
    entropy_beta: float = 0.0,
    sat_targets: np.ndarray | None = None,
    f_probs: np.ndarray | None = None,
    g_sel: np.ndarray | None = None,
    h_probs: np.ndarray | None = None,
) -> float:
    """Scalar batch loss exactly as the optimizer sees it (penalty included)."""
    if loss.kind == "cross_entropy":
        return loss_ce_entropy(probs, y, entropy_beta)
    if loss.kind == "sat":
        base = loss_sat(probs, y, sat_targets)
        return base - entropy_beta * float(np.mean(entropy(np.atleast_2d(probs))))
    base = loss_selectivenet(
        f_probs, g_sel, h_probs, y, loss.c_target, loss.lam, loss.alpha
    )
    return base - entropy_beta * float(np.mean(entropy(np.atleast_2d(f_probs))))
