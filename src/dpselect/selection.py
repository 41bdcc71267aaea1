"""Abstention scores. Lower score means the point is accepted earlier.

Every mechanism here emits one score per evaluation point under a single
orientation: sorting ascending by score gives the acceptance order, and
thresholding ``score <= tau`` realizes a coverage level. The six mechanisms:

* ``sr``: one minus the softmax maximum (softmax response);
* ``mcdo``: softmax response of the mean softmax over Monte Carlo dropout
  passes;
* ``de``: softmax response of the member-averaged softmax of an ensemble;
* ``sctd``: weighted count of training checkpoints that disagree with the
  final prediction, late disagreement weighing more;
* ``sat``: the abstention output of a ``C + 1``-way model;
* ``sn``: one minus the sigmoid of the selection head.

``sr_of`` applies the softmax response to the class portion of a wider
output (renormalized), which is how abstention-trained classifiers are
scored by default; their native scores stay available behind a flag.
"""

from __future__ import annotations

import csv
import functools
from pathlib import Path

import numpy as np

from . import models
from .losses import renormalized_class_probs, sigmoid
from .models import ModelSpec, ParamVector
from .rng import STREAM_SCORE, RunStreams
from .trainer import CheckpointLog

__all__ = [
    "score_sr",
    "score_mcdo",
    "score_de",
    "score_sctd",
    "score_sat",
    "score_sn",
    "score_sr_of",
    "sctd_disagreement_score",
    "write_scores_csv",
    "read_scores_csv",
]


def score_sr(probs: np.ndarray) -> np.ndarray:
    """Softmax response: ``1 - max_c p_c``."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    return 1.0 - p.max(axis=1)


def score_sr_of(probs: np.ndarray, num_classes: int) -> np.ndarray:
    """Softmax response over the first ``num_classes`` outputs, renormalized.

    For plain ``C``-wide probabilities this is exactly :func:`score_sr`; for
    abstention-trained models it scores the classifier portion only.
    """
    return score_sr(renormalized_class_probs(probs, num_classes))


def score_mcdo(
    params: ParamVector,
    spec: ModelSpec,
    x: np.ndarray,
    passes: int,
    seed: int,
    dropout_rate: float | None = None,
) -> np.ndarray:
    """Monte Carlo dropout: average the softmax over ``passes`` stochastic
    passes, then apply the softmax response. A zero dropout rate degenerates
    to :func:`score_sr` for any number of passes. Pass ``i`` draws its masks
    as ``forward(..., dropout_seed=derive_seed(seed, STREAM_SCORE, i))``
    would, from one :class:`rng.RunStreams` of ``seed``."""
    if passes < 1:
        raise ValueError("passes must be >= 1")
    if dropout_rate is not None:
        spec = ModelSpec(**{**spec.to_dict(), "dropout_rate": dropout_rate})
    streams = RunStreams(seed)
    mean = None
    for i in range(passes):
        masks = functools.partial(streams.dropout, i, parent=STREAM_SCORE)
        out = models.forward(params, spec, x, dropout_seed=masks)
        logits = out.f_logits if isinstance(out, models.SelectiveNetOutputs) else out
        probs = models.softmax(logits)
        mean = probs if mean is None else mean + probs
    return score_sr(mean / passes)


def score_de(member_probs: np.ndarray) -> np.ndarray:
    """Deep ensemble: average member probabilities, then softmax response."""
    p = np.asarray(member_probs, dtype=np.float64)
    if p.ndim != 3:
        raise ValueError("member_probs must have shape (members, points, classes)")
    return score_sr(p.mean(axis=0))


def sctd_disagreement_score(disagreements: np.ndarray, k: float) -> np.ndarray:
    """Weighted disagreement count ``sum_t (t/T)^k * a_t``.

    ``disagreements`` has checkpoints on axis 0 (1-based rank ``t`` of ``T``)
    and points on axis 1. The weight rises toward 1 at the final checkpoint,
    so late flips dominate; adding any disagreeing checkpoint strictly
    increases the score.
    """
    a = np.atleast_2d(np.asarray(disagreements, dtype=np.float64))
    t = np.arange(1, a.shape[0] + 1, dtype=np.float64)
    weights = (t / a.shape[0]) ** k
    return weights @ a


def score_sctd(log: CheckpointLog, k: float = 3.0) -> np.ndarray:
    """Checkpoint-trajectory disagreement against the final prediction row.

    The final checkpoint always agrees with itself and contributes zero; a
    model whose trajectory settled early scores near zero everywhere.
    """
    final = log.predictions[-1]
    return sctd_disagreement_score(log.predictions != final[None, :], k)


def score_sat(probs: np.ndarray) -> np.ndarray:
    """Native abstention mass of a ``C + 1``-way model (last output)."""
    p = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    return p[:, -1]


def score_sn(selection_raw: np.ndarray) -> np.ndarray:
    """One minus the sigmoid of the raw selection head output.

    A zero head output scores 0.5; confidently selected points (large raw
    output) score near zero and are kept first.
    """
    return sigmoid(-np.atleast_1d(np.asarray(selection_raw, dtype=np.float64)))


def write_scores_csv(
    path: str | Path,
    method: str,
    scores: np.ndarray,
    predicted: np.ndarray,
    true_labels: np.ndarray,
) -> None:
    """Rows of (point index, method, score, predicted label, true label)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_index", "method", "score", "predicted_label", "true_label"])
        for i, (s, p, t) in enumerate(zip(scores, predicted, true_labels)):
            writer.writerow([i, method, f"{s:.17g}", int(p), int(t)])


def read_scores_csv(path: str | Path) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`write_scores_csv`; float64 values round-trip exactly."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    method = rows[0][1] if rows else ""
    scores = np.array([float(r[2]) for r in rows])
    predicted = np.array([int(r[3]) for r in rows], dtype=np.int64)
    true_labels = np.array([int(r[4]) for r in rows], dtype=np.int64)
    return method, scores, predicted, true_labels
