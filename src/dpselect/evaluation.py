"""Risk-coverage curves, their summary scores, and the ideal-score oracle.

A curve lives on the full coverage grid ``c_i = i / N`` for ``i = 1..N``:
points are accepted in ascending score order (ties broken by point index)
and the selective accuracy at ``c_i`` is the fraction correct among the
first ``i``. Coverage zero is undefined and excluded.

Two summaries condense a curve. The area under it (grid mean of the
accuracies) rewards high accuracy everywhere but is inflated by easy
problems. The accuracy-normalized score instead integrates the gap to the
best curve any scoring could achieve at the model's full-coverage accuracy
``a``:

    best(a, c) = 1          if c <= a
                 a / c      otherwise

i.e. a perfect score ranks every correct point ahead of every error. The
normalized score is ``sum_i (best(a, c_i) - acc(c_i)) / N``; zero is ideal,
larger is worse, and it is zero-centered across problem difficulties, which
makes it comparable between privacy levels. By construction

    auc(curve) + normalized_score(curve) == grid mean of the bound,

an identity the tests pin down to 1e-12. The bound dominates every
realizable curve because the number of correct points among the first ``i``
can never exceed ``a * N``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import generator


@dataclass(frozen=True)
class RiskCoverageCurve:
    """Selective accuracy on the grid ``c_i = i / N``; ``a_full`` is the last."""

    coverages: np.ndarray
    accuracies: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.coverages, dtype=np.float64)
        acc = np.asarray(self.accuracies, dtype=np.float64)
        n = cov.shape[0]
        if n == 0 or cov.shape != acc.shape:
            raise ValueError("coverages and accuracies must be matching 1-D arrays")
        if not np.array_equal(cov, np.arange(1, n + 1) / n):
            raise ValueError("coverages must be the full grid i/N, i = 1..N")
        if not (acc.min() >= 0.0 and acc.max() <= 1.0):
            raise ValueError("accuracies must lie in [0, 1]")
        object.__setattr__(self, "coverages", cov)
        object.__setattr__(self, "accuracies", acc)

    @property
    def a_full(self) -> float:
        return float(self.accuracies[-1])

    def __len__(self) -> int:
        return self.coverages.shape[0]


def acceptance_order(scores: np.ndarray) -> np.ndarray:
    """Point indices in the order they are accepted: ascending score, ties by index."""
    return np.lexsort((np.arange(len(scores)), scores))


def build_curve(scores: np.ndarray, correctness: np.ndarray) -> RiskCoverageCurve:
    """Accept points in :func:`acceptance_order` and accumulate accuracy.

    Ties are broken by ascending point index, so the curve is a deterministic
    function of its inputs.
    """
    s = np.asarray(scores, dtype=np.float64)
    correct = np.asarray(correctness, dtype=bool)
    if s.shape != correct.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and correctness must be matching nonempty vectors")
    n = s.shape[0]
    running = np.cumsum(correct[acceptance_order(s)])
    grid = np.arange(1, n + 1)
    return RiskCoverageCurve(grid / n, running / grid)


def auc(curve: RiskCoverageCurve) -> float:
    """Area under the curve: the grid mean of the selective accuracies."""
    return float(np.mean(curve.accuracies))


def bound(a_full: float, coverage) -> np.ndarray | float:
    """Best achievable selective accuracy at the given coverage(s)."""
    if not 0.0 <= a_full <= 1.0:  # also rejects nan
        raise ValueError(f"a_full must be in [0, 1], got {a_full!r}")
    c = np.asarray(coverage, dtype=np.float64)
    if not np.all((c > 0) & (c <= 1)):
        raise ValueError("coverage must be in (0, 1]")
    out = np.where(c <= a_full, 1.0, a_full / np.maximum(c, 1e-300))
    return float(out) if np.isscalar(coverage) else out


def bound_values(curve: RiskCoverageCurve) -> np.ndarray:
    return bound(curve.a_full, curve.coverages)


def normalized_score(curve: RiskCoverageCurve) -> float:
    """Grid mean of the gap to the best achievable curve; 0 is ideal."""
    return float(np.mean(bound_values(curve) - curve.accuracies))


def accuracy_at_coverage(curve: RiskCoverageCurve, coverage: float) -> float:
    """Selective accuracy at the largest grid point not exceeding ``coverage``."""
    if not 0.0 < coverage <= 1.0:
        raise ValueError("coverage must be in (0, 1]")
    n = len(curve)
    i = int(np.floor(coverage * n + 1e-9))
    return float(curve.accuracies[max(i, 1) - 1])


def coverage_at_accuracy(curve: RiskCoverageCurve, a_ref: float) -> float:
    """Largest grid coverage whose selective accuracy reaches ``a_ref``.

    Returns 0 when no grid point qualifies; any reference at or below the
    full-coverage accuracy yields 1 since the last grid point qualifies.
    """
    qualifying = np.flatnonzero(curve.accuracies >= a_ref)
    if qualifying.size == 0:
        return 0.0
    return float(curve.coverages[qualifying[-1]])


def ideal_score_oracle(
    a_full: float, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic scores that separate correct from incorrect perfectly.

    ``floor(a_full * n)`` points are marked correct with scores uniform on
    [0, 0.5); the rest are incorrect with scores uniform on [0.5, 1). The
    resulting curve traces the achievability bound to within one grid step,
    which is how the bound's reachability is demonstrated.
    """
    if not 0.0 < a_full <= 1.0:
        raise ValueError("a_full must be in (0, 1]")
    if n < 1:
        raise ValueError("n must be >= 1")
    n_correct = int(np.floor(a_full * n))
    rng = generator(seed)
    scores = np.concatenate(
        [0.5 * rng.random(n_correct), 0.5 + 0.5 * rng.random(n - n_correct)]
    )
    correctness = np.arange(n) < n_correct
    return scores, correctness


def tag(value: float) -> str:
    """Directory and metrics-key tag of an epsilon, coverage target, accuracy ref or p0."""
    return f"{value:g}"  # "inf" for infinity


def curve_metrics(
    curve: RiskCoverageCurve, accuracy_refs: tuple[float, ...] = ()
) -> dict:
    """Summary dict: full-coverage accuracy, AUC, normalized score, coverages."""
    return {
        "a_full": curve.a_full,
        "auc": auc(curve),
        "normalized_score": normalized_score(curve),
        "coverage_at": {
            tag(ref): coverage_at_accuracy(curve, ref) for ref in accuracy_refs
        },
    }


_CURVE_HEADER = "coverage,accuracy,bound,gap"


def write_curve_csv(curve: RiskCoverageCurve, path: str | Path) -> None:
    """Columns: coverage, accuracy, bound, gap (bound minus accuracy)."""
    b = bound_values(curve)
    write_table(path, _CURVE_HEADER, [curve.coverages, curve.accuracies, b, b - curve.accuracies])


def read_curve_csv(path: str | Path) -> RiskCoverageCurve:
    table = np.array(read_table(path, _CURVE_HEADER), dtype=np.float64)
    return RiskCoverageCurve(table[:, 0], table[:, 1])


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` whole, making its directory if need be.

    Every file dpselect writes comes through here: a temporary file beside ``path``
    is moved into place, or removed on failure, so a crash never truncates a file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_temps(directory: str | Path, recursive: bool = False) -> None:
    """Delete the temp files that killed ``write_atomic`` calls left in ``directory``.

    Call it only on a directory that no live writer shares.
    """
    for tmp in Path(directory).glob(("**/" if recursive else "") + ".*.tmp"):
        tmp.unlink(missing_ok=True)


def write_table(path: str | Path, header: str | None, columns, newline: str = "\n") -> None:
    """Comma-separated rows of ``columns`` (no cell may hold a comma), after ``header``.

    Float columns are written as ``%.17g``, which round-trips float64 exactly,
    and other columns as ``%s``. A ``None`` header writes no header line.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in columns) + newline
    lines = [] if header is None else [header + newline]
    lines += [row % cells for cells in zip(*(c.tolist() for c in columns))]
    write_atomic(path, "".join(lines))


def read_table(path: str | Path, header: str | None) -> list[list[str]]:
    """Each row's cells of a :func:`write_table` file, after its ``header`` line.

    Every row must hold as many cells as the header, or as the first row
    when there is none, and end in a newline; a file cut short fails here,
    not in its reader, even inside its last cell.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if header is not None and lines[:1] != [header]:
        raise ValueError(f"{path} does not start with the header {header!r}")
    rows = [line.split(",") for line in lines]
    width = len(rows[0]) if rows else 0
    for number, row in enumerate(rows, 1):
        if len(row) != width:
            raise ValueError(f"{path} line {number} holds {len(row)} cells, not {width}")
    if text and not text.endswith("\n"):
        raise ValueError(f"{path} line {len(lines)} is cut short: no newline ends it")
    return rows[header is not None:]


def write_json(payload: dict, path: str | Path) -> None:
    """Sorted, indented JSON with a trailing newline, written whole."""
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_metrics_json(metrics: dict, path: str | Path) -> None:
    write_json(metrics, path)
