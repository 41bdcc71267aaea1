"""Dataset construction: synthetic Gaussian mixtures, class subsampling, CSV loading.

Feature matrices are float64 throughout, labels are dense class indices in
``[0, num_classes)``. Generators are pure functions of their arguments plus a
seed (PCG64, see :mod:`dpselect.rng`), so a (spec, seed) pair always yields
the same dataset, bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Sequence

import numpy as np

from .rng import generator


class CsvFormatError(ValueError):
    """A CSV cell or layout that cannot be interpreted as tabular data."""


class EmptyDatasetError(ValueError):
    """A source that yields zero data rows."""


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if feats.shape[0] == 0:
            raise EmptyDatasetError("dataset has no rows")
        if labels.shape != (feats.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match {feats.shape[0]} rows"
            )
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels outside [0, num_classes)")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices], self.num_classes)


@dataclass(frozen=True)
class MixtureComponent:
    """One Gaussian component: ``count`` draws from N(mean, covariance).

    ``covariance`` is either a nonnegative scalar ``s`` (isotropic, ``s * I``)
    or a full symmetric PSD matrix of shape (d, d).
    """

    mean: tuple[float, ...]
    covariance: float | Sequence[Sequence[float]]
    count: int
    label: int


@dataclass(frozen=True)
class MixtureSpec:
    """Components drawn in order; ``factors`` holds each one's checked covariance factor."""

    components: tuple[MixtureComponent, ...]
    factors: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        dims = {len(c.mean) for c in self.components}
        if len(dims) != 1:
            raise ValueError(f"component means disagree on dimension: {dims}")
        if not self.input_dim:
            raise ValueError("component means must hold at least one number, got []")
        for c in self.components:
            if c.count < 1:
                raise ValueError("component count must be >= 1")
            if c.label < 0:
                raise ValueError("component label must be >= 0")
            if not all(isinstance(m, Real) and not isinstance(m, bool) and math.isfinite(m)
                       for m in c.mean):
                raise ValueError(f"component mean must hold finite numbers, got {list(c.mean)!r}")
        factors = tuple(_component_factor(c.covariance, self.input_dim) for c in self.components)
        object.__setattr__(self, "factors", factors)

    @property
    def input_dim(self) -> int:
        return len(self.components[0].mean)

    @property
    def num_classes(self) -> int:
        return max(c.label for c in self.components) + 1


def _component_factor(cov, dim: int) -> np.ndarray:
    """Matrix F with F @ F.T equal to the component covariance."""
    if np.isscalar(cov):
        if isinstance(cov, bool) or not isinstance(cov, Real) or not 0 <= cov < math.inf:
            raise ValueError(f"scalar covariance must be >= 0 and finite, got {cov!r}")
        return np.sqrt(float(cov)) * np.eye(dim)
    mat = np.asarray(cov, dtype=np.float64)
    if mat.shape != (dim, dim):
        raise ValueError(f"covariance shape {mat.shape}, expected {(dim, dim)}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("covariance matrix must be finite")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValueError("covariance matrix must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals.min() < -1e-10:
        raise ValueError("covariance matrix must be positive semi-definite")
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def gen_mixture(spec: MixtureSpec, seed: int) -> LabeledDataset:
    """Sample a labeled Gaussian mixture, components concatenated in spec order."""
    rng = generator(seed)
    blocks, labels = [], []
    dim = spec.input_dim
    for comp, factor in zip(spec.components, spec.factors):
        z = rng.standard_normal((comp.count, dim))
        blocks.append(np.asarray(comp.mean, dtype=np.float64) + z @ factor.T)
        labels.append(np.full(comp.count, comp.label, dtype=np.int64))
    return LabeledDataset(
        np.concatenate(blocks), np.concatenate(labels), spec.num_classes
    )


def outlier_spec(n_major: int, outlier_mean: Sequence[float]) -> MixtureSpec:
    """Majority cloud N(0, I) labeled 1, then one outlier from N(outlier_mean, I) labeled 0."""
    if n_major < 1:
        raise ValueError("n_major must be >= 1: the outlier needs a majority")
    mean = tuple(float(v) for v in outlier_mean)
    return MixtureSpec((MixtureComponent((0.0,) * len(mean), 1.0, n_major, 1),
                        MixtureComponent(mean, 1.0, 1, 0)))


def gen_gaussian_outlier(n_major: int, outlier_mean: Sequence[float], seed: int) -> LabeledDataset:
    """A draw of :func:`outlier_spec`; the outlier sits in the last row."""
    return gen_mixture(outlier_spec(n_major, outlier_mean), seed)


def check_subsample(num_classes: int, class_id: int, p0: float) -> None:
    """Reject a ``class_id`` outside ``[0, num_classes)`` or a ``p0`` outside [0, 1]."""
    if not 0 <= class_id < num_classes:
        raise ValueError(f"class_id {class_id} outside [0, {num_classes})")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be in [0, 1], got {p0!r}")


def subsample_class(
    data: LabeledDataset, class_id: int, p0: float, seed: int
) -> LabeledDataset:
    """Keep each point of ``class_id`` independently with probability ``p0``.

    Points of every other class are kept unconditionally; relative order is
    preserved. ``p0 = 1`` reproduces the input exactly.
    """
    check_subsample(data.num_classes, class_id, p0)
    u = generator(seed).random(len(data))
    keep = (data.labels != class_id) | (u < p0)
    return data.subset(np.flatnonzero(keep))


def check_train_fraction(train_fraction: float) -> None:
    """Reject a train fraction outside (0, 1)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction!r}")


def split(
    data: LabeledDataset, train_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle into disjoint (train, test) with |train| = floor(f * N)."""
    check_train_fraction(train_fraction)
    n = len(data)
    n_train = int(np.floor(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves an empty side for N={n}"
        )
    perm = generator(seed).permutation(n)
    return data.subset(perm[:n_train]), data.subset(perm[n_train:])


def _try_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv(path: str | Path, label_column: int | str = -1) -> LabeledDataset:
    """Read a comma-separated table into a dataset.

    An optional header row is detected by failing to parse as numbers. Labels
    (``label_column`` by position, or by name when a header is present) may be
    arbitrary strings or numbers; they are re-indexed densely to
    ``0..num_classes-1`` in sorted order (numeric sort when every label parses
    as a number).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
    if not rows:
        raise EmptyDatasetError(f"{path} contains no data rows")

    header: list[str] | None = None
    if any(_try_float(cell) is None for cell in rows[0]):
        header = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise EmptyDatasetError(f"{path} contains a header but no data rows")

    width = len(rows[0])
    if isinstance(label_column, str):
        if header is None:
            raise CsvFormatError(
                f"label column {label_column!r} requires a header row"
            )
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise CsvFormatError(
                f"label column {label_column!r} not in header {header}"
            ) from None
    elif -width <= label_column < width:
        label_idx = label_column % width
    else:
        raise CsvFormatError(
            f"label column {label_column} out of range for {width} columns"
        )

    feats, raw_labels = [], []
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise CsvFormatError(
                f"{path} row {r}: expected {width} cells, got {len(row)}"
            )
        vals = []
        for c, cell in enumerate(row):
            if c == label_idx:
                continue
            v = _try_float(cell)
            if v is None:
                raise CsvFormatError(
                    f"{path} row {r}: non-numeric feature cell {cell!r} in column {c + 1}"
                )
            vals.append(v)
        feats.append(vals)
        raw_labels.append(row[label_idx].strip())

    distinct = sorted(set(raw_labels))
    if all(_try_float(v) is not None for v in distinct):
        distinct.sort(key=float)
    index = {v: i for i, v in enumerate(distinct)}
    labels = np.array([index[v] for v in raw_labels], dtype=np.int64)
    return LabeledDataset(np.array(feats, dtype=np.float64), labels, num_classes=len(distinct))

