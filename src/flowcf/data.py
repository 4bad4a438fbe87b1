"""Dataset synthesis, CSV ingestion, scaling, and stratified splitting."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .base import (BaseEstimator, _check_count, _check_number, check_array,
                   check_labels)

__all__ = [
    "Dataset",
    "SplitPlan",
    "MinMaxScaler",
    "make_moons",
    "make_blobs",
    "load_csv",
    "CsvFormatError",
    "downsample_majority",
    "stratified_kfold",
]


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.features = check_array(self.features, name="features")
        self.labels = check_labels(self.labels, self.n_classes, self.n_samples)
        if not self.feature_names:
            self.feature_names = [f"x{i}" for i in range(self.features.shape[1])]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        return Dataset(
            self.features[idx], self.labels[idx], self.n_classes, self.feature_names
        )

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass
class SplitPlan:
    folds: list[np.ndarray]

    def train_test(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        test = self.folds[fold]
        train = np.concatenate([f for i, f in enumerate(self.folds) if i != fold])
        return np.sort(train), np.sort(test)


class MinMaxScaler(BaseEstimator):
    """Per-feature affine map sending the training range onto [0, 1].

    Values outside the training range map outside [0, 1] and are left
    unclamped: the counterfactual optimizer may legitimately probe past
    the box.
    """

    def fit(self, X):
        X = check_array(X)
        if X.shape[0] == 0:
            raise ValueError("cannot fit a scaler on empty data")
        self.min_ = X.min(axis=0)
        self.max_ = X.max(axis=0)
        span = self.max_ - self.min_
        constant = span == 0.0
        if constant.any():
            warnings.warn(
                f"constant features {np.flatnonzero(constant).tolist()} mapped to 0.0",
                stacklevel=2,
            )
        self.scale_ = np.where(constant, 1.0, span)
        return self

    def transform(self, X) -> np.ndarray:
        X = check_array(X, n_features=self.min_.shape[0])
        return (X - self.min_) / self.scale_

    def inverse_transform(self, X) -> np.ndarray:
        X = check_array(X, n_features=self.min_.shape[0])
        return X * self.scale_ + self.min_


def make_moons(n: int = 1024, noise: float = 0.01, seed: int = 0) -> Dataset:
    """Two interleaving half-circles with isotropic Gaussian noise."""
    _check_count("n", n, minimum=2)
    _check_number("noise", noise)
    rng = np.random.default_rng(seed)
    n_upper = n // 2
    n_lower = n - n_upper
    t_upper = np.linspace(0.0, np.pi, n_upper)
    t_lower = np.linspace(0.0, np.pi, n_lower)
    upper = np.column_stack([np.cos(t_upper), np.sin(t_upper)])
    lower = np.column_stack([1.0 - np.cos(t_lower), -np.sin(t_lower) + 0.5])
    X = np.vstack([upper, lower])
    if noise > 0:
        X = X + rng.normal(0.0, noise, size=X.shape)
    y = np.concatenate([np.zeros(n_upper, dtype=np.int64),
                        np.ones(n_lower, dtype=np.int64)])
    perm = rng.permutation(n)
    return Dataset(X[perm], y[perm], n_classes=2)


_DEFAULT_BLOB_CENTERS = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])


def make_blobs(
    n: int = 1500,
    centers: int | np.ndarray = 3,
    std: float = 1.0,
    seed: int = 0,
) -> Dataset:
    """Equal-size isotropic Gaussian clusters around well-separated centers."""
    rng = np.random.default_rng(seed)
    if np.isscalar(centers):
        _check_count("centers", centers, minimum=2)
        k = int(centers)
        if k <= 3:
            # default centers sit at mutual distance >= 6 * std
            locs = _DEFAULT_BLOB_CENTERS[:k] * max(1.0, std)
        else:
            locs = rng.uniform(0.0, 8.0 * k * std, size=(k, 2))
    else:
        locs = np.asarray(centers, dtype=np.float64)
        k = locs.shape[0]
    _check_count("n", n, minimum=k)  # a point per center
    d = locs.shape[1]
    sizes = [n // k + (1 if i < n % k else 0) for i in range(k)]
    X = np.vstack([
        locs[i] + rng.normal(0.0, std, size=(sizes[i], d)) for i in range(k)
    ])
    y = np.concatenate([np.full(sizes[i], i, dtype=np.int64) for i in range(k)])
    perm = rng.permutation(n)
    return Dataset(X[perm], y[perm], n_classes=k)


class CsvFormatError(ValueError):
    """Raised when a CSV file cannot be parsed at all."""


def load_csv(path, label_column: str) -> tuple[Dataset, list[int]]:
    """Load a numeric-feature CSV; returns the dataset and rejected row numbers.

    Labels are re-encoded to 0..C-1 in order of first appearance. Rows with
    missing or non-numeric features are rejected, not repaired.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if label_column not in header:
            raise ValueError(f"label column {label_column!r} not found in header")
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        rows, raw_labels, rejected = [], [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                rejected.append(row_no)
                continue
            try:
                feats = [float(v) for i, v in enumerate(row) if i != label_idx]
            except ValueError:
                rejected.append(row_no)
                continue
            if not all(np.isfinite(feats)):
                rejected.append(row_no)
                continue
            rows.append(feats)
            raw_labels.append(row[label_idx])

    if not rows:
        raise CsvFormatError(f"{path}: no parseable data rows")

    encoding: dict[str, int] = {}
    labels = []
    for raw in raw_labels:
        if raw not in encoding:
            encoding[raw] = len(encoding)
        labels.append(encoding[raw])

    data = Dataset(
        np.asarray(rows, dtype=np.float64),
        np.asarray(labels, dtype=np.int64),
        n_classes=len(encoding),
        feature_names=feature_names,
    )
    return data, rejected


def downsample_majority(data: Dataset, seed: int = 0) -> Dataset:
    """Downsample every class (without replacement) to the minority count."""
    if data.n_classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    counts = data.class_counts()
    target = counts[counts > 0].min()
    keep = []
    for c in range(data.n_classes):
        members = np.flatnonzero(data.labels == c)
        if members.size:
            keep.append(rng.choice(members, size=target, replace=False))
    idx = np.concatenate(keep)
    rng.shuffle(idx)
    return data.subset(idx)


def stratified_kfold(data: Dataset, k: int = 5, seed: int = 0) -> SplitPlan:
    """Partition indices into k folds with near-proportional class counts."""
    counts = data.class_counts()
    small = np.flatnonzero((counts > 0) & (counts < k))
    if small.size:
        raise ValueError(f"classes {small.tolist()} have fewer than {k} members")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for c in range(data.n_classes):
        members = rng.permutation(np.flatnonzero(data.labels == c))
        for i, chunk in enumerate(np.array_split(members, k)):
            folds[(i + c) % k].extend(chunk.tolist())
    fold_arrays = [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]
    return SplitPlan(folds=fold_arrays)
