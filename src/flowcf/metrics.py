"""Evaluation suite: coverage, validity, plausibility, distances, outlier scores.

``evaluate`` selects the covered rows of a batch once (the search succeeded
and the point is finite) and computes every other metric from the arrays
they give: the counterfactual points, their targets and their flow
log-densities, which it returns with the report and does not write into
the results. ``fit_detectors`` fits LOF and Isolation Forest on the
training split (all classes); they score counterfactuals in novelty mode,
so the numbers measure realism with respect to the data rather than the
target class alone. L1/L2 costs use the same numpy distance helper as the
counterfactual search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .base import BaseEstimator, _check_count, _sq_distance_blocks, check_array
from .counterfactual import CfResult, DensityThreshold, _distance_and_grad

__all__ = [
    "EvaluationReport",
    "LocalOutlierFactor",
    "IsolationForest",
    "fit_detectors",
    "evaluate",
]

LOF_SENTINEL = 1e12


@dataclass
class EvaluationReport:
    coverage: float
    validity: float
    prob_plausibility: float
    l1_mean: float | None
    l2_mean: float | None
    log_density_mean: float | None
    lof_mean: float | None
    isoforest_mean: float | None
    wall_time_secs: float
    n_instances: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)


class LocalOutlierFactor(BaseEstimator):
    """Novelty-mode LOF against a fixed reference set."""

    def __init__(self, n_neighbors: int = 20):
        _check_count("n_neighbors", n_neighbors)
        self.n_neighbors = n_neighbors

    def fit(self, X):
        X = check_array(X)
        if self.n_neighbors >= X.shape[0]:
            raise ValueError("need n_neighbors < len(reference)")
        self.reference_ = X
        knn, knn_dists = self._neighbours(X, exclude_self=True)
        self._ref_kdist = knn_dists[:, -1]
        with np.errstate(divide="ignore"):
            self._ref_lrd = 1.0 / self._mean_reach(knn, knn_dists)
        return self

    def _neighbours(self, X: np.ndarray, exclude_self: bool = False):
        """Each row's k nearest reference points and its distances to them.

        With ``exclude_self``, X is the reference set and no row is its own
        neighbour. Each block's sort is copied down to its first k columns,
        so no block outlives its turn of the loop.
        """
        n, k = X.shape[0], self.n_neighbors
        knn = np.empty((n, k), dtype=np.intp)
        knn_dists = np.empty((n, k))
        for rows, sq in _sq_distance_blocks(X, self.reference_):
            dists = np.sqrt(np.maximum(sq, 0.0))
            if exclude_self:
                i = np.arange(dists.shape[0])
                dists[i, rows.start + i] = np.inf
            knn[rows] = np.argsort(dists, axis=1, kind="stable")[:, :k]
            knn_dists[rows] = np.take_along_axis(dists, knn[rows], axis=1)
        return knn, knn_dists

    def _mean_reach(self, knn: np.ndarray, knn_dists: np.ndarray) -> np.ndarray:
        return np.maximum(self._ref_kdist[knn], knn_dists).mean(axis=1)

    def score_samples(self, X) -> np.ndarray:
        """LOF per row; ``LOF_SENTINEL`` where duplicates make it undefined."""
        X = check_array(X, n_features=self.reference_.shape[1])
        knn, knn_dists = self._neighbours(X)
        mean_reach = self._mean_reach(knn, knn_dists)
        neighbor_lrd = self._ref_lrd[knn]
        degenerate = (mean_reach == 0.0) | ~np.isfinite(neighbor_lrd).all(axis=1)
        with np.errstate(invalid="ignore"):  # inf * 0 on degenerate rows
            scores = neighbor_lrd.mean(axis=1) * mean_reach
        scores[degenerate] = LOF_SENTINEL
        return scores


_EULER_GAMMA = 0.5772156649015329


def _avg_path_correction(n: int) -> float:
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    return 2.0 * (np.log(n - 1.0) + _EULER_GAMMA) - 2.0 * (n - 1.0) / n


class _IsoNode:
    __slots__ = ("feature", "threshold", "left", "right", "size")

    def __init__(self, feature=None, threshold=None, left=None, right=None, size=0):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.size = size


class IsolationForest(BaseEstimator):
    """Random partition trees; scores reported on a (-0.5, 0.5) scale.

    Positive values mark normal points and values toward -0.5 mark
    anomalies (0.5 minus the classic 2^(-E[h]/c) anomaly score).
    """

    def __init__(self, n_trees: int = 100, subsample: int = 256, seed: int = 0):
        _check_count("n_trees", n_trees)
        _check_count("subsample", subsample, minimum=2)
        self.n_trees = n_trees
        self.subsample = subsample
        self.seed = seed

    def fit(self, X):
        X = check_array(X)
        if X.shape[0] < 2:
            raise ValueError("need at least 2 reference points")
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.seed)
        psi = min(self.subsample, X.shape[0])
        self._psi = psi
        height_limit = int(np.ceil(np.log2(psi)))
        self.trees_ = []
        for _ in range(self.n_trees):
            sample = X[rng.choice(X.shape[0], size=psi, replace=False)]
            self.trees_.append(self._grow(sample, 0, height_limit, rng))
        return self

    def _grow(self, X, depth, limit, rng) -> _IsoNode:
        n = X.shape[0]
        if depth >= limit or n <= 1:
            return _IsoNode(size=n)
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        usable = np.flatnonzero(hi > lo)
        if usable.size == 0:
            return _IsoNode(size=n)
        feature = int(rng.choice(usable))
        threshold = float(rng.uniform(lo[feature], hi[feature]))
        mask = X[:, feature] < threshold
        return _IsoNode(
            feature=feature,
            threshold=threshold,
            left=self._grow(X[mask], depth + 1, limit, rng),
            right=self._grow(X[~mask], depth + 1, limit, rng),
            size=n,
        )

    def _path_length(self, x: np.ndarray, node: _IsoNode) -> float:
        depth = 0.0
        while node.feature is not None:
            node = node.left if x[node.feature] < node.threshold else node.right
            depth += 1.0
        return depth + _avg_path_correction(node.size)

    def score_samples(self, X) -> np.ndarray:
        X = check_array(X, n_features=self.n_features_)
        c = _avg_path_correction(self._psi)
        scores = np.empty(X.shape[0])
        for i, x in enumerate(X):
            mean_path = np.mean([self._path_length(x, t) for t in self.trees_])
            scores[i] = 0.5 - 2.0 ** (-mean_path / c)
        return scores


# aggregate metrics ----------------------------------------------------------


def fit_detectors(reference_train) -> tuple[LocalOutlierFactor, IsolationForest]:
    """The ``(lof, forest)`` that ``evaluate`` scores counterfactuals with."""
    # built through the module globals, which tracing tools may rebind
    return (LocalOutlierFactor().fit(reference_train),
            IsolationForest().fit(reference_train))


def evaluate(
    results: list[CfResult],
    clf,
    flow,
    delta: DensityThreshold,
    x0_batch,
    detectors: tuple[LocalOutlierFactor, IsolationForest],
    wall_time_secs: float,
) -> tuple[EvaluationReport, np.ndarray]:
    """The full metric row for one generated batch, and each row's log-density.

    A row is covered when its search succeeded and its point is finite;
    every metric but coverage is taken over the covered rows. The returned
    densities are the flow's at each covered point and NaN elsewhere, so
    methods without a density term (Wachter) get one too; plausibility
    compares them with ``delta``. ``detectors`` comes from ``fit_detectors``.
    """
    if not results:
        raise ValueError("cannot evaluate an empty batch")
    X_cf = np.stack([r.x_cf for r in results])
    x0_batch = check_array(x0_batch, n_features=X_cf.shape[1])
    if x0_batch.shape[0] != len(results):
        raise ValueError(f"x0_batch must have one row per result ({len(results)}); "
                         f"got {x0_batch.shape[0]}")
    covered = np.array([r.covered for r in results], dtype=bool)
    covered &= np.isfinite(X_cf).all(axis=1)
    log_density = np.full(len(results), np.nan)
    if not covered.any():
        return EvaluationReport(
            coverage=0.0, validity=0.0, prob_plausibility=0.0,
            l1_mean=None, l2_mean=None, log_density_mean=None,
            lof_mean=None, isoforest_mean=None,
            wall_time_secs=float(wall_time_secs), n_instances=len(results),
        ), log_density

    X_cf = X_cf[covered]
    targets = np.array([r.target for r in results])[covered]
    log_dens = flow.score_samples(X_cf, targets)
    log_density[covered] = log_dens

    x0 = x0_batch[covered]
    l1, _ = _distance_and_grad(x0, X_cf, "l1")
    l2, _ = _distance_and_grad(x0, X_cf, "l2")
    lof_model, isoforest_model = detectors

    return EvaluationReport(
        coverage=float(covered.mean()),
        validity=float((clf.predict(X_cf) == targets).mean()),
        prob_plausibility=float((log_dens >= delta.for_labels(targets)).mean()),
        l1_mean=float(l1.mean()),
        l2_mean=float(l2.mean()),
        log_density_mean=float(log_dens.mean()),
        lof_mean=float(lof_model.score_samples(X_cf).mean()),
        isoforest_mean=float(isoforest_model.score_samples(X_cf).mean()),
        wall_time_secs=float(wall_time_secs),
        n_instances=len(results),
    ), log_density
