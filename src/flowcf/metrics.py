"""Evaluation suite: coverage, validity, plausibility, distances, outlier scores.

LOF and Isolation Forest are fitted on the training split (all classes) and
score counterfactuals in novelty mode, so the numbers measure realism with
respect to the data rather than the target class alone. L1/L2 costs use the
same numpy distance helper as the counterfactual search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .base import BaseEstimator, check_array
from .counterfactual import CfResult, DensityThreshold, _distance_and_grad

__all__ = [
    "EvaluationReport",
    "LocalOutlierFactor",
    "IsolationForest",
    "coverage",
    "validity",
    "prob_plausibility",
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

    _COLUMNS = (
        "coverage", "validity", "prob_plausibility", "l1_mean", "l2_mean",
        "log_density_mean", "lof_mean", "isoforest_mean", "wall_time_secs",
        "n_instances",
    )

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)


class LocalOutlierFactor(BaseEstimator):
    """Novelty-mode LOF against a fixed reference set."""

    def __init__(self, n_neighbors: int = 20):
        self.n_neighbors = n_neighbors

    def fit(self, X):
        X = check_array(X)
        k = self.n_neighbors
        if not 1 <= k < X.shape[0]:
            raise ValueError("need 1 <= n_neighbors < len(reference)")
        self.reference_ = X
        dists = _pairwise(X, X)
        np.fill_diagonal(dists, np.inf)
        order = np.argsort(dists, axis=1, kind="stable")
        self._ref_knn = order[:, :k]
        knn_dists = np.take_along_axis(dists, self._ref_knn, axis=1)
        self._ref_kdist = knn_dists[:, -1]
        reach = np.maximum(self._ref_kdist[self._ref_knn], knn_dists)
        with np.errstate(divide="ignore"):
            self._ref_lrd = 1.0 / reach.mean(axis=1)
        self.had_degenerate_ = False
        return self

    def score_samples(self, X) -> np.ndarray:
        X = check_array(X)
        k = self.n_neighbors
        dists = _pairwise(X, self.reference_)
        order = np.argsort(dists, axis=1, kind="stable")[:, :k]
        knn_dists = np.take_along_axis(dists, order, axis=1)
        reach = np.maximum(self._ref_kdist[order], knn_dists)
        mean_reach = reach.mean(axis=1)
        neighbor_lrd = self._ref_lrd[order]
        scores = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            if mean_reach[i] == 0.0 or not np.all(np.isfinite(neighbor_lrd[i])):
                scores[i] = LOF_SENTINEL
                self.had_degenerate_ = True
            else:
                scores[i] = neighbor_lrd[i].mean() * mean_reach[i]
        return scores


def _pairwise(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    sq = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    return np.sqrt(np.maximum(sq, 0.0))


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
        self.n_trees = n_trees
        self.subsample = subsample
        self.seed = seed

    def fit(self, X):
        X = check_array(X)
        if X.shape[0] < 2:
            raise ValueError("need at least 2 reference points")
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
        X = check_array(X)
        c = _avg_path_correction(self._psi)
        scores = np.empty(X.shape[0])
        for i, x in enumerate(X):
            mean_path = np.mean([self._path_length(x, t) for t in self.trees_])
            scores[i] = 0.5 - 2.0 ** (-mean_path / c)
        return scores


# aggregate metrics ----------------------------------------------------------


def _covered(results: list[CfResult]) -> list[CfResult]:
    return [r for r in results if r.covered and np.all(np.isfinite(r.x_cf))]


def coverage(results: list[CfResult]) -> float:
    if not results:
        raise ValueError("coverage of an empty request set is undefined")
    return len(_covered(results)) / len(results)


def validity(results: list[CfResult], clf) -> float:
    covered = _covered(results)
    if not covered:
        return 0.0
    X = np.stack([r.x_cf for r in covered])
    preds = clf.predict(X)
    targets = np.array([r.target for r in covered])
    return float((preds == targets).mean())


def prob_plausibility(results: list[CfResult], delta: DensityThreshold) -> float:
    covered = _covered(results)
    if not covered:
        return 0.0
    log_dens = np.array([r.log_density_at_cf for r in covered])
    thresholds = delta.for_labels([r.target for r in covered])
    return float((log_dens >= thresholds).mean())


def evaluate(
    results: list[CfResult],
    clf,
    flow,
    delta: DensityThreshold,
    x0_batch,
    reference_train,
    wall_time_secs: float | None = None,
) -> EvaluationReport:
    """Assemble the full metric row for one generated batch."""
    x0_batch = check_array(x0_batch)
    covered_idx = [
        i for i, r in enumerate(results) if r.covered and np.all(np.isfinite(r.x_cf))
    ]
    cov = coverage(results)
    if not covered_idx:
        return EvaluationReport(
            coverage=cov, validity=0.0, prob_plausibility=0.0,
            l1_mean=None, l2_mean=None, log_density_mean=None,
            lof_mean=None, isoforest_mean=None,
            wall_time_secs=wall_time_secs or 0.0, n_instances=len(results),
        )

    covered = [results[i] for i in covered_idx]
    X_cf = np.stack([r.x_cf for r in covered])
    targets = np.array([r.target for r in covered])
    # refresh log densities so baseline methods without a density term get them
    log_dens = flow.score_samples(X_cf, targets)
    for r, ld in zip(covered, log_dens):
        r.log_density_at_cf = float(ld)

    x0 = x0_batch[covered_idx]
    l1, _ = _distance_and_grad(x0, X_cf, "l1")
    l2, _ = _distance_and_grad(x0, X_cf, "l2")

    # built through the module globals, which tracing tools may rebind
    lof_model = LocalOutlierFactor().fit(reference_train)
    isoforest_model = IsolationForest().fit(reference_train)

    if wall_time_secs is None:
        wall_time_secs = max(r.wall_time_secs for r in results)

    return EvaluationReport(
        coverage=cov,
        validity=validity(results, clf),
        prob_plausibility=prob_plausibility(results, delta),
        l1_mean=float(l1.mean()),
        l2_mean=float(l2.mean()),
        log_density_mean=float(log_dens.mean()),
        lof_mean=float(lof_model.score_samples(X_cf).mean()),
        isoforest_mean=float(isoforest_model.score_samples(X_cf).mean()),
        wall_time_secs=float(wall_time_secs),
        n_instances=len(results),
    )
