"""Class-conditional density baselines: Gaussian mixtures and Gaussian KDE.

The mixture reports the log of the component-wise maximum (weighted
component density), which is how the convex-program literature approximates
mixture densities; the KDE is the usual mean-of-kernels estimate with a
Scott's-rule bandwidth.
"""

from __future__ import annotations

import numpy as np

from .base import (BaseEstimator, _check_count, _check_number, _sq_distance_blocks,
                   check_array, check_labels, check_X_y)

__all__ = ["GaussianMixtureDensity", "KernelDensity", "GmmFitError"]

_COV_JITTER = 1e-6


class GmmFitError(RuntimeError):
    """EM could not maintain a positive-definite covariance."""


def _log_gaussian(X: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    d = mean.shape[0]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as err:
        raise GmmFitError("covariance not positive-definite after jitter") from err
    diff = X - mean
    z = np.linalg.solve(chol, diff.T).T
    log_det = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (d * np.log(2.0 * np.pi) + log_det + (z**2).sum(axis=1))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    hi = a.max(axis=axis, keepdims=True)
    return (hi + np.log(np.exp(a - hi).sum(axis=axis, keepdims=True))).squeeze(axis)


class GaussianMixtureDensity(BaseEstimator):
    """Per-class full-covariance Gaussian mixture fitted by EM."""

    def __init__(self, n_components: int = 1, seed: int = 0,
                 max_iter: int = 200, tol: float = 1e-6):
        _check_count("n_components", n_components)
        _check_count("max_iter", max_iter)
        _check_number("tol", tol)
        self.n_components = n_components
        self.seed = seed
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.n_features_ = X.shape[1]
        self.n_classes_ = int(y.max()) + 1
        rng = np.random.default_rng(self.seed)
        self.weights_, self.means_, self.covs_ = [], [], []
        for c in range(self.n_classes_):
            Xc = X[y == c]
            if Xc.shape[0] <= self.n_components:
                raise ValueError(
                    f"class {c}: need more than {self.n_components} samples"
                )
            w, mu, cov = self._fit_class(Xc, rng)
            self.weights_.append(w)
            self.means_.append(mu)
            self.covs_.append(cov)
        return self

    def _fit_class(self, X, rng):
        n, d = X.shape
        J = self.n_components
        eye = np.eye(d) * _COV_JITTER
        weights = np.full(J, 1.0 / J)
        means = X[rng.choice(n, size=J, replace=False)].copy()
        base_cov = np.cov(X.T).reshape(d, d) + eye
        covs = np.stack([base_cov.copy() for _ in range(J)])

        prev_ll = -np.inf
        for _ in range(self.max_iter):
            log_comp = np.stack(
                [np.log(weights[j]) + _log_gaussian(X, means[j], covs[j])
                 for j in range(J)],
                axis=1,
            )
            log_norm = _logsumexp(log_comp, axis=1)
            ll = log_norm.sum()
            resp = np.exp(log_comp - log_norm[:, None])

            nk = resp.sum(axis=0) + 1e-12
            weights = nk / n
            means = (resp.T @ X) / nk[:, None]
            for j in range(J):
                diff = X - means[j]
                covs[j] = (resp[:, j][:, None] * diff).T @ diff / nk[j] + eye

            if ll - prev_ll < self.tol and np.isfinite(prev_ll):
                break
            prev_ll = ll
        return weights, means, covs

    def score_samples(self, X, y) -> np.ndarray:
        """Log of the max weighted component density for each row's class."""
        X = check_array(X, n_features=self.n_features_)
        y = check_labels(y, self.n_classes_, X.shape[0])
        out = np.empty(X.shape[0])
        for c in np.unique(y):
            mask = y == c
            comp = np.stack(
                [np.log(self.weights_[c][j])
                 + _log_gaussian(X[mask], self.means_[c][j], self.covs_[c][j])
                 for j in range(self.n_components)],
                axis=1,
            )
            out[mask] = comp.max(axis=1)
        return out


class KernelDensity(BaseEstimator):
    """Per-class Gaussian KDE with a scalar Scott's-rule bandwidth."""

    def __init__(self, bandwidth: float | None = None):
        if bandwidth is not None:
            _check_number("bandwidth", bandwidth, positive=True)
        self.bandwidth = bandwidth

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        self.n_features_ = X.shape[1]
        self.n_classes_ = int(y.max()) + 1
        self.points_ = []
        self.bandwidths_ = []
        for c in range(self.n_classes_):
            Xc = X[y == c]
            self.points_.append(Xc)
            if self.bandwidth is not None:
                h = float(self.bandwidth)
            else:
                n, d = Xc.shape
                stds = Xc.std(axis=0, ddof=1)
                stds = np.where(stds > 0, stds, 1e-6)
                h = float(n ** (-1.0 / (d + 4)) * np.exp(np.log(stds).mean()))
            self.bandwidths_.append(h)
        return self

    def score_samples(self, X, y) -> np.ndarray:
        X = check_array(X, n_features=self.n_features_)
        y = check_labels(y, self.n_classes_, X.shape[0])
        out = np.empty(X.shape[0])
        for c in np.unique(y):
            mask = y == c
            pts = self.points_[c]
            h = self.bandwidths_[c]
            d = pts.shape[1]
            scores = np.empty(np.count_nonzero(mask))
            for rows, sq in _sq_distance_blocks(X[mask], pts):
                log_kernels = -0.5 * sq / h**2 - d * np.log(h * np.sqrt(2.0 * np.pi))
                scores[rows] = _logsumexp(log_kernels, axis=1) - np.log(pts.shape[0])
            out[mask] = scores
        return out
