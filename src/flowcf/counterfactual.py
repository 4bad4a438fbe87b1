"""Gradient-based counterfactual search over frozen models.

The objective per instance is distance to the original point plus a
lambda-weighted sum of two hinge penalties: a classification-margin hinge
(zero once the target class wins by epsilon) and a log-density hinge (zero
once the flow density reaches the per-class training median). Batches are
optimized jointly but the rows never couple, so batch and single-instance
runs produce the same counterfactuals.

Each search step evaluates the objective and its input gradient in closed
form with numpy, from the models' ``proba_and_input_vjp`` and
``log_prob_and_input_grad``; the models are only read. The tape-based loss
functions below (``validity_loss_binary`` and friends) build the same
objective on the autodiff graph, which the tests use as the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .base import check_array
from .flows import MaskedAutoregressiveFlow
from .models import _one_hot

__all__ = [
    "CfConfig",
    "DensityThreshold",
    "CfResult",
    "compute_delta",
    "validity_loss_binary",
    "validity_loss_multiclass",
    "plausibility_loss",
    "distance",
    "generate",
    "wachter_generate",
]


@dataclass
class CfConfig:
    lam: float = 100.0
    epsilon: float = 1e-3
    distance_kind: str = "l2"
    learning_rate: float = 5e-3
    max_iters: int = 5000
    snapshot_every: int = 150
    convergence_tol: float = 1e-7
    # cap on each row's gradient norm; the flow's log-density gradient can
    # reach ~1e6 in far tails, which would poison Adam's second-moment
    # memory and stall progress for thousands of iterations
    max_grad_norm: float = 100.0
    seed: int = 0
    validity_loss: str = "hinge"  # or "cross_entropy"
    c_reg: float = 1.0  # distance weight of the Wachter-style baseline
    record_trajectory: bool = False

    def __post_init__(self):
        if self.lam <= 0 or self.epsilon <= 0 or self.max_iters < 1:
            raise ValueError("require lam > 0, epsilon > 0, max_iters >= 1")
        if self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        if self.distance_kind not in ("l1", "l2"):
            raise ValueError("distance_kind must be 'l1' or 'l2'")
        if self.validity_loss not in ("hinge", "cross_entropy"):
            raise ValueError("validity_loss must be 'hinge' or 'cross_entropy'")


@dataclass
class DensityThreshold:
    """Per-class log-density thresholds taken from the training split."""

    log_delta: np.ndarray

    def for_labels(self, y) -> np.ndarray:
        return self.log_delta[np.asarray(y, dtype=np.int64)]


@dataclass
class CfResult:
    x_cf: np.ndarray
    target: int
    covered: bool
    iterations_used: int
    distance_loss: float
    validity_loss: float
    plausibility_loss: float
    log_density_at_cf: float
    wall_time_secs: float
    trajectory: list[tuple[int, np.ndarray]] | None = None


def compute_delta(flow: MaskedAutoregressiveFlow, X, y) -> DensityThreshold:
    """Per-class median of training log-densities under the flow."""
    X = check_array(X)
    y = np.asarray(y, dtype=np.int64)
    log_delta = np.empty(flow.n_classes_)
    for c in range(flow.n_classes_):
        mask = y == c
        if not mask.any():
            raise ValueError(f"class {c} has no training samples")
        log_delta[c] = np.median(flow.score_samples(X[mask], y[mask]))
    return DensityThreshold(log_delta=log_delta)


def _target_probs(probs: Tensor, targets: np.ndarray, n_classes: int):
    onehot = _one_hot(targets, n_classes)
    return ad.tsum(probs * Tensor(onehot), axis=1), onehot


def validity_loss_binary(probs: Tensor, targets, epsilon: float) -> Tensor:
    """max(0.5 + eps - p(target), 0) per row."""
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    p_target, _ = _target_probs(probs, targets, 2)
    return ad.relu(Tensor(0.5 + epsilon) - p_target)


def validity_loss_multiclass(probs: Tensor, targets, epsilon: float) -> Tensor:
    """max(best rival probability + eps - p(target), 0) per row."""
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    n_classes = probs.shape[1]
    p_target, onehot = _target_probs(probs, targets, n_classes)
    rival = ad.row_max(probs * Tensor(1.0 - onehot))
    return ad.relu(rival + Tensor(epsilon) - p_target)


def plausibility_loss(log_prob: Tensor, log_delta) -> Tensor:
    """max(log_delta - log p(x|y), 0) per row, in log space."""
    return ad.relu(Tensor(np.asarray(log_delta, dtype=np.float64)) - log_prob)


def distance(x0: Tensor, x: Tensor, kind: str = "l2") -> Tensor:
    """Per-row L1 or (smoothed) L2 distance."""
    if x0.shape != x.shape:
        raise ad.DimensionError(f"distance: shapes {x0.shape} and {x.shape} differ")
    delta = x - x0
    if kind == "l1":
        return ad.tsum(ad.tabs(delta), axis=1)
    if kind == "l2":
        return ad.sqrt(ad.tsum(ad.square(delta), axis=1) + Tensor(1e-12))
    raise ValueError(f"unknown distance kind {kind!r}")


# closed-form pieces of the search objective --------------------------------


def _distance_and_grad(x0: np.ndarray, x: np.ndarray, kind: str):
    """Per-row distance (as ``distance``) and its gradient with respect to x."""
    delta = x - x0
    if kind == "l1":
        return np.abs(delta).sum(axis=1), np.sign(delta)
    dist = np.sqrt((delta**2).sum(axis=1) + 1e-12)
    return dist, delta * (1.0 / dist)[:, None]


def _validity_and_grad(probs: np.ndarray, targets: np.ndarray, kind: str,
                       epsilon: float):
    """Per-row validity loss and its gradient with respect to ``probs``.

    ``kind`` is "cross_entropy" (-log p(target)) or "hinge": the binary
    hinge for two classes, else the hinge against the best rival class.
    """
    rows = np.arange(targets.size)
    p_target = probs[rows, targets]
    grad = np.zeros_like(probs)
    if kind == "cross_entropy":
        grad[rows, targets] = -1.0 / p_target
        return -np.log(p_target), grad
    if probs.shape[1] == 2:
        margin = 0.5 + epsilon - p_target
        rival = None
    else:
        # ties resolve toward the lower index, as in ad.row_max
        rival = (probs * (1.0 - _one_hot(targets, probs.shape[1]))).argmax(axis=1)
        margin = probs[rows, rival] + epsilon - p_target
    active = (margin > 0.0).astype(np.float64)
    grad[rows, targets] = -active
    if rival is not None:
        grad[rows, rival] += active
    # np.maximum keeps a NaN margin, so the row fails the finiteness check
    return np.maximum(margin, 0.0), grad


class _BatchOptimizer:
    """Shared descent loop; subclasses define the per-row objective pieces."""

    def __init__(self, x0: np.ndarray, targets: np.ndarray, cfg: CfConfig):
        self.x0 = x0
        self.targets = targets
        self.cfg = cfg
        n, d = x0.shape
        self.x = x0.copy()
        self.m = np.zeros((n, d))
        self.v = np.zeros((n, d))
        self.active = np.ones(n, dtype=bool)
        self.covered = np.ones(n, dtype=bool)
        self.iterations = np.zeros(n, dtype=np.int64)
        self.stop_time = np.zeros(n)
        self.prev_obj = np.full(n, np.inf)
        self.dist_loss = np.zeros(n)
        self.val_loss = np.zeros(n)
        self.plaus_loss = np.zeros(n)
        self.log_density = np.full(n, np.nan)
        self.trajectories: list[list] | None = None
        if cfg.record_trajectory:
            self.trajectories = [[(0, x0[i].copy())] for i in range(n)]
        # optional fallback iterates for rows that never settle (see
        # remember_feasible); parallel arrays keyed by row index
        self.fallback_x = np.full((n, d), np.nan)
        self.fallback_stats = np.full((n, 4), np.nan)  # dist, val, plaus, logp
        self.has_fallback = np.zeros(n, dtype=bool)

    # subclass hooks -----------------------------------------------------
    def value_and_grad(self, idx: np.ndarray):
        """Objective of rows ``idx`` at ``self.x[idx]`` and its gradient.

        Returns (objective rows, gradient rows, (dist, validity, plaus,
        logp) rows). A row whose numbers overflow comes back non-finite.
        """
        raise NotImplementedError

    def converged(self, idx, val_rows, plaus_rows, obj_change):
        raise NotImplementedError

    def remember_feasible(self, idx, dist_rows, val_rows, plaus_rows, logp_rows):
        """Optionally record the current iterate as a usable fallback."""

    # loop ---------------------------------------------------------------
    def run(self) -> list[CfResult]:
        cfg = self.cfg
        start = time.perf_counter()
        t = 0
        for it in range(1, cfg.max_iters + 1):
            if not self.active.any():
                break
            idx = np.flatnonzero(self.active)
            with np.errstate(all="ignore"):
                obj_data, grad, rows = self.value_and_grad(idx)

            row_finite = np.all(np.isfinite(grad), axis=1) & np.isfinite(obj_data)
            if not row_finite.all():
                self._fail(idx[~row_finite], it, start)
                idx = idx[row_finite]
                if idx.size == 0:
                    continue
                obj_data, grad = obj_data[row_finite], grad[row_finite]
                rows = tuple(r[row_finite] for r in rows)
            dist_rows, val_rows, plaus_rows, logp_rows = rows

            self.dist_loss[idx] = dist_rows
            self.val_loss[idx] = val_rows
            self.plaus_loss[idx] = plaus_rows
            self.log_density[idx] = logp_rows
            self.remember_feasible(idx, dist_rows, val_rows, plaus_rows, logp_rows)

            obj_change = np.abs(self.prev_obj[idx] - obj_data)
            done = self.converged(idx, val_rows, plaus_rows, obj_change)
            self.prev_obj[idx] = obj_data
            if done.any():
                stopped = idx[done]
                self.iterations[stopped] = it - 1
                self.stop_time[stopped] = time.perf_counter() - start
                self.active[stopped] = False
                idx = idx[~done]
                grad = grad[~done]
                if idx.size == 0:
                    continue

            # clip per row so one extreme gradient cannot dominate the
            # second-moment average for thousands of subsequent steps
            norms = np.sqrt((grad**2).sum(axis=1, keepdims=True))
            scale = np.minimum(1.0, cfg.max_grad_norm / np.maximum(norms, 1e-300))
            grad = grad * scale

            # bias-corrected Adam on the still-active rows
            t = it
            bc1 = 1.0 - 0.9**t
            bc2 = 1.0 - 0.999**t
            self.m[idx] = 0.9 * self.m[idx] + 0.1 * grad
            self.v[idx] = 0.999 * self.v[idx] + 0.001 * grad**2
            self.x[idx] -= cfg.learning_rate * (self.m[idx] / bc1) / (
                np.sqrt(self.v[idx] / bc2) + 1e-8
            )

            if self.trajectories is not None and it % cfg.snapshot_every == 0:
                for i in idx:
                    self.trajectories[i].append((it, self.x[i].copy()))

        # rows that exhausted the budget; fall back to the last feasible
        # iterate when one was recorded along the way
        leftover = np.flatnonzero(self.active)
        self.iterations[leftover] = cfg.max_iters
        self.stop_time[leftover] = time.perf_counter() - start
        self.active[leftover] = False
        for i in leftover[self.has_fallback[leftover]]:
            self.x[i] = self.fallback_x[i]
            self.dist_loss[i], self.val_loss[i], self.plaus_loss[i], \
                self.log_density[i] = self.fallback_stats[i]
        return self._collect()

    def _fail(self, rows: np.ndarray, it: int, start: float) -> None:
        self.covered[rows] = False
        self.active[rows] = False
        self.iterations[rows] = it
        self.stop_time[rows] = time.perf_counter() - start
        self.x[rows] = np.nan

    def _collect(self) -> list[CfResult]:
        results = []
        for i in range(self.x0.shape[0]):
            traj = None
            if self.trajectories is not None:
                traj = self.trajectories[i]
                last_it = self.iterations[i]
                if traj[-1][0] != last_it or not np.array_equal(traj[-1][1], self.x[i]):
                    traj.append((int(last_it), self.x[i].copy()))
            results.append(
                CfResult(
                    x_cf=self.x[i].copy(),
                    target=int(self.targets[i]),
                    covered=bool(self.covered[i]),
                    iterations_used=int(self.iterations[i]),
                    distance_loss=float(self.dist_loss[i]),
                    validity_loss=float(self.val_loss[i]),
                    plausibility_loss=float(self.plaus_loss[i]),
                    log_density_at_cf=float(self.log_density[i]),
                    wall_time_secs=float(self.stop_time[i]),
                    trajectory=traj,
                )
            )
        return results


class _PlausibleOptimizer(_BatchOptimizer):
    def __init__(self, x0, targets, clf, flow, delta, cfg):
        super().__init__(x0, targets, cfg)
        self.clf = clf
        self.flow = flow
        self.log_delta = delta.for_labels(targets)

    def value_and_grad(self, idx):
        cfg = self.cfg
        x, targets = self.x[idx], self.targets[idx]
        dist, g_dist = _distance_and_grad(self.x0[idx], x, cfg.distance_kind)
        probs, clf_vjp = self.clf.proba_and_input_vjp(x)
        val, g_probs = _validity_and_grad(
            probs, targets, cfg.validity_loss, cfg.epsilon
        )
        logp, g_logp = self.flow.log_prob_and_input_grad(x, targets)
        gap = self.log_delta[idx] - logp
        plaus = np.maximum(gap, 0.0)
        obj = dist + cfg.lam * (val + plaus)
        grad = g_dist + cfg.lam * (clf_vjp(g_probs) - (gap > 0.0)[:, None] * g_logp)
        return obj, grad, (dist, val, plaus, logp)

    def converged(self, idx, val_rows, plaus_rows, obj_change):
        if self.cfg.validity_loss == "cross_entropy":
            # CE never reaches zero; fall back to the satisfied-constraint check
            margin_ok = self._margin_satisfied(idx)
        else:
            margin_ok = val_rows <= 0.0
        return margin_ok & (plaus_rows <= 0.0) & (obj_change < self.cfg.convergence_tol)

    def remember_feasible(self, idx, dist_rows, val_rows, plaus_rows, logp_rows):
        # Rows that never settle oscillate across the constraint boundary,
        # so the final iterate can sit a hair outside it; keep the newest
        # iterate that meets both constraints as the answer of record.
        # (Distance only shrinks once feasible, so newest is also closest.)
        if self.cfg.validity_loss == "cross_entropy":
            ok = self._margin_satisfied(idx) & (plaus_rows <= 0.0)
        else:
            ok = (val_rows <= 0.0) & (plaus_rows <= 0.0)
        rows = idx[ok]
        self.fallback_x[rows] = self.x[rows]
        self.fallback_stats[rows] = np.column_stack(
            [dist_rows[ok], val_rows[ok], plaus_rows[ok], logp_rows[ok]]
        )
        self.has_fallback[rows] = True

    def _margin_satisfied(self, idx):
        probs = self.clf.predict_proba(self.x[idx])
        targets = self.targets[idx]
        p_t = probs[np.arange(idx.size), targets]
        if self.clf.n_classes_ == 2:
            return p_t >= 0.5 + self.cfg.epsilon
        rival = np.where(
            _one_hot(targets, self.clf.n_classes_) > 0, -np.inf, probs
        ).max(axis=1)
        return p_t >= rival + self.cfg.epsilon


class _WachterOptimizer(_BatchOptimizer):
    def __init__(self, x0, targets, clf, cfg):
        super().__init__(x0, targets, cfg)
        self.clf = clf

    def value_and_grad(self, idx):
        cfg = self.cfg
        x = self.x[idx]
        dist, g_dist = _distance_and_grad(self.x0[idx], x, cfg.distance_kind)
        probs, clf_vjp = self.clf.proba_and_input_vjp(x)
        ce, g_probs = _validity_and_grad(
            probs, self.targets[idx], "cross_entropy", cfg.epsilon
        )
        obj = ce + cfg.c_reg * dist
        grad = clf_vjp(g_probs) + cfg.c_reg * g_dist
        return obj, grad, (dist, ce, np.zeros(idx.size), np.full(idx.size, np.nan))

    def converged(self, idx, val_rows, plaus_rows, obj_change):
        return obj_change < self.cfg.convergence_tol


def _check_targets(targets, n_rows: int, n_classes: int) -> np.ndarray:
    """Targets as int64; ValueError unless one class index per row."""
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != n_rows:
        raise ValueError(
            f"targets must be 1-d with one entry per row of x0_batch "
            f"({n_rows}); got shape {t.shape}"
        )
    if t.size and not np.issubdtype(t.dtype, np.integer):
        raise ValueError(f"targets must be integer class indices, got {t.dtype}")
    if t.size and (t.min() < 0 or t.max() >= n_classes):
        raise ValueError(f"targets must lie in [0, {n_classes})")
    return t.astype(np.int64)


def generate(x0_batch, targets, clf, flow, delta, cfg: CfConfig) -> list[CfResult]:
    """Counterfactuals under the distance + lambda * (validity + plausibility) objective."""
    x0 = check_array(x0_batch)
    targets = _check_targets(targets, x0.shape[0], clf.n_classes_)
    return _PlausibleOptimizer(x0, targets, clf, flow, delta, cfg).run()


def wachter_generate(x0_batch, targets, clf, cfg: CfConfig) -> list[CfResult]:
    """Baseline: cross-entropy to the target plus c_reg-weighted distance."""
    x0 = check_array(x0_batch)
    targets = _check_targets(targets, x0.shape[0], clf.n_classes_)
    return _WachterOptimizer(x0, targets, clf, cfg).run()
