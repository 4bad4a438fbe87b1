"""Gradient-based counterfactual search over frozen models.

The objective per instance is distance to the original point plus a
lambda-weighted sum of two hinge penalties: a classification-margin hinge
(zero once the target class wins by epsilon) and a log-density hinge (zero
once the flow density reaches the per-class training median). Batches are
optimized jointly but the rows never couple, so batch and single-instance
runs produce the same counterfactuals.

One descent loop (``_search``) serves both the plausible objective and the
Wachter baseline; ``optim.adam_step`` steps its active rows as one block. It
reports where each row stopped and measures nothing at the answer;
``metrics.evaluate`` does that. The loop keeps no history: a caller
that wants a row's path wraps the objective, which sees every iterate (see
``_search``). Each objective is evaluated with its input gradient in closed
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
from .base import _check_count, _check_number, check_array, check_labels, check_X_y
from .flows import MaskedAutoregressiveFlow
from .models import _one_hot
from .optim import AdamState, adam_step

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

# cap on each row's gradient norm; the flow's log-density gradient can reach
# ~1e6 in far tails, which would poison Adam's second-moment memory and stall
# progress for thousands of iterations
MAX_GRAD_NORM = 100.0


@dataclass
class CfConfig:
    lam: float = 100.0
    epsilon: float = 1e-3
    distance_kind: str = "l2"
    learning_rate: float = 5e-3
    max_iters: int = 5000
    convergence_tol: float = 1e-7
    validity_loss: str = "hinge"  # or "cross_entropy"
    c_reg: float = 1.0  # distance weight of the Wachter-style baseline

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        for name in ("lam", "epsilon", "learning_rate"):
            _check_number(name, getattr(self, name), positive=True)
        for name in ("convergence_tol", "c_reg"):
            _check_number(name, getattr(self, name))
        if self.distance_kind not in ("l1", "l2"):
            raise ValueError("distance_kind must be 'l1' or 'l2'")
        if self.validity_loss not in ("hinge", "cross_entropy"):
            raise ValueError("validity_loss must be 'hinge' or 'cross_entropy'")


@dataclass
class DensityThreshold:
    """Per-class log-density thresholds taken from the training split."""

    log_delta: np.ndarray

    def for_labels(self, y) -> np.ndarray:
        return self.log_delta[check_labels(y, self.log_delta.shape[0])]


@dataclass(frozen=True)
class CfResult:
    x_cf: np.ndarray
    target: int
    covered: bool
    iterations_used: int
    wall_time_secs: float


def compute_delta(flow: MaskedAutoregressiveFlow, X, y) -> DensityThreshold:
    """Per-class median of training log-densities under the flow."""
    X, y = check_X_y(X, y)
    y = check_labels(y, flow.n_classes_)
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
    """Per-row validity loss, its gradient with respect to ``probs``, and margin.

    The margin is <= 0 once the target class wins by ``epsilon``: against
    0.5 for two classes, else against the best rival class. ``kind`` is
    "cross_entropy" (-log p(target)) or "hinge" (the margin clipped at 0).
    """
    rows = np.arange(targets.size)
    p_target = probs[rows, targets]
    if probs.shape[1] == 2:
        margin = 0.5 + epsilon - p_target
        rival = None
    else:
        # the target column is masked to -inf, so a rival with probability 0
        # still beats it; ties resolve toward the lower index, as in ad.row_max
        rivals = probs.copy()
        rivals[rows, targets] = -np.inf
        rival = rivals.argmax(axis=1)
        margin = probs[rows, rival] + epsilon - p_target
    grad = np.zeros_like(probs)
    if kind == "cross_entropy":
        grad[rows, targets] = -1.0 / p_target
        return -np.log(p_target), grad, margin
    active = (margin > 0.0).astype(np.float64)
    grad[rows, targets] = -active
    if rival is not None:
        grad[rows, rival] += active
    # np.maximum keeps a NaN margin, so the row fails the finiteness check
    return np.maximum(margin, 0.0), grad, margin


# the search: two objectives, one descent loop -------------------------------


def _plausible_objective(x0, targets, clf, flow, delta, cfg: CfConfig):
    """distance + lam * (validity + plausibility hinge), from closed-form VJPs."""
    log_delta = delta.for_labels(targets)

    def objective(idx: np.ndarray, x: np.ndarray):
        t = targets[idx]
        dist, g_dist = _distance_and_grad(x0[idx], x, cfg.distance_kind)
        probs, clf_vjp = clf.proba_and_input_vjp(x)
        val, g_probs, margin = _validity_and_grad(
            probs, t, cfg.validity_loss, cfg.epsilon
        )
        logp, g_logp = flow.log_prob_and_input_grad(x, t)
        gap = log_delta[idx] - logp
        plaus = np.maximum(gap, 0.0)
        obj = dist + cfg.lam * (val + plaus)
        grad = g_dist + cfg.lam * (clf_vjp(g_probs) - (gap > 0.0)[:, None] * g_logp)
        # cross-entropy never reaches zero, so feasibility reads the margin
        feasible = (margin <= 0.0) & (plaus <= 0.0)
        return obj, grad, feasible

    return objective


def _wachter_objective(x0, targets, clf, cfg: CfConfig):
    """Cross-entropy to the target plus c_reg-weighted distance; no constraints."""

    def objective(idx: np.ndarray, x: np.ndarray):
        dist, g_dist = _distance_and_grad(x0[idx], x, cfg.distance_kind)
        probs, clf_vjp = clf.proba_and_input_vjp(x)
        ce, g_probs, _ = _validity_and_grad(
            probs, targets[idx], "cross_entropy", cfg.epsilon
        )
        obj = ce + cfg.c_reg * dist
        grad = clf_vjp(g_probs) + cfg.c_reg * g_dist
        return obj, grad, None

    return objective


def _search(x0: np.ndarray, targets: np.ndarray, objective, cfg: CfConfig):
    """Batched Adam descent on ``objective``; rows never couple.

    ``objective(idx, x)`` takes the ascending indices of the active rows and
    their current points. It returns the per-row objective, its gradient
    with respect to x, and a mask of the rows that meet every constraint,
    or None if it has no constraints. It runs once per iteration, before
    the active rows' step, which may update ``x`` in place, so an objective
    that keeps ``x`` copies it.

    A row stops once it is feasible (when the objective has constraints) and
    its objective moved by less than ``convergence_tol``. A row whose numbers
    stop being finite fails alone. A row that exhausts ``max_iters`` falls
    back to its newest feasible iterate, if it had one. The active rows'
    indices, points, previous objectives and Adam moments are compacted
    only on an iteration where some row stops.
    """
    n, d = x0.shape
    idx = np.arange(n)
    x = x0.copy()
    prev_obj = np.full(n, np.inf)
    adam = AdamState((n, d))
    # Rows that never settle oscillate across the constraint boundary, so
    # the final iterate can sit a hair outside it; the newest iterate that
    # met every constraint is kept as the answer of record. It is not the
    # closest feasible iterate seen: distance can grow after feasibility.
    x_cf = np.empty((n, d))
    has_feasible = np.zeros(n, dtype=bool)
    covered = np.ones(n, dtype=bool)
    iterations = np.full(n, cfg.max_iters)
    stop_time = np.zeros(n)

    start = time.perf_counter()
    for it in range(1, cfg.max_iters + 1):
        if idx.size == 0:
            break
        with np.errstate(all="ignore"):
            obj, grad, feasible = objective(idx, x)
            failed = ~(np.all(np.isfinite(grad), axis=1) & np.isfinite(obj))
            done = ~failed & (np.abs(prev_obj - obj) < cfg.convergence_tol)
        if feasible is not None:
            # a failed row's answer is overwritten below, and only rows
            # still active at the cap read has_feasible
            x_cf[idx[feasible]] = x[feasible]
            has_feasible[idx[feasible]] = True
            done &= feasible
        stopped = failed | done
        if stopped.any():
            x_cf[idx[done]] = x[done]
            x_cf[idx[failed]] = np.nan
            covered[idx[failed]] = False
            iterations[idx[done]] = it - 1
            iterations[idx[failed]] = it
            stop_time[idx[stopped]] = time.perf_counter() - start
            keep = ~stopped
            idx, x, obj, grad = idx[keep], x[keep], obj[keep], grad[keep]
            adam.m, adam.v = adam.m[keep], adam.v[keep]
        prev_obj = obj

        # clip per row so one extreme gradient cannot dominate the
        # second-moment average for thousands of subsequent steps
        norms = np.sqrt((grad**2).sum(axis=1, keepdims=True))
        grad = grad * np.minimum(1.0, MAX_GRAD_NORM / np.maximum(norms, 1e-300))

        # every active row has taken it - 1 steps, so one counter serves all
        adam_step(x, grad, adam, cfg.learning_rate)

    stop_time[idx] = time.perf_counter() - start
    last = ~has_feasible[idx]
    x_cf[idx[last]] = x[last]
    return [
        CfResult(
            x_cf=x_cf[i].copy(),
            target=int(targets[i]),
            covered=bool(covered[i]),
            iterations_used=int(iterations[i]),
            wall_time_secs=float(stop_time[i]),
        )
        for i in range(n)
    ]


def generate(x0_batch, targets, clf, flow, delta, cfg: CfConfig) -> list[CfResult]:
    """Counterfactuals under the distance + lambda * (validity + plausibility) objective."""
    x0 = check_array(x0_batch, n_features=clf.n_features_)
    targets = check_labels(targets, clf.n_classes_, x0.shape[0], "targets")
    return _search(
        x0, targets, _plausible_objective(x0, targets, clf, flow, delta, cfg), cfg
    )


def wachter_generate(x0_batch, targets, clf, cfg: CfConfig) -> list[CfResult]:
    """Baseline: cross-entropy to the target plus c_reg-weighted distance."""
    x0 = check_array(x0_batch, n_features=clf.n_features_)
    targets = check_labels(targets, clf.n_classes_, x0.shape[0], "targets")
    return _search(x0, targets, _wachter_objective(x0, targets, clf, cfg), cfg)
