"""Class-conditional Masked Autoregressive Flow.

Each transform is a MADE-style masked network producing per-coordinate
shift and log-scale from the preceding coordinates plus a one-hot class
context; coordinate orderings are reversed between consecutive transforms.
The density direction (data -> latent) needs a single masked pass. Its numpy
form returns, with each transform's output, one closed-form VJP in the
tape's order. The counterfactual search chains it for the input gradient of
the log-density (``log_prob_and_input_grad``); training chains the same VJP
for the parameter gradients of the mean negative log-density
(``_loss_and_grads``), on which the flow trains through the training loop
``models.fit_adam`` that the classifiers share. The graph form on the
autodiff tape (``log_prob_tensor``) is the reference: the tests check both
gradients against it bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .base import (BaseEstimator, _check_count, _check_number, check_array,
                   check_labels, check_X_y)
from .models import (TrainConfig, TrainingError, _flat_views, _one_hot,
                     _val_split, fit_adam)

__all__ = ["MadeTransform", "MaskedAutoregressiveFlow", "FlowNumericsError",
           "TrainingError", "load_flow"]

LOG_SCALE_BOUND = 7.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


class FlowNumericsError(ArithmeticError):
    """A transform produced a non-finite intermediate value."""


class MadeTransform:
    """One masked affine autoregressive transform with class conditioning.

    Output coordinate i (both shift and log-scale heads) depends only on
    input coordinates with strictly smaller degree, plus the unmasked
    context columns.
    """

    def __init__(self, d: int, n_classes: int, hidden: int,
                 degrees: np.ndarray, rng: np.random.Generator):
        self.d = d
        self.n_classes = n_classes
        self.hidden = hidden
        self.degrees = np.asarray(degrees, dtype=np.int64)

        m_hidden = (np.arange(hidden) % max(d - 1, 1)) + 1
        in_dim = d + n_classes
        mask1 = np.zeros((in_dim, hidden))
        mask1[:d] = self.degrees[:, None] <= m_hidden[None, :]
        mask1[d:] = 1.0  # context is fully connected
        mask2 = (m_hidden[:, None] <= m_hidden[None, :]).astype(np.float64)
        mask_out = (m_hidden[:, None] < self.degrees[None, :]).astype(np.float64)
        self.masks = [mask1, mask2, mask_out]

        def he(fan_in, shape):
            return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)

        # zeroed heads make the untrained transform the identity
        self._bind_params([
            he(in_dim, (in_dim, hidden)), np.zeros(hidden),
            he(hidden, (hidden, hidden)), np.zeros(hidden),
            np.zeros((hidden, d)), np.zeros(d),
            np.zeros((hidden, d)), np.zeros(d),
        ])
        self._mask_tensors = [Tensor(m) for m in self.masks]

    def _bind_params(self, params: list[np.ndarray]) -> None:
        """Use ``params`` as the parameters; the tape leaves share their memory."""
        self.params = params
        self.param_tensors = [Tensor(p, requires_grad=True) for p in params]

    # graph path ---------------------------------------------------------
    def _shift_log_scale(self, x: Tensor, context: np.ndarray):
        w1, b1, w2, b2, wm, bm, wa, ba = self.param_tensors
        m1, m2, mo = self._mask_tensors
        inp = ad.concatenate([x, Tensor(context)], axis=1)
        h = ad.relu(inp @ (w1 * m1) + b1)
        h = ad.relu(h @ (w2 * m2) + b2)
        shift = h @ (wm * mo) + bm
        log_scale = ad.clip(h @ (wa * mo) + ba, -LOG_SCALE_BOUND, LOG_SCALE_BOUND)
        return shift, log_scale

    def inverse_tensor(self, x: Tensor, context: np.ndarray):
        """Data -> latent; returns (z, per-row sum of log-scales)."""
        shift, log_scale = self._shift_log_scale(x, context)
        z = (x - shift) * ad.exp(-1.0 * log_scale)
        return z, ad.tsum(log_scale, axis=1)

    # numpy path ---------------------------------------------------------
    def _shift_log_scale_np(self, x: np.ndarray, context: np.ndarray):
        """Shift, log-scale and their VJP.

        The VJP maps ``(g_shift, g_log_scale)`` to ``(g_x, param_grads)``,
        taking the tape's steps in the tape's order: ``g_x`` and the list
        that ``param_grads()`` returns (the gradient of each of ``params``)
        equal the tape's bit for bit. The search never calls ``param_grads``,
        so it costs nothing there.
        """
        w1, b1, w2, b2, wm, bm, wa, ba = self.params
        m1, m2, mo = self.masks
        w1, w2, wm, wa = w1 * m1, w2 * m2, wm * mo, wa * mo
        inp = np.concatenate([x, context], axis=1)
        pre = inp @ w1 + b1
        relu1 = pre > 0.0
        h1 = np.maximum(pre, 0.0)
        pre = h1 @ w2 + b2
        relu2 = pre > 0.0
        h = np.maximum(pre, 0.0)
        raw = h @ wa + ba
        unclipped = (raw > -LOG_SCALE_BOUND) & (raw < LOG_SCALE_BOUND)

        def vjp(g_shift, g_log_scale):
            g_raw = g_log_scale * unclipped
            g2 = (g_shift @ wm.T + g_raw @ wa.T) * relu2
            g1 = (g2 @ w2.T) * relu1

            def param_grads():
                return [(inp.T @ g1) * m1, g1.sum(axis=0),
                        (h1.T @ g2) * m2, g2.sum(axis=0),
                        (h.T @ g_shift) * mo, g_shift.sum(axis=0),
                        (h.T @ g_raw) * mo, g_raw.sum(axis=0)]

            # the whole input's cotangent, as the tape forms it, then its
            # data columns
            return (g1 @ w1.T)[:, : self.d], param_grads

        shift = h @ wm + bm
        return shift, np.clip(raw, -LOG_SCALE_BOUND, LOG_SCALE_BOUND), vjp

    def inverse_and_vjp(self, x: np.ndarray, context: np.ndarray):
        """Data -> latent: z, per-row sum of log-scales, and their VJP.

        The VJP maps cotangents ``(g_z, g_log_scale_sum)`` of shapes (n, d)
        and (n,) to ``(g_x, param_grads)``, as in ``_shift_log_scale_np``.
        """
        shift, log_scale, conditioner_vjp = self._shift_log_scale_np(x, context)
        diff = x - shift
        scale = np.exp(-log_scale)
        z = diff * scale

        def vjp(g_z, g_log_scale_sum):
            g_diff = g_z * scale
            # dz/dlog_scale = -z on the diagonal, in the tape's order:
            # (g_z * diff) * scale rounds unlike g_z * z
            g_log_scale = g_log_scale_sum[:, None] - g_z * diff * scale
            g_x, param_grads = conditioner_vjp(-g_diff, g_log_scale)
            return g_diff + g_x, param_grads

        return z, log_scale.sum(axis=1), vjp

    def forward_np(self, z: np.ndarray, context: np.ndarray):
        """Latent -> data, one coordinate per pass in degree order."""
        x = np.zeros_like(z)
        log_det = np.zeros(z.shape[0])
        for deg in range(1, self.d + 1):
            shift, log_scale, _ = self._shift_log_scale_np(x, context)
            i = int(np.where(self.degrees == deg)[0][0])
            x[:, i] = shift[:, i] + z[:, i] * np.exp(log_scale[:, i])
            log_det += log_scale[:, i]
        return x, log_det


class MaskedAutoregressiveFlow(BaseEstimator):
    """Stack of MadeTransforms over a standard-normal base distribution."""

    def __init__(self, n_transforms: int = 5, hidden: int = 64,
                 jitter: float = 0.02,
                 train_config: TrainConfig | None = None):
        _check_count("n_transforms", n_transforms)
        _check_count("hidden", hidden)
        _check_number("jitter", jitter)
        self.n_transforms = n_transforms
        self.hidden = hidden
        # std of the per-epoch Gaussian noise added to training features;
        # doubles as dequantization and as a smoothness control on the
        # learned density (larger jitter -> wider ridges, lower peaks)
        self.jitter = jitter
        self.train_config = train_config

    @property
    def _cfg(self) -> TrainConfig:
        return self.train_config or TrainConfig()

    def _build(self, d: int, n_classes: int, rng: np.random.Generator):
        self.d_ = d
        self.n_classes_ = n_classes
        ascending = np.arange(1, d + 1)
        self.transforms_ = [
            MadeTransform(
                d, n_classes, self.hidden,
                ascending if k % 2 == 0 else ascending[::-1], rng,
            )
            for k in range(self.n_transforms)
        ]
        # one flat vector; each transform's parameters are views of it
        arrays = [p for tr in self.transforms_ for p in tr.params]
        self._flat_params, views = _flat_views(arrays)
        for k, tr in enumerate(self.transforms_):
            tr._bind_params(views[8 * k : 8 * k + 8])

    def _context(self, y, n_rows: int) -> np.ndarray:
        return _one_hot(check_labels(y, self.n_classes_, n_rows), self.n_classes_)

    # density ------------------------------------------------------------
    def log_prob_tensor(self, x: Tensor, y) -> Tensor:
        """Differentiable per-row conditional log-density."""
        context = self._context(y, x.shape[0])
        z = x
        total_log_scale = None
        for k, tr in enumerate(self.transforms_):
            try:
                z, row_log_scale = tr.inverse_tensor(z, context)
            except ad.DomainError as err:
                raise FlowNumericsError(f"transform {k}: {err}") from err
            total_log_scale = (
                row_log_scale if total_log_scale is None
                else total_log_scale + row_log_scale
            )
        base = -1.0 * (
            ad.tsum(ad.square(z), axis=1) * 0.5 + Tensor(self.d_ * _HALF_LOG_2PI)
        )
        return base - total_log_scale

    def _inverse_stack(self, X: np.ndarray, y):
        """Latent of every row, the summed log-scales, and each transform's VJP."""
        context = self._context(y, X.shape[0])
        z = X
        total = np.zeros(X.shape[0])
        vjps = []
        for tr in self.transforms_:
            z, row_log_scale, vjp = tr.inverse_and_vjp(z, context)
            total += row_log_scale
            vjps.append(vjp)
        return z, total, vjps

    def _base_log_prob(self, z: np.ndarray) -> np.ndarray:
        return -0.5 * (z**2).sum(axis=1) - self.d_ * _HALF_LOG_2PI

    def score_samples(self, X, y) -> np.ndarray:
        z, total, _ = self._inverse_stack(check_array(X, n_features=self.d_), y)
        if not np.all(np.isfinite(z)):
            raise FlowNumericsError("non-finite latent")
        return self._base_log_prob(z) - total

    def log_prob_and_input_grad(self, X: np.ndarray, y):
        """Per-row log p(x|y) and its gradient with respect to that row.

        Closed-form reverse pass through the stack, in the tape's order, so
        both equal ``log_prob_tensor`` and its backward bit for bit; no
        autodiff graph is built and no parameter gradient is computed. Rows
        never interact, so a row whose values overflow comes back non-finite
        on its own instead of raising.
        """
        X = np.asarray(X, dtype=np.float64)
        z, total, vjps = self._inverse_stack(X, y)
        grad = -z
        per_row = np.full(X.shape[0], -1.0)  # d logp / d(summed log-scales)
        for vjp in reversed(vjps):
            grad, _ = vjp(grad, per_row)
        return self._base_log_prob(z) - total, grad

    def _loss_and_grads(self, X: np.ndarray, y):
        """Mean negative log-density of the rows and its gradient per parameter.

        The closed-form reverse pass of ``log_prob_tensor``'s mean, step for
        step in the tape's order, so each gradient equals the tape's bit for
        bit. The gradients follow the transforms' ``params`` in stack order.
        """
        z, total, vjps = self._inverse_stack(X, y)
        # the tape's cotangents of z (through the base log-density's square)
        # and of every transform's summed log-scales
        g_z = z * (1.0 / X.shape[0])
        g_log_scale_sum = np.full(X.shape[0], 1.0 / X.shape[0])
        grads = []
        for vjp in reversed(vjps):
            g_z, param_grads = vjp(g_z, g_log_scale_sum)
            grads[:0] = param_grads()
        return -np.mean(self._base_log_prob(z) - total), grads

    def inverse(self, X, y):
        """Data -> latent; returns (z, log|det dz/dx|) per row."""
        z, total, _ = self._inverse_stack(check_array(X, n_features=self.d_), y)
        return z, -total

    def forward(self, Z, y):
        """Latent -> data through the stack in generative order."""
        Z = check_array(Z, n_features=self.d_)
        context = self._context(y, Z.shape[0])
        x = Z
        total = np.zeros(Z.shape[0])
        for tr in reversed(self.transforms_):
            x, log_det = tr.forward_np(x, context)
            total += log_det
        return x, total

    def sample(self, y, n_samples: int | None = None, seed: int = 0) -> np.ndarray:
        y = np.asarray(y)
        if y.ndim == 0:
            if n_samples is None or n_samples < 1:
                raise ValueError("n_samples must be >= 1 for a scalar label")
            y = np.full(n_samples, y)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((y.shape[0], self.d_))
        x, _ = self.forward(z, y)
        return x

    # training -----------------------------------------------------------
    def fit(self, X, y):
        X, y = check_X_y(X, y)
        counts = np.bincount(y)
        if np.any(counts < 2):
            raise ValueError("every class needs at least 2 samples")
        cfg = self._cfg
        rng = np.random.default_rng(cfg.seed)
        self._build(X.shape[1], counts.size, rng)
        (Xtr, ytr), (Xval, yval) = _val_split(X, y, cfg.val_fraction, rng)
        fit_adam(
            self._flat_params,
            self._loss_and_grads,
            lambda: -float(np.mean(self.score_samples(Xval, yval))),
            lambda: (Xtr + rng.normal(0.0, self.jitter, size=Xtr.shape), ytr),
            cfg, rng,
        )
        return self

    # persistence --------------------------------------------------------
    def to_dict(self) -> dict:
        # masks and degrees are rebuilt from d, n_classes and hidden
        return {
            "n_transforms": self.n_transforms,
            "hidden": self.hidden,
            "jitter": self.jitter,
            "d": self.d_,
            "n_classes": self.n_classes_,
            "seed": self._cfg.seed,
            "train_config": asdict(self._cfg),
            "transforms": [
                {"params": [p.tolist() for p in tr.params]}
                for tr in self.transforms_
            ],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, payload: dict):
        """Rebuild a flow; older payloads that also store masks/degrees load too."""
        flow = cls(
            n_transforms=payload["n_transforms"],
            hidden=payload["hidden"],
            jitter=payload.get("jitter", 0.02),
            train_config=TrainConfig(**payload["train_config"]),
        )
        flow._build(payload["d"], payload["n_classes"], np.random.default_rng(0))
        for tr, stored in zip(flow.transforms_, payload["transforms"]):
            for p, sp in zip(tr.params, stored["params"]):
                p[...] = np.asarray(sp, dtype=np.float64)
        return flow


def load_flow(path):
    with open(path, encoding="utf-8") as fh:
        return MaskedAutoregressiveFlow.from_dict(json.load(fh))
