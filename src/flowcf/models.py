"""Differentiable classifiers: logistic regression and a 3-layer MLP.

Both expose a numpy ``predict_proba`` / ``predict`` surface plus
``proba_and_input_vjp``, which returns the probabilities together with their
closed-form vector-Jacobian product with respect to the input; the
counterfactual search runs on that. Training minimizes a cross-entropy built
on the autodiff tape with ``predict_proba_tensor``, which the gradient checks
in the tests also use. ``fit_adam`` here is the one training loop (minibatch
Adam, early stopping, best-parameter restore); the flow trains through it too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .base import BaseEstimator, check_array, check_X_y
from .optim import AdamState, adam_step

__all__ = ["TrainConfig", "TrainingError", "LogisticRegression", "MlpClassifier",
           "load_classifier"]


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 128
    seed: int = 0
    weight_decay: float = 0.0
    patience: int = 20
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def _one_hot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.shape[0], n_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def _val_split(X: np.ndarray, y: np.ndarray, fraction: float,
               rng: np.random.Generator):
    """``(X, y)`` of the training rows and of the validation rows.

    With ``fraction == 0`` there are no validation rows, and the training
    rows stand in for them.
    """
    idx = rng.permutation(X.shape[0])
    n_val = max(1, int(round(X.shape[0] * fraction))) if fraction > 0 else 0
    train = idx[n_val:]
    val = idx[:n_val] if n_val else train
    return (X[train], y[train]), (X[val], y[val])


class TrainingError(RuntimeError):
    """Training hit a non-finite loss."""


# the tape raises on a non-finite value, which fit_adam reports as a
# TrainingError, so numpy's overflow warnings would only repeat it
@np.errstate(all="ignore")
def fit_adam(params, tensors, batch_loss, val_loss, epoch_data,
             cfg: TrainConfig, rng: np.random.Generator) -> None:
    """Minibatch Adam with early stopping; leaves the best parameters in place.

    ``params`` are the arrays Adam updates and ``tensors`` the tape leaves
    that share their memory. Each epoch, ``epoch_data()`` returns the
    training arrays (drawing any noise before the epoch's permutation) and
    ``batch_loss`` maps their minibatch rows to a scalar tape loss. Training
    stops once ``val_loss()`` has not improved for ``cfg.patience`` epochs;
    a loss the tape cannot evaluate raises ``TrainingError``.
    """
    adam = AdamState([p.shape for p in params])
    best_loss = np.inf
    best_params = [p.copy() for p in params]
    stale = 0
    for epoch in range(cfg.epochs):
        data = epoch_data()
        n = data[0].shape[0]
        order = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            try:
                loss = batch_loss(*(a[batch] for a in data))
            except (ArithmeticError, ad.DomainError) as err:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                ) from err
            loss.backward()
            adam_step(params, [t.grad for t in tensors], adam, cfg.learning_rate)
            for t in tensors:
                t.zero_grad()
        try:
            current = val_loss()
        except (ArithmeticError, ad.DomainError) as err:
            raise TrainingError(
                f"non-finite validation loss at epoch {epoch}"
            ) from err
        if current < best_loss - 1e-12:
            best_loss = current
            best_params = [p.copy() for p in params]
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    for p, best in zip(params, best_params):
        p[...] = best


class _GradientClassifier(BaseEstimator):
    """Cross-entropy training through ``fit_adam``, and the numpy predict surface."""

    arch: str

    def __init__(self, train_config: TrainConfig | None = None):
        self.train_config = train_config

    # subclass surface ---------------------------------------------------
    def _new_params(self, d: int, n_classes: int, rng: np.random.Generator):
        """Fresh parameter arrays, weights at even and biases at odd positions."""
        raise NotImplementedError

    def _logits(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def _logits_and_vjp(self, X: np.ndarray):
        """Numpy logits and a closure mapping d/dlogits to d/dX."""
        raise NotImplementedError

    # shared -------------------------------------------------------------
    @property
    def _cfg(self) -> TrainConfig:
        return self.train_config or TrainConfig()

    def _init_params(self, d: int, n_classes: int, rng: np.random.Generator):
        self._params = self._new_params(d, n_classes, rng)
        # the tape leaves share memory with the arrays that Adam updates
        self._param_tensors = [Tensor(p, requires_grad=True) for p in self._params]

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        classes = np.unique(y)
        if classes.size < 2:
            raise ValueError("training data must contain at least two classes")
        if classes.min() < 0 or classes.max() >= classes.size:
            raise ValueError("labels must be contiguous integers starting at 0")
        cfg = self._cfg
        rng = np.random.default_rng(cfg.seed)
        self.n_features_ = X.shape[1]
        self.n_classes_ = int(classes.size)
        self._init_params(self.n_features_, self.n_classes_, rng)
        (Xtr, ytr), (Xval, yval) = _val_split(X, y, cfg.val_fraction, rng)
        fit_adam(
            self._params, self._param_tensors,
            lambda Xb, yb: self._loss(Xb, yb, cfg.weight_decay),
            lambda: float(self._loss(Xval, yval, 0.0).data),
            lambda: (Xtr, ytr),
            cfg, rng,
        )
        return self

    def _loss(self, X: np.ndarray, y: np.ndarray, weight_decay: float) -> Tensor:
        logp = ad.log_softmax(self._logits(Tensor(X)))
        onehot = Tensor(_one_hot(y, self.n_classes_))
        nll = -1.0 * ad.tmean(ad.tsum(logp * onehot, axis=1))
        if weight_decay > 0:
            penalty = Tensor(0.0)
            for t in self._param_tensors[0::2]:
                penalty = penalty + ad.tsum(ad.square(t))
            nll = nll + Tensor(0.5 * weight_decay) * penalty
        return nll

    def _check_width(self, width: int) -> None:
        if width != self.n_features_:
            raise ad.DimensionError(
                f"expected {self.n_features_} features, got {width}"
            )

    def predict_proba_tensor(self, x: Tensor) -> Tensor:
        self._check_width(x.shape[-1])
        return ad.softmax(self._logits(x))

    def proba_and_input_vjp(self, X: np.ndarray):
        """Class probabilities of the rows of a 2-d float array, and their VJP.

        The VJP maps an (n, n_classes) cotangent on the probabilities to the
        (n, n_features) cotangent on ``X``. Rows never interact, and no
        parameter gradient is computed or stored.
        """
        self._check_width(X.shape[-1])
        logits, logits_vjp = self._logits_and_vjp(X)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)

        def vjp(g: np.ndarray) -> np.ndarray:
            dot = (g * probs).sum(axis=1, keepdims=True)
            return logits_vjp(probs * (g - dot))

        return probs, vjp

    def predict_proba(self, X) -> np.ndarray:
        return self.proba_and_input_vjp(check_array(X))[0]

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def score(self, X, y) -> float:
        X, y = check_X_y(X, y)
        return float((self.predict(X) == y).mean())

    # persistence --------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "arch": self.arch,
            "layer_shapes": [list(p.shape) for p in self._params],
            "params": [p.tolist() for p in self._params],
            "n_features": self.n_features_,
            "n_classes": self.n_classes_,
            "seed": self._cfg.seed,
            "train_config": asdict(self._cfg),
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def from_dict(cls, payload: dict):
        model = cls(train_config=TrainConfig(**payload["train_config"]))
        if "hidden" in model.get_params():
            # the first layer's output width is the hidden width
            model.set_params(hidden=payload["layer_shapes"][0][1])
        model.n_features_ = payload["n_features"]
        model.n_classes_ = payload["n_classes"]
        model._init_params(
            model.n_features_, model.n_classes_, np.random.default_rng(0)
        )
        for p, stored in zip(model._params, payload["params"]):
            p[...] = np.asarray(stored, dtype=np.float64)
        return model


class LogisticRegression(_GradientClassifier):
    """Multinomial logistic regression; the C=2 softmax form covers binary."""

    arch = "lr"

    def _new_params(self, d, n_classes, rng):
        self.weights_ = np.zeros((d, n_classes), dtype=np.float64)
        self.bias_ = np.zeros(n_classes, dtype=np.float64)
        return [self.weights_, self.bias_]

    def _logits(self, x: Tensor) -> Tensor:
        w, b = self._param_tensors
        return x @ w + b

    def _logits_and_vjp(self, X):
        w, b = self._params
        return X @ w + b, lambda g: g @ w.T


class MlpClassifier(_GradientClassifier):
    """Three affine layers (d -> hidden -> hidden -> C) with relu activations."""

    arch = "mlp"

    def __init__(self, hidden: int = 64, train_config: TrainConfig | None = None):
        super().__init__(train_config)
        self.hidden = hidden

    def _new_params(self, d, n_classes, rng):
        h = self.hidden
        widths = [(d, h), (h, h), (h, n_classes)]
        params = []
        for fan_in, fan_out in widths:
            scale = np.sqrt(2.0 / fan_in)
            params.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            params.append(np.zeros(fan_out, dtype=np.float64))
        return params

    def _logits(self, x: Tensor) -> Tensor:
        w1, b1, w2, b2, w3, b3 = self._param_tensors
        h = ad.relu(x @ w1 + b1)
        h = ad.relu(h @ w2 + b2)
        return h @ w3 + b3

    def _logits_and_vjp(self, X):
        w1, b1, w2, b2, w3, b3 = self._params
        pre = X @ w1 + b1
        relu1 = pre > 0.0
        pre = np.maximum(pre, 0.0) @ w2 + b2
        relu2 = pre > 0.0

        def vjp(g):
            g = (g @ w3.T) * relu2
            return ((g @ w2.T) * relu1) @ w1.T

        return np.maximum(pre, 0.0) @ w3 + b3, vjp


_ARCHS = {"lr": LogisticRegression, "mlp": MlpClassifier}


def load_classifier(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return _ARCHS[payload["arch"]].from_dict(payload)
