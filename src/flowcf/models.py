"""Differentiable classifiers: logistic regression and a 3-layer MLP.

Both expose a numpy ``predict_proba`` / ``predict`` surface. Each writes its
backward once, as the closed-form VJP of ``_logits_and_vjp``, which takes the
autodiff tape's steps in the tape's order. ``proba_and_input_vjp`` chains it
for the probabilities' vector-Jacobian product with respect to the input,
which the counterfactual search runs on; training minimizes the
cross-entropy through ``_loss_and_grads``, which chains the same VJP for the
parameter gradients. Both equal the tape's bit for bit; the tape form
(``predict_proba_tensor``) stays as the reference the tests check against.
``fit_adam`` here is the one training loop (minibatch Adam, early stopping,
best-parameter restore); the flow trains through it too. Adam steps each
model's one flat parameter vector, of which every parameter array and tape
leaf is a view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .base import (BaseEstimator, _check_count, _check_number, check_array,
                   check_labels, check_X_y)
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
        _check_number("learning_rate", self.learning_rate, positive=True)
        _check_number("weight_decay", self.weight_decay)
        for name in ("epochs", "batch_size", "patience"):
            _check_count(name, getattr(self, name))
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")


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
    """Training hit a non-finite loss or gradient."""


def _flat_views(arrays):
    """One float64 vector holding ``arrays`` in order, and a view of it per array."""
    flat = np.concatenate([a.ravel() for a in arrays])
    pieces = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    return flat, [piece.reshape(a.shape) for piece, a in zip(pieces, arrays)]


def _check_finite(loss) -> None:
    """Raise ``FloatingPointError`` if the loss is not finite."""
    if not np.isfinite(loss):
        raise FloatingPointError(f"the loss is {loss}")


def _flat_grad(grads) -> np.ndarray:
    """The gradients as one vector; one finiteness pass, naming the first bad one."""
    flat = np.concatenate([g.ravel() for g in grads])
    if not np.isfinite(flat).all():
        k = next(k for k, g in enumerate(grads) if not np.isfinite(g).all())
        raise FloatingPointError(f"the gradient of parameter {k} is not finite")
    return flat


# a non-finite value is reported as a TrainingError, so numpy's overflow
# warnings would only repeat it
@np.errstate(all="ignore")
def fit_adam(params, loss_and_grads, val_loss, epoch_data,
             cfg: TrainConfig, rng: np.random.Generator) -> None:
    """Minibatch Adam with early stopping; leaves the best parameters in place.

    ``params`` is the model's flat parameter vector, which Adam steps in
    place. Each epoch, ``epoch_data()`` returns the training arrays (drawing
    any noise before the epoch's permutation), and ``loss_and_grads`` maps
    their minibatch rows to the scalar loss and its gradient per parameter
    array, in the vector's order, which are concatenated once. The models
    pass closed-form numpy gradients; no autodiff graph is built. Training
    stops once ``val_loss()`` has not improved for ``cfg.patience`` epochs,
    and one copy restores the best epoch. A loss, gradient or validation
    loss that is not finite raises ``TrainingError``.
    """
    adam = AdamState(params.shape)
    best_loss = np.inf
    best_params = params.copy()
    stale = 0
    for epoch in range(cfg.epochs):
        data = epoch_data()
        n = data[0].shape[0]
        order = rng.permutation(n)
        for batch_no, start in enumerate(range(0, n, cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            try:
                loss, grads = loss_and_grads(*(a[batch] for a in data))
                _check_finite(loss)
                grad = _flat_grad(grads)
            except ArithmeticError as err:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                ) from err
            adam_step(params, grad, adam, cfg.learning_rate)
        try:
            current = val_loss()
            _check_finite(current)
        except ArithmeticError as err:
            raise TrainingError(
                f"non-finite validation loss at epoch {epoch}"
            ) from err
        if current < best_loss - 1e-12:
            best_loss = current
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    params[...] = best_params


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
        """Numpy logits and their VJP ``g -> (g_x, param_grads)``.

        ``g`` is d/dlogits; ``g_x`` is d/dX, and ``param_grads()`` returns
        the list of gradients of ``_params``, each as the tape computes it.
        """
        raise NotImplementedError

    # shared -------------------------------------------------------------
    @property
    def _cfg(self) -> TrainConfig:
        return self.train_config or TrainConfig()

    def _init_params(self, d: int, n_classes: int, rng: np.random.Generator):
        self._flat_params, self._params = _flat_views(
            self._new_params(d, n_classes, rng)
        )
        # the tape leaves share memory with the vector that Adam updates
        self._param_tensors = [Tensor(p, requires_grad=True) for p in self._params]

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        if y.max() < 1:
            raise ValueError("training data must contain at least two classes")
        cfg = self._cfg
        rng = np.random.default_rng(cfg.seed)
        self.n_features_ = X.shape[1]
        self.n_classes_ = int(y.max()) + 1
        self._init_params(self.n_features_, self.n_classes_, rng)
        (Xtr, ytr), (Xval, yval) = _val_split(X, y, cfg.val_fraction, rng)
        fit_adam(
            self._flat_params,
            lambda Xb, yb: self._loss_and_grads(Xb, yb, cfg.weight_decay),
            lambda: self._cross_entropy(Xval, yval)[0],
            lambda: (Xtr, ytr),
            cfg, rng,
        )
        return self

    def _cross_entropy(self, X: np.ndarray, y: np.ndarray):
        """Mean cross-entropy of the rows, and a closure giving its parameter gradients."""
        logits, vjp = self._logits_and_vjp(X)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        onehot = _one_hot(y, self.n_classes_)

        def backward():
            # d/dlogp of the mean, then log_softmax's backward, as on the tape
            g = (-1.0 / X.shape[0]) * onehot
            return vjp(g - np.exp(logp) * g.sum(axis=1, keepdims=True))[1]()

        return -1.0 * (logp * onehot).sum(axis=1).mean(), backward

    def _loss_and_grads(self, X: np.ndarray, y: np.ndarray,
                        weight_decay: float = 0.0):
        """Training loss of the rows and its gradient for each of ``_params``.

        The loss is the mean cross-entropy plus ``0.5 * weight_decay`` times
        the summed squares of the weights (the even-numbered parameters).
        Every gradient takes the tape's steps in the tape's order, so it
        equals the tape's bit for bit.
        """
        loss, backward = self._cross_entropy(X, y)
        grads = backward()
        if weight_decay > 0:
            for k in range(0, len(grads), 2):
                w = self._params[k]
                loss += 0.5 * weight_decay * (w**2).sum()
                grads[k] = grads[k] + 0.5 * weight_decay * 2.0 * w
        return loss, grads

    def predict_proba_tensor(self, x: Tensor) -> Tensor:
        return ad.softmax(self._logits(x))

    def proba_and_input_vjp(self, X: np.ndarray):
        """Class probabilities of the rows of a 2-d float array, and their VJP.

        The VJP maps an (n, n_classes) cotangent on the probabilities to the
        (n, n_features) cotangent on ``X``. Rows never interact, and no
        parameter gradient is computed.
        """
        logits, logits_vjp = self._logits_and_vjp(X)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)

        def vjp(g: np.ndarray) -> np.ndarray:
            dot = (g * probs).sum(axis=1, keepdims=True)
            return logits_vjp(probs * (g - dot))[0]

        return probs, vjp

    def predict_proba(self, X) -> np.ndarray:
        X = check_array(X, n_features=self.n_features_)
        return self.proba_and_input_vjp(X)[0]

    def predict(self, X) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def score(self, X, y) -> float:
        X = check_array(X, n_features=self.n_features_)
        y = check_labels(y, self.n_classes_, X.shape[0], "y")
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
        kwargs = {"train_config": TrainConfig(**payload["train_config"])}
        if "hidden" in cls._param_names():
            # the first layer's output width is the hidden width
            kwargs["hidden"] = payload["layer_shapes"][0][1]
        model = cls(**kwargs)
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
    weights_ = property(lambda self: self._params[0])
    bias_ = property(lambda self: self._params[1])

    def _new_params(self, d, n_classes, rng):
        return [np.zeros((d, n_classes)), np.zeros(n_classes)]

    def _logits(self, x: Tensor) -> Tensor:
        w, b = self._param_tensors
        return x @ w + b

    def _logits_and_vjp(self, X):
        w, b = self._params
        return X @ w + b, lambda g: (g @ w.T, lambda: [X.T @ g, g.sum(axis=0)])


class MlpClassifier(_GradientClassifier):
    """Three affine layers (d -> hidden -> hidden -> C) with relu activations."""

    arch = "mlp"

    def __init__(self, hidden: int = 64, train_config: TrainConfig | None = None):
        _check_count("hidden", hidden)
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
        h1 = np.maximum(pre, 0.0)
        pre = h1 @ w2 + b2
        relu2 = pre > 0.0
        h2 = np.maximum(pre, 0.0)

        def vjp(g):
            g2 = (g @ w3.T) * relu2
            g1 = (g2 @ w2.T) * relu1
            return g1 @ w1.T, lambda: [X.T @ g1, g1.sum(axis=0), h1.T @ g2,
                                       g2.sum(axis=0), h2.T @ g, g.sum(axis=0)]

        return h2 @ w3 + b3, vjp


_ARCHS = {"lr": LogisticRegression, "mlp": MlpClassifier}


def load_classifier(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return _ARCHS[payload["arch"]].from_dict(payload)
