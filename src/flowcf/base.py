"""Small estimator base utilities in the scikit-learn style."""

from __future__ import annotations

import inspect
import numbers

import numpy as np

__all__ = ["BaseEstimator", "check_array", "check_X_y"]


class BaseEstimator:
    """get_params over the constructor signature, sklearn-style."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind != p.VAR_KEYWORD
        ]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_array(X, *, ndim: int = 2, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite values")
    return X


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = check_array(X)
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError(
            f"y must be 1-d with len(y) == len(X); got {y.shape} vs {X.shape}"
        )
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(y == y.astype(int)):
            raise ValueError("y must contain integer class labels")
        y = y.astype(int)
    return X, y.astype(np.int64)


def _check_count(name: str, value, minimum: int = 1) -> None:
    """ValueError unless ``value`` is an integer >= ``minimum`` (a bool is not one)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_number(name: str, value, *, positive: bool = False) -> None:
    """ValueError unless ``value`` is a finite real, > 0 if ``positive`` else >= 0."""
    finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and np.isfinite(value))
    if not (finite and (value > 0 if positive else value >= 0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
