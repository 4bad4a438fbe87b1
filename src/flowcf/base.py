"""Small estimator base utilities in the scikit-learn style."""

from __future__ import annotations

import inspect
import numbers

import numpy as np

__all__ = ["BaseEstimator", "DimensionError", "DomainError", "check_array",
           "check_labels", "check_X_y"]


class DimensionError(ValueError):
    """Raised when operand shapes do not conform to a primitive's rule."""


class DomainError(ValueError):
    """Raised when a primitive is evaluated outside its numeric domain."""


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


def check_array(X, *, ndim: int = 2, name: str = "X",
                n_features: int | None = None) -> np.ndarray:
    """Finite float64 array; DimensionError unless 2-d X has ``n_features`` columns."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {X.shape}")
    if n_features is not None and X.shape[1] != n_features:
        raise DimensionError(f"{name} must have {n_features} features, "
                             f"got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite values")
    return X


# Distance tables are built in row blocks whose (rows, m, d) difference array
# takes about this many bytes, so their memory stays bounded as data grows.
_BLOCK_BYTES = 1 << 20


def _sq_distance_blocks(A: np.ndarray, B: np.ndarray):
    """Yield ``(rows, sq)``: a slice of A's rows and their squared distances to B."""
    step = max(1, _BLOCK_BYTES // (8 * max(1, B.shape[0] * B.shape[1])))
    for start in range(0, A.shape[0], step):
        rows = slice(start, min(start + step, A.shape[0]))
        yield rows, ((A[rows, None, :] - B[None, :, :]) ** 2).sum(axis=2)


def check_labels(y, n_classes: int, n_rows: int | None = None,
                 name: str = "labels") -> np.ndarray:
    """1-d int64 class indices in [0, n_classes), one per row if ``n_rows`` is given."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-d; got shape {y.shape}")
    if n_rows is not None and y.shape[0] != n_rows:
        raise ValueError(f"{name} must have one entry per row ({n_rows}); "
                         f"got {y.shape[0]}")
    if y.size and not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"{name} must be integer class indices, got {y.dtype}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"{name} must lie in [0, {n_classes})")
    return y.astype(np.int64, copy=False)


def check_X_y(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X as ``check_array``; y as labels 0..C-1, all present (integral floats cast)."""
    X = check_array(X)
    y = np.asarray(y)
    if y.dtype.kind == "f" and np.all(np.isfinite(y) & (y == np.round(y))):
        y = y.astype(np.int64)
    if y.size == 0:
        raise ValueError("y must not be empty")
    n_classes = max(int(y.max()) + 1, 1) if y.dtype.kind in "iu" else 0
    y = check_labels(y, n_classes, X.shape[0], name="y")
    if np.bincount(y, minlength=n_classes).min() == 0:
        raise ValueError(f"y must contain every class 0..{n_classes - 1}")
    return X, y


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
