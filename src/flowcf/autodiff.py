"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array; every primitive that touches a tensor with
``requires_grad`` records its parents and a backward closure, so calling
``backward()`` on a scalar result replays the recorded graph in reverse
topological order and accumulates gradients into the leaves.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .base import DimensionError, DomainError

__all__ = [
    "Tensor",
    "DimensionError",
    "DomainError",
    "finite_difference_check",
    "finite_difference_error",
    "add",
    "sub",
    "mul",
    "matmul",
    "tsum",
    "tmean",
    "exp",
    "log",
    "relu",
    "softmax",
    "log_softmax",
    "tabs",
    "square",
    "sqrt",
    "clip",
    "row_max",
    "concatenate",
]


class Tensor:
    """Dense row-major float64 array participating in a recorded computation."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``grad`` on every reachable leaf with ``requires_grad``.

        The recorded graph is walked once in reverse topological order;
        frozen leaves are never touched.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is not None:
                node._backward_dispatch(g, grads)
            elif node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g

    def _backward_dispatch(self, g: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        parent_grads = self._backward(g)
        for parent, pg in zip(self._parents, parent_grads):
            if pg is None:
                continue
            if parent._backward is None and not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg

    # operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_graph(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._backward is not None for t in tensors)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward, op: str) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise DomainError(f"primitive '{op}' produced a non-finite value")
    out = Tensor(data)
    if _needs_graph(*parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(
            f"primitive '{op}': shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


# primitives -----------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    return _make(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        "add",
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("subtract", a, b)
    return _make(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
        "subtract",
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("multiply", a, b)
    return _make(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
        "multiply",
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"primitive 'matmul': shapes {a.shape} and {b.shape} do not contract"
        )
    return _make(
        a.data @ b.data,
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
        "matmul",
    )


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward, "sum")


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape) / count,)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), backward, "mean")


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _make(out_data, (a,), lambda g: (g * out_data,), "exp")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise DomainError("primitive 'log': input must be strictly positive")
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,), "log")


def relu(a: Tensor) -> Tensor:
    # Subgradient at 0 is taken as 0, which keeps satisfied hinges inactive.
    mask = a.data > 0.0
    return _make(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,), "relu")


def softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        return (out_data * (g - dot),)

    return _make(out_data, (a,), backward, "softmax")


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - lse
    probs = np.exp(out_data)

    def backward(g):
        return (g - probs * g.sum(axis=-1, keepdims=True),)

    return _make(out_data, (a,), backward, "log_softmax")


def tabs(a: Tensor) -> Tensor:
    return _make(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),), "absolute")


def square(a: Tensor) -> Tensor:
    return _make(a.data**2, (a,), lambda g: (g * 2.0 * a.data,), "square")


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise DomainError("primitive 'sqrt': input must be non-negative")
    out_data = np.sqrt(a.data)
    return _make(out_data, (a,), lambda g: (g * 0.5 / np.maximum(out_data, 1e-300),), "sqrt")


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = (a.data > lo) & (a.data < hi)
    return _make(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,), "clip")


def row_max(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"primitive 'row_max': expected 2-d input, got {a.shape}")
    idx = a.data.argmax(axis=1)  # ties resolve toward the lower index
    out_data = a.data[np.arange(a.shape[0]), idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[np.arange(a.shape[0]), idx] = g
        return (full,)

    return _make(out_data, (a,), backward, "row_max")


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [(t if isinstance(t, Tensor) else Tensor(t)) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _make(
        np.concatenate([t.data for t in tensors], axis=axis),
        tensors,
        backward,
        "concatenate",
    )


def finite_difference_check(
    f: Callable[[Tensor], Tensor], x: np.ndarray, step: float = 1e-5
) -> float:
    """Max relative error between the tape gradient of ``f`` and central differences.

    ``f`` must be scalar-valued. See ``finite_difference_error`` for the
    error measure.
    """
    x = np.asarray(x, dtype=np.float64)
    xt = Tensor(x.copy(), requires_grad=True)
    out = f(xt)
    if out.data.size != 1:
        raise DimensionError("finite_difference_check requires a scalar-valued f")
    out.backward()
    analytic = xt.grad if xt.grad is not None else np.zeros_like(x)
    return finite_difference_error(
        lambda v: float(f(Tensor(v)).data), analytic, x, step
    )


def finite_difference_error(
    value: Callable[[np.ndarray], float],
    analytic: np.ndarray,
    x: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative error between ``analytic`` and central differences of ``value``.

    ``value`` maps an array shaped like ``x`` to a float. Relative error per
    coordinate is ``|analytic - numeric| / (|numeric| + 1e-12)``.
    """
    x = np.array(x, dtype=np.float64)
    numeric = np.zeros_like(x)
    flat = x.ravel()
    num_flat = numeric.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = value(x)
        flat[i] = orig - step
        lo = value(x)
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise DomainError("finite difference: value produced non-finite output")
        num_flat[i] = (hi - lo) / (2.0 * step)

    err = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-12)
    return float(err.max()) if err.size else 0.0
