"""Bias-corrected Adam on one contiguous array.

Model training and the counterfactual search share it. Adam is elementwise,
so each caller steps a single array: a model its one flat parameter vector,
the search the block of its active rows.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AdamState", "adam_step"]

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moments of one array, plus the step counter."""

    def __init__(self, shape):
        self.m = np.zeros(shape, dtype=np.float64)
        self.v = np.zeros(shape, dtype=np.float64)
        self.t = 0


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float) -> None:
    """Apply one bias-corrected Adam update to ``param`` in place."""
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    state.m *= BETA1
    state.m += (1.0 - BETA1) * grad
    state.v *= BETA2
    state.v += (1.0 - BETA2) * grad**2
    param -= lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + EPS)
