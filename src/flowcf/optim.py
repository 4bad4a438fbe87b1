"""Bias-corrected Adam, shared by model training and the counterfactual search."""

from __future__ import annotations

import numpy as np

__all__ = ["AdamState", "adam_step"]


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, shapes):
        self.m = [np.zeros(s, dtype=np.float64) for s in shapes]
        self.v = [np.zeros(s, dtype=np.float64) for s in shapes]
        self.t = 0


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    rows: np.ndarray | None = None,
) -> None:
    """Apply one bias-corrected Adam update in place.

    With ``rows``, only those rows of each parameter and of its moments move,
    and each gradient holds just those rows; the step counter is shared, so
    every row updated together must have taken the same number of steps.
    """
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    sel = Ellipsis if rows is None else rows
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m_sel, v_sel = m[sel], v[sel]  # views without rows, copies with them
        m_sel *= beta1
        m_sel += (1.0 - beta1) * g
        v_sel *= beta2
        v_sel += (1.0 - beta2) * g**2
        step = lr * (m_sel / bc1) / (np.sqrt(v_sel / bc2) + eps)
        if rows is None:
            p -= step
        else:
            m[rows], v[rows] = m_sel, v_sel
            p[rows] -= step
