"""Gradient correctness of every primitive, checked against central differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowcf import autodiff as ad
from flowcf.autodiff import (
    DimensionError,
    DomainError,
    Tensor,
    finite_difference_check,
)
from flowcf.optim import AdamState, adam_step


def grad_of(f, x):
    xt = Tensor(x, requires_grad=True)
    out = f(xt)
    ad.tsum(out).backward()
    return xt.grad


def numeric_grad(f, x, step=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        hi = x.copy(); hi[i] += step
        lo = x.copy(); lo[i] -= step
        g[i] = (f(Tensor(hi)).data.sum() - f(Tensor(lo)).data.sum()) / (2 * step)
        it.iternext()
    return g


RNG = np.random.default_rng(7)

SMOOTH_CASES = [
    ("exp", lambda x: ad.exp(x), RNG.normal(size=(3, 4))),
    ("log", lambda x: ad.log(x), RNG.uniform(0.5, 3.0, size=(3, 4))),
    ("square", lambda x: ad.square(x), RNG.normal(size=(3, 4))),
    ("sqrt", lambda x: ad.sqrt(x), RNG.uniform(0.5, 4.0, size=(3, 4))),
    ("tsum", lambda x: ad.tsum(x, axis=1), RNG.normal(size=(3, 4))),
    ("tmean", lambda x: ad.tmean(x, axis=0), RNG.normal(size=(3, 4))),
    ("softmax", lambda x: ad.softmax(x), RNG.normal(size=(3, 4))),
    ("log_softmax", lambda x: ad.log_softmax(x), RNG.normal(size=(3, 4))),
    ("mul_const", lambda x: x * Tensor(np.arange(4.0)), RNG.normal(size=(3, 4))),
]

_W_MATMUL = RNG.normal(size=(4, 2))
_W_COMPOSITE = RNG.normal(size=(4, 3))
SMOOTH_CASES += [
    ("matmul", lambda x: x @ Tensor(_W_MATMUL), RNG.normal(size=(3, 4))),
    (
        "composite",
        lambda x: ad.tsum(ad.square(ad.softmax(x @ Tensor(_W_COMPOSITE))), axis=1),
        RNG.normal(size=(5, 4)),
    ),
]


@pytest.mark.parametrize("name,f,x", SMOOTH_CASES, ids=[c[0] for c in SMOOTH_CASES])
def test_primitive_gradients_match_finite_differences(name, f, x):
    analytic = grad_of(f, x)
    numeric = numeric_grad(f, x)
    assert np.allclose(analytic, numeric, atol=1e-5, rtol=1e-4)


def test_finite_difference_check_helper():
    w = RNG.normal(size=(4, 2))

    def f(xt):
        return ad.tsum(ad.square(xt @ Tensor(w)))

    assert finite_difference_check(f, RNG.normal(size=(3, 4))) < 1e-4


def test_relu_gradient_and_kink_subgradient():
    x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
    g = grad_of(lambda t: ad.relu(t), x)
    assert np.array_equal(g, [[0.0, 0.0, 0.0, 1.0, 1.0]])


def test_clip_gradient():
    x = np.array([[-1.0, 0.2, 0.7, 1.5]])
    g = grad_of(lambda t: ad.clip(t, 0.0, 1.0), x)
    assert np.array_equal(g, [[0.0, 1.0, 1.0, 0.0]])


def test_row_max_ties_go_to_lower_index():
    x = np.array([[1.0, 3.0, 3.0], [2.0, 0.0, 2.0]])
    xt = Tensor(x, requires_grad=True)
    out = ad.row_max(xt)
    assert np.array_equal(out.data, [3.0, 2.0])
    ad.tsum(out).backward()
    assert np.array_equal(xt.grad, [[0, 1, 0], [1, 0, 0]])


def test_tabs_gradient_sign():
    x = np.array([[-2.0, 3.0]])
    assert np.array_equal(grad_of(lambda t: ad.tabs(t), x), [[-1.0, 1.0]])


def test_broadcast_add_accumulates_gradient():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4,)), requires_grad=True)
    ad.tsum((a + b) * Tensor(2.0)).backward()
    assert np.allclose(a.grad, 2.0)
    assert np.allclose(b.grad, 6.0)  # summed over the broadcast axis


def test_concatenate_splits_gradient():
    a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=(2, 1)), requires_grad=True)
    out = ad.concatenate([a, b], axis=1)
    ad.tsum(out * Tensor(np.arange(8.0).reshape(2, 4))).backward()
    assert a.grad.shape == (2, 3) and b.grad.shape == (2, 1)
    assert np.array_equal(b.grad, [[3.0], [7.0]])


def test_diamond_graph_accumulates_both_paths():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * Tensor(3.0)  # x^2 + 3x, d/dx = 2x + 3 = 7
    y.backward()
    assert np.allclose(x.grad, [7.0])


def test_backward_requires_scalar():
    x = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(DimensionError):
        (x * x).backward()


def test_log_domain_error():
    with pytest.raises(DomainError):
        ad.log(Tensor(np.array([1.0, -1.0])))


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_no_grad_tensors_skip_graph():
    x = Tensor(np.array([1.0]))
    out = ad.exp(x)
    assert out._parents == () and not out.requires_grad


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-4, 4), min_size=2, max_size=6))
def test_softmax_rows_on_simplex(vals):
    x = np.array([vals])
    out = ad.softmax(Tensor(x)).data
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=1), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_composite_gradient(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3))
    w = rng.normal(size=(3, 3))

    def f(t):
        h = ad.softmax(t @ Tensor(w))
        return ad.tsum(ad.square(h)) + ad.tsum(ad.tabs(t))

    assert finite_difference_check(f, x) < 1e-4


# Adam oracle --------------------------------------------------------------


def test_adam_first_step_magnitude():
    x = np.array([10.0, -4.0])
    state = AdamState(x.shape)
    adam_step(x, np.array([100.0, -0.5]), state, lr=0.01)
    # bias-corrected first step is lr * sign(g) up to eps rounding
    assert np.allclose(x, [10.0 - 0.01, -4.0 + 0.01], atol=1e-5)


def test_adam_zero_grad_never_moves():
    x = np.array([1.0, 2.0])
    state = AdamState(x.shape)
    for _ in range(10):
        adam_step(x, np.zeros(2), state, lr=0.1)
    assert np.array_equal(x, [1.0, 2.0])


def test_adam_converges_on_quadratic():
    x = np.array([0.0])
    state = AdamState(x.shape)
    for _ in range(2000):
        adam_step(x, 2.0 * (x - 3.0), state, lr=0.01)
    assert abs(x[0] - 3.0) < 1e-3


def test_adam_on_a_concatenation_equals_adam_on_each_piece():
    # Adam is elementwise, so a model may step all of its parameters as one
    # flat vector, and the search its active rows as one block
    rng = np.random.default_rng(3)
    pieces = [rng.normal(size=shape) for shape in [(4, 3), (3,), (2, 5)]]
    states = [AdamState(p.shape) for p in pieces]
    flat = np.concatenate([p.ravel() for p in pieces])
    flat_state = AdamState(flat.shape)
    for _ in range(3):
        grads = [rng.normal(scale=10.0, size=p.shape) for p in pieces]
        adam_step(flat, np.concatenate([g.ravel() for g in grads]), flat_state,
                  lr=0.1)
        for p, g, state in zip(pieces, grads, states):
            adam_step(p, g, state, lr=0.1)
    assert flat_state.t == 3 and all(state.t == 3 for state in states)
    for name in ("m", "v"):
        pieces_moment = [getattr(state, name).ravel() for state in states]
        assert np.array_equal(getattr(flat_state, name), np.concatenate(pieces_moment))
    assert np.array_equal(flat, np.concatenate([p.ravel() for p in pieces]))
