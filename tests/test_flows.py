"""Conditional flow: invertibility, autoregressive structure, normalization."""

import json

import numpy as np
import pytest

from flowcf.autodiff import Tensor, finite_difference_check, finite_difference_error
from flowcf.data import MinMaxScaler, make_moons
from flowcf.flows import MadeTransform, MaskedAutoregressiveFlow, load_flow
from flowcf.models import TrainConfig


@pytest.fixture(scope="module")
def moons_scaled():
    data = make_moons(n=600, seed=0)
    sc = MinMaxScaler().fit(data.features)
    return sc.transform(data.features), data.labels


@pytest.fixture(scope="module")
def trained_flow(moons_scaled):
    X, y = moons_scaled
    cfg = TrainConfig(seed=0, epochs=60, batch_size=128)
    return MaskedAutoregressiveFlow(
        n_transforms=2, hidden=32, train_config=cfg
    ).fit(X, y)


def test_untrained_flow_is_standard_normal():
    # zeroed output heads make every transform the identity, so the
    # initial density must equal the base distribution exactly
    flow = MaskedAutoregressiveFlow(n_transforms=3, hidden=16)
    flow._build(d=2, n_classes=2, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    X = rng.normal(size=(50, 2))
    y = rng.integers(0, 2, 50)
    expected = -0.5 * (X**2).sum(axis=1) - np.log(2 * np.pi)
    assert np.allclose(flow.score_samples(X, y), expected, atol=1e-12)


def test_round_trip_invertibility(trained_flow, moons_scaled):
    X, y = moons_scaled
    z, logdet_inv = trained_flow.inverse(X[:100], y[:100])
    X_back, _ = trained_flow.forward(z, y[:100])
    assert np.allclose(X_back, X[:100], atol=1e-5)


def test_forward_inverse_log_det_cancel(trained_flow, moons_scaled):
    X, y = moons_scaled
    z, logdet_inv = trained_flow.inverse(X[:50], y[:50])
    _, logdet_fwd = trained_flow.forward(z, y[:50])
    assert np.allclose(logdet_inv + logdet_fwd, 0.0, atol=1e-8)


def test_graph_and_numpy_densities_agree(trained_flow, moons_scaled):
    X, y = moons_scaled
    graph = trained_flow.log_prob_tensor(Tensor(X[:50]), y[:50]).data
    assert np.allclose(graph, trained_flow.score_samples(X[:50], y[:50]), atol=1e-12)


def test_log_prob_input_gradient_matches_finite_differences(
    trained_flow, moons_scaled
):
    X, y = moons_scaled

    def f(xt):
        from flowcf import autodiff as ad

        return ad.tsum(trained_flow.log_prob_tensor(xt, y[:10]))

    assert finite_difference_check(f, X[:10]) < 1e-4


def test_log_prob_and_input_grad_matches_finite_differences(
    trained_flow, moons_scaled
):
    X, y = moons_scaled
    logp, grad = trained_flow.log_prob_and_input_grad(X[:10], y[:10])
    assert np.array_equal(logp, trained_flow.score_samples(X[:10], y[:10]))
    err = finite_difference_error(
        lambda x: float(trained_flow.score_samples(x, y[:10]).sum()), grad, X[:10]
    )
    assert err < 1e-4


def test_single_transform_is_triangular():
    # coordinate with degree k may depend only on strictly lower degrees,
    # so the Jacobian of z w.r.t. x is triangular in degree order
    d = 4
    rng = np.random.default_rng(0)
    tr = MadeTransform(d, 2, 16, np.arange(1, d + 1), rng)
    for p in tr.params[4:]:  # un-zero the heads to expose dependencies
        p[...] = rng.normal(0.0, 0.3, size=p.shape)
    ctx = np.eye(2)[[1]]
    x0 = rng.normal(size=(1, d))
    step = 1e-6
    jac = np.zeros((d, d))
    for j in range(d):
        hi, lo = x0.copy(), x0.copy()
        hi[0, j] += step
        lo[0, j] -= step
        z_hi, _, _ = tr.inverse_and_vjp(hi, ctx)
        z_lo, _, _ = tr.inverse_and_vjp(lo, ctx)
        jac[:, j] = (z_hi[0] - z_lo[0]) / (2 * step)
    for i in range(d):
        for j in range(d):
            if tr.degrees[j] > tr.degrees[i]:
                assert abs(jac[i, j]) < 1e-8
            if i == j:
                assert abs(jac[i, j]) > 1e-12  # scaling of own coordinate


def test_two_transforms_couple_all_coordinates():
    # reversed orderings between transforms let every output depend on
    # every input once the heads are non-zero
    d = 3
    rng = np.random.default_rng(1)
    flow = MaskedAutoregressiveFlow(n_transforms=2, hidden=16)
    flow._build(d, 2, rng)
    for tr in flow.transforms_:
        for p in tr.params[4:]:
            p[...] = rng.normal(0.0, 0.3, size=p.shape)
    y = np.array([0])
    x0 = rng.normal(size=(1, d))
    step = 1e-6
    for j in range(d):
        hi, lo = x0.copy(), x0.copy()
        hi[0, j] += step
        lo[0, j] -= step
        diff = np.abs(
            flow.inverse(hi, y)[0][0] - flow.inverse(lo, y)[0][0]
        ) / (2 * step)
        assert np.all(diff > 1e-10)


def test_class_conditioning_changes_density(trained_flow, moons_scaled):
    X, _ = moons_scaled
    lp0 = trained_flow.score_samples(X[:50], np.zeros(50, dtype=int))
    lp1 = trained_flow.score_samples(X[:50], np.ones(50, dtype=int))
    assert not np.allclose(lp0, lp1)


def test_density_integrates_to_one_per_class(trained_flow):
    ticks = np.linspace(-0.5, 1.5, 201)
    cell = (ticks[1] - ticks[0]) ** 2
    gx, gy = np.meshgrid(ticks, ticks)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    for cls in (0, 1):
        lp = trained_flow.score_samples(grid, np.full(len(grid), cls))
        mass = np.exp(lp).sum() * cell
        assert 0.98 <= mass <= 1.02, f"class {cls} mass {mass}"


def test_samples_land_in_high_density_region(trained_flow, moons_scaled):
    X, y = moons_scaled
    draws = trained_flow.sample(np.int64(0), n_samples=200, seed=3)
    lp = trained_flow.score_samples(draws, np.zeros(200, dtype=int))
    data_lp = trained_flow.score_samples(X[y == 0], np.zeros((y == 0).sum(), dtype=int))
    assert np.median(lp) > np.median(data_lp) - 1.0


def test_seed_determinism(moons_scaled):
    X, y = moons_scaled
    cfg = TrainConfig(seed=4, epochs=5)
    a = MaskedAutoregressiveFlow(n_transforms=1, hidden=16, train_config=cfg).fit(X, y)
    b = MaskedAutoregressiveFlow(n_transforms=1, hidden=16, train_config=cfg).fit(X, y)
    assert np.array_equal(a.score_samples(X, y), b.score_samples(X, y))


def test_json_round_trip(tmp_path, trained_flow, moons_scaled):
    X, y = moons_scaled
    path = tmp_path / "flow.json"
    trained_flow.save(path)
    loaded = load_flow(path)
    assert loaded.jitter == trained_flow.jitter
    assert np.allclose(
        loaded.score_samples(X[:50], y[:50]),
        trained_flow.score_samples(X[:50], y[:50]),
        atol=1e-12,
    )


def test_persisted_flow_omits_derivable_masks(tmp_path, trained_flow, moons_scaled):
    # masks and degrees follow from d, n_classes, hidden and the transform index
    X, y = moons_scaled
    payload = trained_flow.to_dict()
    assert all(set(t) == {"params"} for t in payload["transforms"])
    path = tmp_path / "flow.json"
    trained_flow.save(path)
    expected = trained_flow.score_samples(X, y)
    assert np.array_equal(load_flow(path).score_samples(X, y), expected)

    # files written before masks and degrees were dropped still load
    for t, tr in zip(payload["transforms"], trained_flow.transforms_):
        t["degrees"] = tr.degrees.tolist()
        t["masks"] = [m.tolist() for m in tr.masks]
    path.write_text(json.dumps(payload))
    assert np.array_equal(load_flow(path).score_samples(X, y), expected)


def test_rejects_out_of_range_labels(trained_flow, moons_scaled):
    X, _ = moons_scaled
    with pytest.raises(ValueError):
        trained_flow.score_samples(X[:5], np.full(5, 7))


def test_rejects_undersized_class():
    X = np.random.default_rng(0).normal(size=(10, 2))
    y = np.array([0] * 9 + [1])
    with pytest.raises(ValueError):
        MaskedAutoregressiveFlow(n_transforms=1).fit(X, y)


def test_sample_requires_count_for_scalar_label(trained_flow):
    with pytest.raises(ValueError):
        trained_flow.sample(np.int64(0))
