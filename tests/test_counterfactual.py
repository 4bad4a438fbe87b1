"""Counterfactual objective pieces and the batch search loop."""

import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flowcf import autodiff as ad
from flowcf.autodiff import DimensionError, Tensor
from flowcf.counterfactual import (
    CfConfig,
    DensityThreshold,
    _plausible_objective,
    _search,
    _validity_and_grad,
    _wachter_objective,
    compute_delta,
    distance,
    generate,
    plausibility_loss,
    validity_loss_binary,
    validity_loss_multiclass,
    wachter_generate,
)
from flowcf.data import MinMaxScaler, make_blobs, make_moons, stratified_kfold
from flowcf.flows import LOG_SCALE_BOUND, MaskedAutoregressiveFlow, load_flow
from flowcf.models import (
    LogisticRegression,
    MlpClassifier,
    TrainConfig,
    load_classifier,
)
from flowcf.pipeline import (
    TRAJECTORY_EVERY,
    RunConfig,
    export_trajectory,
    run_experiment,
    select_targets,
)


# fixtures -----------------------------------------------------------------


@pytest.fixture(scope="module")
def setup():
    data = make_moons(n=400, seed=0)
    sc = MinMaxScaler().fit(data.features)
    X, y = sc.transform(data.features), data.labels
    clf = LogisticRegression(train_config=TrainConfig(seed=0, epochs=120)).fit(X, y)
    flow = MaskedAutoregressiveFlow(
        n_transforms=1, hidden=32, train_config=TrainConfig(seed=0, epochs=60)
    ).fit(X, y)
    delta = compute_delta(flow, X, y)
    return X, y, clf, flow, delta


# hinge losses -------------------------------------------------------------


def test_binary_validity_hinge_values():
    probs = Tensor(np.array([[0.30, 0.70], [0.49, 0.51], [0.60, 0.40]]))
    out = validity_loss_binary(probs, np.array([1, 1, 1]), epsilon=0.01).data
    assert np.allclose(out, [0.0, 0.0, 0.11])
    out0 = validity_loss_binary(probs, np.array([0, 0, 0]), epsilon=0.01).data
    assert np.allclose(out0, [0.21, 0.02, 0.0])


def test_multiclass_validity_hinge_values():
    probs = Tensor(np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]))
    out = validity_loss_multiclass(probs, np.array([0, 2]), epsilon=0.05).data
    # row 0: rival 0.3, 0.3 + 0.05 - 0.5 < 0 -> 0; row 1: 0.5 + 0.05 - 0.3
    assert np.allclose(out, [0.0, 0.25])


@settings(max_examples=50, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(1e-4, 0.2))
def test_binary_and_multiclass_hinges_share_zero_set(p1, eps):
    # with two classes the rival is 1 - p_t, so the multiclass hinge with
    # threshold eps vanishes exactly when the binary hinge with eps/2 does
    probs = Tensor(np.array([[1.0 - p1, p1]]))
    multi = validity_loss_multiclass(probs, np.array([1]), epsilon=eps).data[0]
    binary = validity_loss_binary(probs, np.array([1]), epsilon=eps / 2).data[0]
    assert (multi == 0.0) == (binary == 0.0)
    assert np.isclose(multi, 2.0 * binary, atol=1e-12)


def test_fused_hinge_rival_is_never_the_target():
    # every rival probability underflowed to 0: the rival is 0, not p(target)
    probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    targets = np.array([0, 2, 0])
    fused, _, _ = _validity_and_grad(probs, targets, "hinge", 0.05)
    tape = validity_loss_multiclass(Tensor(probs), targets, epsilon=0.05).data
    assert np.array_equal(fused, tape)
    assert np.array_equal(fused, [0.0, 0.0, 1.05])


@pytest.mark.parametrize("n_classes", [2, 3, 5])
def test_margin_mask_matches_direct_comparison(n_classes):
    # the search's feasibility mask is margin <= 0; it must agree exactly with
    # comparing p(target) against the threshold, including ties, zero
    # probabilities and rows that sit exactly on the boundary
    rng = np.random.default_rng(n_classes)
    eps = 1e-3
    logits = rng.normal(0.0, 3.0, size=(4000, n_classes))
    logits[:500] = np.round(logits[:500])  # ties between classes
    logits[500:800, 1:] = -800.0  # rival probabilities underflow to 0
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    targets = rng.integers(0, n_classes, len(probs))
    rows = np.arange(len(probs))
    if n_classes == 2:
        threshold = np.full(len(probs), 0.5 + eps)
    else:
        others = np.where(np.eye(n_classes)[targets] > 0, -np.inf, probs)
        threshold = others.max(axis=1) + eps
    on_edge = rows[800:1200]
    probs[on_edge, targets[on_edge]] = threshold[on_edge]
    _, _, margin = _validity_and_grad(probs, targets, "hinge", eps)
    assert np.array_equal(margin <= 0.0, probs[rows, targets] >= threshold)
    assert np.all(margin[on_edge] <= 0.0)


def test_plausibility_hinge():
    logp = Tensor(np.array([1.0, -2.0]))
    out = plausibility_loss(logp, np.array([0.5, 0.5])).data
    assert np.allclose(out, [0.0, 2.5])


# distance ------------------------------------------------------------------


def test_distance_three_four_five():
    a = Tensor(np.array([[0.0, 0.0]]))
    b = Tensor(np.array([[3.0, 4.0]]))
    assert np.isclose(distance(a, b, "l2").data[0], 5.0, atol=1e-6)
    assert np.isclose(distance(a, b, "l1").data[0], 7.0, atol=1e-12)


def test_distance_shape_mismatch():
    with pytest.raises(DimensionError):
        distance(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
    st.lists(st.floats(-5, 5), min_size=2, max_size=6),
)
def test_l1_l2_norm_inequalities(u, v):
    d = min(len(u), len(v))
    a = Tensor(np.array([u[:d]]))
    b = Tensor(np.array([v[:d]]))
    l1 = distance(a, b, "l1").data[0]
    l2 = distance(a, b, "l2").data[0]
    assert l2 <= l1 + 1e-6
    assert l1 <= np.sqrt(d) * l2 + 1e-6


# density threshold ---------------------------------------------------------


def _identity_flow(d=2, n_classes=2):
    flow = MaskedAutoregressiveFlow(n_transforms=1, hidden=8)
    flow._build(d, n_classes, np.random.default_rng(0))
    return flow


def test_compute_delta_matches_median_oracle():
    # an untrained flow is the standard normal, so the threshold must be
    # the plain numpy median of the known log-densities, odd or even counts
    rng = np.random.default_rng(0)
    flow = _identity_flow()
    for n0, n1 in [(5, 6), (7, 7)]:
        X = rng.normal(size=(n0 + n1, 2))
        y = np.array([0] * n0 + [1] * n1)
        lp = -0.5 * (X**2).sum(axis=1) - np.log(2 * np.pi)
        delta = compute_delta(flow, X, y)
        assert np.isclose(delta.log_delta[0], np.median(lp[:n0]), atol=1e-12)
        assert np.isclose(delta.log_delta[1], np.median(lp[n0:]), atol=1e-12)


def test_half_of_training_data_meets_threshold(setup):
    X, y, _, flow, delta = setup
    lp = flow.score_samples(X, y)
    frac = np.mean(lp >= delta.for_labels(y))
    assert 0.45 <= frac <= 0.55


def test_threshold_label_lookup():
    th = DensityThreshold(log_delta=np.array([1.5, -2.0, 0.25]))
    assert np.array_equal(th.for_labels([2, 0, 1, 1]), [0.25, 1.5, -2.0, -2.0])


@settings(max_examples=60, deadline=None)
@given(
    n_classes=st.integers(2, 3),
    labels=st.lists(st.integers(-1, 3), min_size=1, max_size=10),
    extra_rows=st.integers(-1, 1),
)
@example(n_classes=2, labels=[-1, 0, 1], extra_rows=0)
@example(n_classes=2, labels=[0, 1, 2], extra_rows=0)
@example(n_classes=2, labels=[0, 1, 0], extra_rows=-1)
def test_bad_labels_raise_value_error(n_classes, labels, extra_rows):
    y = np.array(labels)
    in_range = bool(np.all((y >= 0) & (y < n_classes)))
    th = DensityThreshold(log_delta=np.arange(n_classes, dtype=np.float64))
    if in_range:
        assert np.array_equal(th.for_labels(y), y)
    else:
        with pytest.raises(ValueError):
            th.for_labels(y)
    X = np.random.default_rng(0).normal(size=(max(len(y) + extra_rows, 1), 2))
    flow = _identity_flow(n_classes=n_classes)
    every_class = set(labels) == set(range(n_classes))
    if len(X) == len(y) and every_class:
        assert compute_delta(flow, X, y).log_delta.shape == (n_classes,)
    else:
        with pytest.raises(ValueError):
            compute_delta(flow, X, y)


# config validation ---------------------------------------------------------


def test_cf_config_validation():
    with pytest.raises(ValueError):
        CfConfig(lam=0.0)
    with pytest.raises(ValueError):
        CfConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        CfConfig(distance_kind="linf")
    with pytest.raises(ValueError):
        CfConfig(validity_loss="focal")


# search behavior -----------------------------------------------------------


def _feasible_starts(setup, n=6):
    """Training points already valid and plausible for their own class."""
    X, y, clf, flow, delta = setup
    probs = clf.predict_proba(X)
    p_own = probs[np.arange(len(X)), y]
    lp = flow.score_samples(X, y)
    ok = (p_own >= 0.5 + 0.01) & (lp >= delta.for_labels(y) + 0.1)
    idx = np.flatnonzero(ok)[:n]
    return X[idx], y[idx]


def test_already_feasible_point_is_a_fixed_point(setup):
    X, y, clf, flow, delta = setup
    x0, targets = _feasible_starts(setup)
    assert len(x0) > 0
    res = generate(x0, targets, clf, flow, delta, CfConfig(epsilon=1e-3))
    for r, orig in zip(res, x0):
        assert r.covered
        assert np.allclose(r.x_cf, orig, atol=1e-9)
        assert r.iterations_used <= 3


def test_generated_counterfactuals_flip_class_and_stay_dense(setup):
    X, y, clf, flow, delta = setup
    x0 = X[:16]
    targets = 1 - y[:16]
    cfg = CfConfig(max_iters=2000)
    res = generate(x0, targets, clf, flow, delta, cfg)
    xcf = np.array([r.x_cf for r in res])
    assert all(r.covered for r in res)
    assert np.array_equal(clf.predict(xcf), targets)
    lp = flow.score_samples(xcf, targets)
    assert np.all(lp >= delta.for_labels(targets) - 1e-6)


def test_batch_matches_sequential(setup):
    X, y, clf, flow, delta = setup
    x0 = X[:8]
    targets = 1 - y[:8]
    cfg = CfConfig(max_iters=400)
    batch = generate(x0, targets, clf, flow, delta, cfg)
    for i in range(8):
        single = generate(x0[i : i + 1], targets[i : i + 1], clf, flow, delta, cfg)
        assert np.allclose(single[0].x_cf, batch[i].x_cf, atol=1e-6)


def test_frozen_models_give_bit_identical_repeats(setup):
    X, y, clf, flow, delta = setup
    x0 = X[:5]
    targets = 1 - y[:5]
    cfg = CfConfig(max_iters=300)
    a = generate(x0, targets, clf, flow, delta, cfg)
    b = generate(x0, targets, clf, flow, delta, cfg)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.x_cf, rb.x_cf)
        assert ra.iterations_used == rb.iterations_used


def _saved_run(run_dir, method, max_iters):
    """A tiny one-fold run of ``method``, persisted under ``run_dir``."""
    run_experiment(RunConfig(
        dataset={"name": "moons", "n": 160},
        classifier={"arch": "lr", "epochs": 60},
        flow={"n_transforms": 1, "hidden": 16, "epochs": 30},
        cf={"max_iters": max_iters},
        method=method, k_folds=1, seed=0, out=str(run_dir),
    ))
    with open(run_dir / "fold_0" / "cfs.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _exported_path(run_dir, instance):
    """The (steps, points) that export_trajectory writes for one instance."""
    paths = export_trajectory(run_dir, instance, grid_resolution=2)
    with open(paths["trajectory"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    steps = np.array([int(r["iteration"]) for r in rows])
    points = np.array([[float(r["dim_0"]), float(r["dim_1"])] for r in rows])
    return steps, points


def _columns(row, prefix):
    return np.array([float(row[f"{prefix}_x{j}"]) for j in range(2)])


def test_trajectory_endpoints(tmp_path):
    # a multiple of TRAJECTORY_EVERY, so a row at the cap stops on an
    # export step
    cfg = CfConfig(max_iters=4 * TRAJECTORY_EVERY)
    stored = _saved_run(tmp_path, "plausible", cfg.max_iters)
    fold = tmp_path / "fold_0"
    clf = load_classifier(fold / "classifier.json")
    flow = load_flow(fold / "flow.json")
    with open(fold / "delta.json") as fh:
        delta = DensityThreshold(np.asarray(json.load(fh)["log_delta"]))
    for i, row in enumerate(stored[:8]):
        steps, points = _exported_path(tmp_path, i)
        x0 = _columns(row, "x0")
        r = generate(x0[None, :], [int(row["target"])], clf, flow, delta, cfg)[0]
        assert steps[0] == 0 and np.array_equal(points[0], x0)
        # every row of this run stops at the cap, where the answer of
        # record may be an earlier feasible iterate
        assert steps[-1] == r.iterations_used == cfg.max_iters
        assert np.array_equal(points[-1], r.x_cf)
        assert np.all(np.diff(steps) > 0)
        assert np.all(steps[:-1] % TRAJECTORY_EVERY == 0)


def test_wachter_export_ends_at_the_stored_counterfactual(tmp_path):
    max_iters = 20 * TRAJECTORY_EVERY
    stored = _saved_run(tmp_path, "wachter", max_iters)
    at_cap = set()
    for i, row in enumerate(stored[:8]):
        steps, points = _exported_path(tmp_path, i)
        assert steps[0] == 0 and np.array_equal(points[0], _columns(row, "x0"))
        assert np.allclose(points[-1], _columns(row, "cf"), rtol=0, atol=1e-9)
        assert np.all(np.diff(steps) > 0)
        at_cap.add(steps[-1] == max_iters)
    assert at_cap == {True, False}  # converged rows and rows at the cap


def test_cross_entropy_variant_reaches_validity(setup):
    X, y, clf, flow, delta = setup
    x0 = X[:8]
    targets = 1 - y[:8]
    cfg = CfConfig(max_iters=2000, validity_loss="cross_entropy")
    res = generate(x0, targets, clf, flow, delta, cfg)
    xcf = np.array([r.x_cf for r in res])
    assert np.array_equal(clf.predict(xcf), targets)


def test_cross_entropy_rows_stop_only_once_the_margin_holds():
    # a loose tolerance lets the objective settle early, so only the
    # feasibility mask keeps a row going until its margin holds
    data = make_blobs(n=300, seed=0)
    train_idx, test_idx = stratified_kfold(data, k=5, seed=0).train_test(0)
    sc = MinMaxScaler().fit(data.features[train_idx])
    X, y = sc.transform(data.features[train_idx]), data.labels[train_idx]
    x0 = sc.transform(data.features[test_idx])
    clf = LogisticRegression(train_config=TrainConfig(seed=0, epochs=60)).fit(X, y)
    flow = MaskedAutoregressiveFlow(
        n_transforms=1, hidden=16, train_config=TrainConfig(seed=0, epochs=30)
    ).fit(X, y)
    delta = compute_delta(flow, X, y)
    targets = select_targets(clf, x0)  # the runner-up: no row starts feasible
    cfg = CfConfig(
        validity_loss="cross_entropy", convergence_tol=1e-3, max_iters=2000
    )
    res = generate(x0, targets, clf, flow, delta, cfg)
    stopped = np.array([r.iterations_used < cfg.max_iters for r in res])
    assert stopped.sum() >= len(res) // 2
    xcf = np.array([r.x_cf for r in res])[stopped]
    t = targets[stopped]
    probs = clf.predict_proba(xcf)
    rows = np.arange(len(t))
    rival = np.where(np.eye(3)[t] > 0, -np.inf, probs).max(axis=1)
    assert np.all(probs[rows, t] >= rival + cfg.epsilon)


def test_wachter_flips_class_without_density_term(setup):
    X, y, clf, _, _ = setup
    x0 = X[:8]
    targets = 1 - y[:8]
    # a small distance weight lets the cross-entropy term pull every row
    # across the decision boundary before the plateau check fires
    res = wachter_generate(
        x0, targets, clf, CfConfig(max_iters=3000, c_reg=0.1)
    )
    xcf = np.array([r.x_cf for r in res])
    assert np.array_equal(clf.predict(xcf), targets)


@pytest.mark.parametrize("at_cap", [False, True], ids=["converged", "at-cap"])
def test_search_calls_the_objective_once_per_iteration(setup, at_cap):
    # a row that stops after k steps was evaluated at its k + 1 iterates;
    # a row at the cap was evaluated before each of its max_iters steps
    X, y, clf, flow, delta = setup
    if at_cap:
        x0, targets = X[:1], 1 - clf.predict(X[:1])
        cfg = CfConfig(max_iters=5)
    else:
        x0, targets = _feasible_starts(setup, n=1)
        cfg = CfConfig(max_iters=50)
    objective = _plausible_objective(x0, targets, clf, flow, delta, cfg)
    calls = []

    def counting(idx, x):
        calls.append(idx.size)
        return objective(idx, x)

    r = _search(x0, targets, counting, cfg)[0]
    assert r.covered
    if at_cap:
        assert r.iterations_used == cfg.max_iters == len(calls)
    else:
        assert r.iterations_used < cfg.max_iters
        assert len(calls) == r.iterations_used + 1


def test_search_leaves_frozen_models_untouched(setup):
    X, y, clf, flow, delta = setup
    tensors = clf._param_tensors + [
        t for tr in flow.transforms_ for t in tr.param_tensors
    ]
    arrays = clf._params + [p for tr in flow.transforms_ for p in tr.params]
    for t in tensors:
        t.zero_grad()  # other tests run the tape on these models
    before = [a.copy() for a in arrays]
    x0, targets = X[:6], 1 - y[:6]
    cfg = CfConfig(max_iters=200)
    for search in (
        lambda: generate(x0, targets, clf, flow, delta, cfg),
        lambda: wachter_generate(x0, targets, clf, cfg),
    ):
        search()
        assert all(t.grad is None for t in tensors)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


def test_non_finite_row_fails_alone(setup):
    _, _, clf, flow, delta = setup
    x0 = np.array([[0.2, 0.3], [0.8, 0.1], [1e160, -1e160]])
    targets = np.array([1, 0, 1])
    cfg = CfConfig(max_iters=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow stays inside the search
        batch = generate(x0, targets, clf, flow, delta, cfg)
    assert [r.covered for r in batch] == [True, True, False]
    assert batch[2].iterations_used == 1 and np.all(np.isnan(batch[2].x_cf))
    for i in range(2):
        single = generate(x0[i : i + 1], targets[i : i + 1], clf, flow, delta, cfg)
        assert np.allclose(single[0].x_cf, batch[i].x_cf, atol=1e-6)
        assert single[0].iterations_used == batch[i].iterations_used


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(0, 3),
    values=st.lists(st.integers(-2, 3), max_size=4),
    two_d=st.booleans(),
)
def test_targets_contract(setup, n_rows, values, two_d):
    X, _, clf, flow, delta = setup
    x0 = X[:n_rows]
    targets = np.array(values, dtype=np.int64)
    if two_d:
        targets = targets[:, None]
    valid = (
        not two_d
        and len(values) == n_rows
        and all(0 <= v < clf.n_classes_ for v in values)
    )
    cfg = CfConfig(max_iters=1)
    for search in (
        lambda: generate(x0, targets, clf, flow, delta, cfg),
        lambda: wachter_generate(x0, targets, clf, cfg),
    ):
        if valid:
            assert [r.target for r in search()] == values
        else:
            with pytest.raises(ValueError):
                search()


def test_targets_must_be_integers(setup):
    X, _, clf, flow, delta = setup
    with pytest.raises(ValueError):
        generate(X[:2], np.array([1.0, 0.0]), clf, flow, delta, CfConfig(max_iters=1))


# fused search gradient against the autodiff tape ---------------------------


def _random_models(arch, n_classes, n_transforms, seed):
    """Untrained models with random weights, so hinges, ReLUs and the
    log-scale clip take both branches across a batch."""
    rng = np.random.default_rng(seed)
    clf = LogisticRegression() if arch == "lr" else MlpClassifier(hidden=16)
    clf.n_features_, clf.n_classes_ = 2, n_classes
    clf._init_params(2, n_classes, rng)
    for p in clf._params:
        p[...] = rng.normal(0.0, 1.5, size=p.shape)
    flow = MaskedAutoregressiveFlow(n_transforms=n_transforms, hidden=16)
    flow._build(2, n_classes, rng)
    for tr in flow.transforms_:
        for p in tr.params:
            p[...] = rng.normal(0.0, 1.0, size=p.shape)
    return clf, flow


def _tape_objective(clf, flow, delta, x0, targets, cfg, wachter):
    def f(xt):
        probs = clf.predict_proba_tensor(xt)
        dist = distance(Tensor(x0), xt, cfg.distance_kind)
        onehot = Tensor(np.eye(clf.n_classes_)[targets])
        ce = -1.0 * ad.log(ad.tsum(probs * onehot, axis=1))
        if wachter:
            return ce + Tensor(cfg.c_reg) * dist
        if cfg.validity_loss == "cross_entropy":
            lv = ce
        elif clf.n_classes_ == 2:
            lv = validity_loss_binary(probs, targets, cfg.epsilon)
        else:
            lv = validity_loss_multiclass(probs, targets, cfg.epsilon)
        lp = plausibility_loss(
            flow.log_prob_tensor(xt, targets), delta.for_labels(targets)
        )
        return dist + Tensor(cfg.lam) * (lv + lp)

    return f


def _fused_against_tape(objective, tape_f, x):
    obj, grad, _ = objective(np.arange(x.shape[0]), x)
    xt = Tensor(x.copy(), requires_grad=True)
    tape_obj = tape_f(xt)
    ad.tsum(tape_obj).backward()
    obj_err = np.abs(obj - tape_obj.data) / np.abs(tape_obj.data)
    grad_err = np.linalg.norm(grad - xt.grad, axis=1) / np.linalg.norm(
        xt.grad, axis=1
    )
    return max(obj_err.max(), grad_err.max())


def _search_batch(clf, flow, n_classes, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-2.0, 3.0, size=(40, 2))
    x = x0 + rng.normal(0.0, 0.3, size=x0.shape)
    targets = rng.integers(0, n_classes, 40)
    # thresholds at the median density put half the rows on each side
    logp = flow.score_samples(x, targets)
    delta = DensityThreshold(np.full(n_classes, np.median(logp)))
    return x0, x, targets, delta


@pytest.mark.parametrize("n_transforms", [1, 2])
@pytest.mark.parametrize("distance_kind", ["l1", "l2"])
@pytest.mark.parametrize(
    "n_classes,validity_loss",
    [(2, "hinge"), (3, "hinge"), (3, "cross_entropy")],
)
@pytest.mark.parametrize("arch", ["lr", "mlp"])
def test_fused_objective_gradient_matches_tape(
    arch, n_classes, validity_loss, distance_kind, n_transforms
):
    clf, flow = _random_models(arch, n_classes, n_transforms, seed=n_transforms)
    x0, x, targets, delta = _search_batch(clf, flow, n_classes, seed=1)
    cfg = CfConfig(distance_kind=distance_kind, validity_loss=validity_loss)

    # the batch must exercise both sides of every kink in the objective
    ctx = np.eye(n_classes)[targets]
    tr = flow.transforms_[0]
    _, log_scale, _ = tr._shift_log_scale_np(x, ctx)
    assert np.any(np.abs(log_scale) == LOG_SCALE_BOUND)
    assert np.any(np.abs(log_scale) < LOG_SCALE_BOUND)
    pre1 = np.concatenate([x, ctx], axis=1) @ (tr.params[0] * tr.masks[0])
    assert np.any(pre1 + tr.params[1] > 0) and np.any(pre1 + tr.params[1] < 0)
    # the hinges at x0, from the pieces the objective is built from
    probs, _ = clf.proba_and_input_vjp(x0)
    val, _, _ = _validity_and_grad(probs, targets, validity_loss, cfg.epsilon)
    logp, _ = flow.log_prob_and_input_grad(x0, targets)
    plaus = np.maximum(delta.for_labels(targets) - logp, 0.0)
    if validity_loss == "hinge":
        assert np.any(val > 0) and np.any(val == 0)
    assert np.any(plaus > 0) and np.any(plaus == 0)

    objective = _plausible_objective(x0, targets, clf, flow, delta, cfg)
    tape_f = _tape_objective(clf, flow, delta, x0, targets, cfg, wachter=False)
    assert _fused_against_tape(objective, tape_f, x) <= 1e-10


@pytest.mark.parametrize("distance_kind", ["l1", "l2"])
@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("arch", ["lr", "mlp"])
def test_fused_wachter_gradient_matches_tape(arch, n_classes, distance_kind):
    clf, flow = _random_models(arch, n_classes, 1, seed=0)
    x0, x, targets, delta = _search_batch(clf, flow, n_classes, seed=2)
    cfg = CfConfig(distance_kind=distance_kind, c_reg=0.5)
    objective = _wachter_objective(x0, targets, clf, cfg)
    tape_f = _tape_objective(clf, flow, delta, x0, targets, cfg, wachter=True)
    assert _fused_against_tape(objective, tape_f, x) <= 1e-10
