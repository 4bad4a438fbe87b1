"""The input contract of every public entry point, as one table.

Each bad call must raise ``ValueError``; a wrong feature width raises
``DimensionError``, which is one. Labels are 1-d integer class indices, one
per row and in range; ``fit`` also takes integer-valued floats and needs
every class present. Each valid call in the table must give exactly what the
same call gives with canonical inputs (int64 label arrays, float64 rows).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from flowcf import (
    CfConfig,
    CfResult,
    Dataset,
    DimensionError,
    GaussianMixtureDensity,
    IsolationForest,
    KernelDensity,
    LocalOutlierFactor,
    LogisticRegression,
    MaskedAutoregressiveFlow,
    MinMaxScaler,
    TrainConfig,
    compute_delta,
    evaluate,
    generate,
    make_blobs,
    make_moons,
    wachter_generate,
)

TRAIN = TrainConfig(seed=0, epochs=3)


@pytest.fixture(scope="module")
def m():
    """Every fitted estimator on two well-separated 2-d classes."""
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0.0, 0.3, (40, 2)), rng.normal(2.0, 0.3, (40, 2))])
    y = np.repeat(np.arange(2), 40)
    flow = MaskedAutoregressiveFlow(n_transforms=1, hidden=8, train_config=TRAIN)
    flow.fit(X, y)
    clf = LogisticRegression(train_config=TRAIN).fit(X, y)
    lof = LocalOutlierFactor(n_neighbors=5).fit(X)
    forest = IsolationForest(n_trees=10).fit(X)
    return SimpleNamespace(
        X=X, y=y, q=X[[0, 41, 1]], clf=clf, flow=flow, lof=lof, forest=forest,
        delta=compute_delta(flow, X, y), scaler=MinMaxScaler().fit(X),
        kde=KernelDensity().fit(X, y), gmm=GaussianMixtureDensity().fit(X, y),
        cfg=CfConfig(max_iters=5),
    )


def _results(m, n):
    return [CfResult(x_cf=m.q[i], target=1, covered=True, iterations_used=1,
                     wall_time_secs=0.0) for i in range(n)]


def _evaluate(m, x0):
    return evaluate(_results(m, 3), m.clf, m.flow, m.delta, x0,
                    (m.lof, m.forest), wall_time_secs=0.0)


BAD = {
    # labels that are fractional, 2-d, out of range or one short, a class
    # missing in fit, and a batch one row short
    "flow-score-float-labels": lambda m: m.flow.score_samples(m.q, [0.7, 0.2, 1.9]),
    "flow-score-2d-labels": lambda m: m.flow.score_samples(m.q, [[0], [1], [0]]),
    "flow-forward-float-labels": lambda m: m.flow.forward(m.q, [0.0, 1.0, 0.5]),
    "flow-sample-float-label": lambda m: m.flow.sample([0.5]),
    "kde-score-label-5": lambda m: m.kde.score_samples(m.q, [0, 1, 5]),
    "kde-score-labels-one-short": lambda m: m.kde.score_samples(m.q, [0, 1]),
    "gmm-score-label-5": lambda m: m.gmm.score_samples(m.q, [0, 1, 5]),
    "gmm-score-label-minus-1": lambda m: m.gmm.score_samples(m.q, [0, 1, -1]),
    "evaluate-x0-one-row-short": lambda m: _evaluate(m, m.q[:2]),
    "dataset-label-5": lambda m: Dataset(np.zeros((3, 2)), [0, 1, 5], n_classes=2),
    "dataset-float-labels": lambda m: Dataset(np.zeros((3, 2)), [0.5, 1.0, 0.0], 2),
    "flow-fit-missing-class": lambda m: MaskedAutoregressiveFlow(
        n_transforms=1, hidden=8, train_config=TRAIN).fit(m.X, 2 * m.y),
    "flow-score-label-out-of-range": lambda m: m.flow.score_samples(m.q, [0, 1, 2]),
    "flow-score-labels-one-short": lambda m: m.flow.score_samples(m.q, [0, 1]),
    "flow-log-prob-float-labels": lambda m: m.flow.log_prob_and_input_grad(
        m.q, [0.5, 1.0, 0.0]),
    "clf-fit-missing-class": lambda m: LogisticRegression().fit(m.X, 2 * m.y),
    "clf-fit-fractional-labels": lambda m: LogisticRegression().fit(m.X, m.y + 0.5),
    "clf-score-label-out-of-range": lambda m: m.clf.score(m.q, [0, 1, 2]),
    "kde-fit-negative-label": lambda m: KernelDensity().fit(m.X, m.y - 1),
    "gmm-fit-missing-class": lambda m: GaussianMixtureDensity().fit(m.X, 2 * m.y),
    "delta-for-labels-out-of-range": lambda m: m.delta.for_labels([0, 2]),
    "delta-for-float-labels": lambda m: m.delta.for_labels([0.0, 1.0]),
    "compute-delta-labels-one-short": lambda m: compute_delta(m.flow, m.X, m.y[1:]),
    "generate-float-targets": lambda m: generate(
        m.q, [1.0, 0.0, 1.0], m.clf, m.flow, m.delta, m.cfg),
    "generate-targets-one-short": lambda m: generate(
        m.q, [1, 0], m.clf, m.flow, m.delta, m.cfg),
    "wachter-target-out-of-range": lambda m: wachter_generate(
        m.q, [1, 0, 2], m.clf, m.cfg),
    "dataset-labels-one-short": lambda m: Dataset(np.zeros((3, 2)), [0, 1], 2),
    # constructor settings
    "isoforest-n-trees-0": lambda m: IsolationForest(n_trees=0),
    "isoforest-subsample-1": lambda m: IsolationForest(subsample=1),
    "lof-n-neighbors-2.5": lambda m: LocalOutlierFactor(n_neighbors=2.5),
    "gmm-n-components-0": lambda m: GaussianMixtureDensity(n_components=0),
    "gmm-max-iter-0": lambda m: GaussianMixtureDensity(max_iter=0),
    "gmm-tol-negative": lambda m: GaussianMixtureDensity(tol=-1.0),
    "kde-bandwidth-0": lambda m: KernelDensity(bandwidth=0.0),
    # dataset generators
    "moons-noise-negative": lambda m: make_moons(noise=-0.3),
    "moons-noise-nan": lambda m: make_moons(noise=float("nan")),
    "moons-n-2.5": lambda m: make_moons(n=2.5),
    "blobs-centers-2.5": lambda m: make_blobs(centers=2.5),
    "blobs-n-0": lambda m: make_blobs(n=0),
    "blobs-n-2.5": lambda m: make_blobs(n=2.5),
}

WRONG_WIDTH = {
    "isoforest-score": lambda m, Z: m.forest.score_samples(Z),
    "lof-score": lambda m, Z: m.lof.score_samples(Z),
    "kde-score": lambda m, Z: m.kde.score_samples(Z, [0, 1, 0]),
    "gmm-score": lambda m, Z: m.gmm.score_samples(Z, [0, 1, 0]),
    "flow-score": lambda m, Z: m.flow.score_samples(Z, [0, 1, 0]),
    "flow-inverse": lambda m, Z: m.flow.inverse(Z, [0, 1, 0]),
    "flow-forward": lambda m, Z: m.flow.forward(Z, [0, 1, 0]),
    "clf-predict": lambda m, Z: m.clf.predict(Z),
    "clf-score": lambda m, Z: m.clf.score(Z, [0, 1, 0]),
    "scaler-transform": lambda m, Z: m.scaler.transform(Z),
    "scaler-inverse": lambda m, Z: m.scaler.inverse_transform(Z),
    "generate": lambda m, Z: generate(Z, [1, 0, 1], m.clf, m.flow, m.delta, m.cfg),
    "wachter": lambda m, Z: wachter_generate(Z, [1, 0, 1], m.clf, m.cfg),
    "evaluate": _evaluate,
}


@pytest.mark.parametrize("call", BAD.values(), ids=BAD.keys())
def test_bad_input_raises_value_error(m, call):
    with pytest.raises(ValueError):
        call(m)


@pytest.mark.parametrize("call", WRONG_WIDTH.values(), ids=WRONG_WIDTH.keys())
def test_wrong_width_raises_dimension_error(m, call):
    with pytest.raises(DimensionError):
        call(m, np.zeros((3, 3)))


def _fit_params(est):
    return [p.copy() for p in est._params]


def _cfs(results):
    return np.stack([r.x_cf for r in results])


I32 = np.array([0, 1, 0], dtype=np.int32)
I64 = I32.astype(np.int64)

# (valid call, the same call with canonical inputs)
VALID = {
    "flow-score-list-labels": (
        lambda m: m.flow.score_samples(m.q.tolist(), [0, 1, 0]),
        lambda m: m.flow.score_samples(m.q, I64)),
    "flow-score-int32-labels": (
        lambda m: m.flow.score_samples(m.q, I32),
        lambda m: m.flow.score_samples(m.q, I64)),
    "flow-sample-scalar-label": (
        lambda m: m.flow.sample(1, n_samples=3),
        lambda m: m.flow.sample(np.ones(3, dtype=np.int64))),
    "flow-forward-int32-labels": (
        lambda m: m.flow.forward(m.q, I32)[0],
        lambda m: m.flow.forward(m.q, I64)[0]),
    "kde-score-list-labels": (
        lambda m: m.kde.score_samples(m.q, [0, 1, 0]),
        lambda m: m.kde.score_samples(m.q, I64)),
    "gmm-score-int32-labels": (
        lambda m: m.gmm.score_samples(m.q, I32),
        lambda m: m.gmm.score_samples(m.q, I64)),
    "clf-fit-integral-float-labels": (
        lambda m: _fit_params(LogisticRegression(train_config=TRAIN).fit(
            m.X, m.y.astype(float))),
        lambda m: _fit_params(m.clf)),
    "kde-fit-integral-float-labels": (
        lambda m: KernelDensity().fit(m.X, m.y.astype(float)).score_samples(m.q, I64),
        lambda m: m.kde.score_samples(m.q, I64)),
    "clf-score-list-labels": (
        lambda m: m.clf.score(m.q, [0, 1, 0]),
        lambda m: m.clf.score(m.q, I64)),
    "delta-for-list-labels": (
        lambda m: m.delta.for_labels([1, 0]),
        lambda m: m.delta.log_delta[[1, 0]]),
    "dataset-list-labels": (
        lambda m: Dataset(m.q.tolist(), [0, 1, 0], n_classes=2).labels,
        lambda m: I64),
    "generate-list-targets": (
        lambda m: _cfs(generate(m.q, [1, 0, 1], m.clf, m.flow, m.delta, m.cfg)),
        lambda m: _cfs(generate(m.q, 1 - I64, m.clf, m.flow, m.delta, m.cfg))),
    "evaluate-list-x0": (
        lambda m: _evaluate(m, m.q.tolist())[1],
        lambda m: _evaluate(m, m.q)[1]),
}


@pytest.mark.parametrize("pair", VALID.values(), ids=VALID.keys())
def test_valid_input_matches_canonical_call(m, pair):
    call, canonical = pair
    got, expected = call(m), canonical(m)
    if isinstance(got, list):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)
    else:
        assert np.array_equal(got, expected)
