"""Classifier training, gradient correctness, and persistence."""

import numpy as np
import pytest

from flowcf import autodiff as ad
from flowcf.autodiff import (
    DimensionError,
    Tensor,
    finite_difference_check,
    finite_difference_error,
)
from flowcf.data import MinMaxScaler, make_blobs, make_moons, stratified_kfold
from flowcf.models import (
    LogisticRegression,
    MlpClassifier,
    TrainConfig,
    load_classifier,
)


@pytest.fixture(scope="module")
def moons_split():
    data = make_moons(seed=0)
    plan = stratified_kfold(data, k=5, seed=0)
    tr, te = plan.train_test(0)
    sc = MinMaxScaler().fit(data.features[tr])
    return (
        sc.transform(data.features[tr]), data.labels[tr],
        sc.transform(data.features[te]), data.labels[te],
    )


@pytest.fixture(scope="module")
def moons_lr(moons_split):
    Xtr, ytr, _, _ = moons_split
    return LogisticRegression(train_config=TrainConfig(seed=0)).fit(Xtr, ytr)


def test_logreg_moons_accuracy(moons_split, moons_lr):
    _, _, Xte, yte = moons_split
    acc = moons_lr.score(Xte, yte)
    assert 0.80 <= acc <= 0.90


def test_logreg_blobs_accuracy():
    data = make_blobs(seed=0)
    plan = stratified_kfold(data, k=5, seed=0)
    tr, te = plan.train_test(0)
    sc = MinMaxScaler().fit(data.features[tr])
    clf = LogisticRegression(train_config=TrainConfig(seed=0)).fit(
        sc.transform(data.features[tr]), data.labels[tr]
    )
    acc = clf.score(sc.transform(data.features[te]), data.labels[te])
    assert acc >= 0.99


def test_mlp_beats_linear_on_moons(moons_split, moons_lr):
    Xtr, ytr, Xte, yte = moons_split
    mlp = MlpClassifier(hidden=32, train_config=TrainConfig(seed=0)).fit(Xtr, ytr)
    assert mlp.score(Xte, yte) > moons_lr.score(Xte, yte)


def test_predict_proba_rows_sum_to_one(moons_split, moons_lr):
    _, _, Xte, _ = moons_split
    probs = moons_lr.predict_proba(Xte)
    assert probs.shape == (len(Xte), 2)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs >= 0)


def test_input_gradient_matches_finite_differences(moons_split, moons_lr):
    _, _, Xte, _ = moons_split
    onehot = np.eye(2)[np.ones(20, dtype=int)]

    # cross-entropy to class 1 as a function of the input
    def loss(xt):
        probs = moons_lr.predict_proba_tensor(xt)
        p1 = ad.tsum(probs * Tensor(onehot), axis=1)
        return -1.0 * ad.tsum(ad.log(p1))

    assert finite_difference_check(loss, Xte[:20]) < 1e-4


@pytest.mark.parametrize("cls", [LogisticRegression, MlpClassifier])
def test_proba_input_vjp_matches_finite_differences(cls):
    # small random weights and three classes so no softmax output saturates
    rng = np.random.default_rng(7)
    clf = cls()
    clf.n_features_, clf.n_classes_ = 2, 3
    clf._init_params(2, 3, rng)
    for p in clf._params:
        p[...] = rng.normal(0.0, 0.3, size=p.shape)
    X = rng.uniform(-1.0, 2.0, size=(12, 2))
    cotangent = rng.normal(size=(12, 3))
    probs, vjp = clf.proba_and_input_vjp(X)
    assert np.allclose(probs, clf.predict_proba_tensor(Tensor(X)).data, atol=1e-15)
    err = finite_difference_error(
        lambda x: float((cotangent * clf.predict_proba(x)).sum()), vjp(cotangent), X
    )
    assert err < 1e-4


def test_parameter_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(16, 2)), rng.integers(0, 2, 16)
    clf = LogisticRegression(train_config=TrainConfig(seed=0, epochs=1))
    clf.fit(X, y)
    onehot = np.eye(2)[y]

    def loss_at(weights):
        logits = X @ weights + clf.bias_
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -np.mean((logp * onehot).sum(axis=1))

    w0 = clf.weights_.copy()
    analytic = clf._loss_and_grads(X, y)[1][0]  # the gradient training uses
    numeric = np.zeros_like(w0)
    for i in range(w0.shape[0]):
        for j in range(w0.shape[1]):
            hi, lo = w0.copy(), w0.copy()
            hi[i, j] += 1e-6
            lo[i, j] -= 1e-6
            numeric[i, j] = (loss_at(hi) - loss_at(lo)) / 2e-6
    assert np.allclose(analytic, numeric, atol=1e-6)


def test_seed_determinism(moons_split):
    Xtr, ytr, Xte, _ = moons_split
    a = MlpClassifier(train_config=TrainConfig(seed=5, epochs=5)).fit(Xtr, ytr)
    b = MlpClassifier(train_config=TrainConfig(seed=5, epochs=5)).fit(Xtr, ytr)
    assert np.array_equal(a.predict_proba(Xte), b.predict_proba(Xte))


def test_persistence_round_trip(tmp_path, moons_split, moons_lr):
    _, _, Xte, _ = moons_split
    path = tmp_path / "clf.json"
    moons_lr.save(path)
    loaded = load_classifier(path)
    assert isinstance(loaded, LogisticRegression)
    assert np.array_equal(loaded.predict_proba(Xte), moons_lr.predict_proba(Xte))


def test_mlp_persistence_keeps_hidden_width(tmp_path, moons_split):
    Xtr, ytr, Xte, _ = moons_split
    mlp = MlpClassifier(hidden=16, train_config=TrainConfig(seed=0, epochs=3)).fit(Xtr, ytr)
    path = tmp_path / "mlp.json"
    mlp.save(path)
    loaded = load_classifier(path)
    assert loaded.hidden == 16
    assert np.array_equal(loaded.predict_proba(Xte), mlp.predict_proba(Xte))


def test_rejects_single_class():
    X = np.zeros((10, 2))
    with pytest.raises(ValueError):
        LogisticRegression().fit(X, np.zeros(10, dtype=int))


def test_rejects_non_contiguous_labels():
    X = np.zeros((10, 2))
    y = np.array([0, 2] * 5)
    with pytest.raises(ValueError):
        LogisticRegression().fit(X, y)


def test_feature_width_mismatch(moons_lr):
    with pytest.raises(DimensionError):
        moons_lr.predict_proba_tensor(Tensor(np.zeros((3, 5))))


def test_get_params_round_trip():
    clf = MlpClassifier(hidden=9)
    params = clf.get_params()
    assert params["hidden"] == 9
    assert MlpClassifier(**params).get_params() == params


def test_loading_checks_the_stored_hidden_width(moons_split):
    Xtr, ytr, _, _ = moons_split
    mlp = MlpClassifier(hidden=4, train_config=TrainConfig(seed=0, epochs=1))
    payload = mlp.fit(Xtr, ytr).to_dict()
    payload["layer_shapes"][0][1] = 0
    with pytest.raises(ValueError, match="hidden must be an integer >= 1"):
        MlpClassifier.from_dict(payload)


def test_train_config_validation():
    for key, value in [
        ("epochs", 0), ("epochs", 2.5), ("batch_size", 0), ("patience", True),
        ("learning_rate", 0.0), ("learning_rate", float("nan")),
        ("weight_decay", -1.0), ("weight_decay", float("inf")),
        ("val_fraction", 1.5),
    ]:
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})
