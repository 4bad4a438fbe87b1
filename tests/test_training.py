"""The one training loop: early stopping, best-parameter restore, divergence,
and the closed-form parameter gradients it trains on, against the tape."""

import numpy as np
import pytest

import flowcf
from flowcf import autodiff as ad
from flowcf import flows, models
from flowcf.autodiff import Tensor
from flowcf.data import make_blobs, make_moons
from flowcf.flows import LOG_SCALE_BOUND, MaskedAutoregressiveFlow, load_flow
from flowcf.models import (LogisticRegression, MlpClassifier, TrainConfig,
                           TrainingError, load_classifier)

# improves until epoch 2; the drop at epoch 3 is inside the 1e-12 margin,
# and the 1.0 at epoch 6 must never be read with patience 3
SCRIPTED_VAL = [5.0, 4.0, 3.0, 3.0 - 1e-13, 3.5, 4.0, 1.0, 0.5]


def _classifier(cfg):
    return LogisticRegression(train_config=cfg)


def _mlp(cfg):
    return MlpClassifier(hidden=16, train_config=cfg)


def _flow(cfg):
    return MaskedAutoregressiveFlow(n_transforms=1, hidden=8, train_config=cfg)


def _flow2(cfg):
    return MaskedAutoregressiveFlow(n_transforms=2, hidden=8, train_config=cfg)


# the tape references ------------------------------------------------------


def tape_cross_entropy(clf, X, y, weight_decay):
    """The classifier's training loss built on the autodiff tape."""
    logp = ad.log_softmax(clf._logits(Tensor(X)))
    onehot = Tensor(np.eye(clf.n_classes_)[y])
    nll = -1.0 * ad.tmean(ad.tsum(logp * onehot, axis=1))
    if weight_decay > 0:
        penalty = Tensor(0.0)
        for t in clf._param_tensors[0::2]:
            penalty = penalty + ad.tsum(ad.square(t))
        nll = nll + Tensor(0.5 * weight_decay) * penalty
    return nll


def tape_flow_loss(flow, X, y):
    """The flow's training loss built on the autodiff tape."""
    return -1.0 * ad.tmean(flow.log_prob_tensor(Tensor(X), y))


def _flow_tensors(flow):
    return [t for tr in flow.transforms_ for t in tr.param_tensors]


def tape_loss_and_grads(loss, tensors):
    """The loss and the ``.grad`` of each leaf, leaving the leaves cleared."""
    loss.backward()
    grads = [t.grad for t in tensors]
    for t in tensors:
        t.zero_grad()
    return float(loss.data), grads


def _drive_by_tape(model):
    """Make ``model.fit`` train on the tape, as it did before closed forms."""
    if isinstance(model, MaskedAutoregressiveFlow):
        model._loss_and_grads = lambda X, y: tape_loss_and_grads(
            tape_flow_loss(model, X, y), _flow_tensors(model)
        )
        return
    model._loss_and_grads = lambda X, y, wd: tape_loss_and_grads(
        tape_cross_entropy(model, X, y, wd), model._param_tensors
    )
    model._cross_entropy = lambda X, y: (
        float(tape_cross_entropy(model, X, y, 0.0).data), None
    )


def _params(model):
    if isinstance(model, MaskedAutoregressiveFlow):
        return [p for tr in model.transforms_ for p in tr.params]
    return model._params


def _tensors(model):
    if isinstance(model, MaskedAutoregressiveFlow):
        return _flow_tensors(model)
    return model._param_tensors


# the loop -----------------------------------------------------------------


@pytest.mark.parametrize("module, make", [(models, _classifier), (flows, _flow)])
def test_early_stop_after_patience_keeps_best_epoch(monkeypatch, module, make):
    # the model's real fit, with its validation loss replaced by SCRIPTED_VAL
    real_fit_adam = models.fit_adam
    trained, snapshots = [], []

    def scripted(params, loss_and_grads, val_loss, epoch_data, cfg, rng):
        def val():
            val_loss()
            snapshots.append(params.copy())
            return SCRIPTED_VAL[len(snapshots) - 1]

        trained.append(params)
        real_fit_adam(params, loss_and_grads, val, epoch_data, cfg, rng)

    monkeypatch.setattr(module, "fit_adam", scripted)
    data = make_moons(n=200, seed=0)
    model = make(TrainConfig(seed=0, epochs=50, patience=3, learning_rate=1e-2))
    model.fit(data.features, data.labels)

    # the loop trains the model's own flat vector, and every parameter array
    # reads the best epoch's values once it returns
    assert len(trained) == 1 and trained[0] is model._flat_params
    assert len(snapshots) == 6  # best epoch 2, then exactly 3 stale epochs
    assert np.array_equal(model._flat_params, snapshots[2])
    flat = np.concatenate([p.ravel() for p in _params(model)])
    assert np.array_equal(flat, snapshots[2])
    assert not np.array_equal(snapshots[2], snapshots[-1])


@pytest.mark.parametrize("make", [_classifier, _mlp, _flow, _flow2])
def test_parameters_and_tape_leaves_view_one_flat_vector(make, tmp_path):
    data = make_moons(n=120, seed=0)
    model = make(TrainConfig(seed=0, epochs=2)).fit(data.features, data.labels)
    model.save(tmp_path / "model.json")
    load = load_flow if isinstance(model, MaskedAutoregressiveFlow) else load_classifier
    for m in (model, load(tmp_path / "model.json")):
        flat, params, tensors = m._flat_params, _params(m), _tensors(m)
        assert flat.ndim == 1 and flat.dtype == np.float64
        assert len(params) == len(tensors)
        for p, t in zip(params, tensors):
            assert np.shares_memory(p, flat) and np.shares_memory(t.data, flat)
        # the views tile the vector in order: a write through it reaches
        # every parameter array and every tape leaf
        flat[...] = np.arange(flat.size)
        assert np.array_equal(np.concatenate([p.ravel() for p in params]), flat)
        assert np.array_equal(np.concatenate([t.data.ravel() for t in tensors]), flat)


@pytest.mark.parametrize("make", [_classifier, _mlp, _flow])
def test_divergence_raises_training_error(make):
    data = make_moons(n=200, seed=0)
    model = make(TrainConfig(learning_rate=1e307, epochs=3))
    with pytest.raises(TrainingError, match=r"non-finite loss at epoch \d+, batch \d+") as info:
        model.fit(data.features, data.labels)
    # the finiteness check names what overflowed
    assert isinstance(info.value.__cause__, FloatingPointError)
    assert str(info.value.__cause__).startswith(("the loss is", "the gradient of"))


def test_a_non_finite_gradient_names_its_first_parameter():
    # the loop checks the flat gradient in one pass, but a failed fold
    # still says which parameter array went bad first
    data = make_moons(n=200, seed=0)
    model = _mlp(TrainConfig(seed=0, epochs=2))
    real = model._loss_and_grads

    def poisoned(X, y, wd):
        loss, grads = real(X, y, wd)
        grads = list(grads)
        grads[3] = np.where(np.arange(grads[3].size) == 1, np.nan, grads[3])
        grads[5] = np.full_like(grads[5], np.inf)
        return loss, grads

    model._loss_and_grads = poisoned
    with pytest.raises(TrainingError, match="non-finite loss at epoch 0, batch 0") as info:
        model.fit(data.features, data.labels)
    assert str(info.value.__cause__) == "the gradient of parameter 3 is not finite"


def test_divergence_in_the_validation_loss_raises_training_error():
    # one minibatch per epoch and a large validation split, so the first
    # loss to overflow after the first step is the validation one
    data = make_moons(n=200, seed=0)
    cfg = TrainConfig(learning_rate=1e307, epochs=3, val_fraction=0.5)
    clf = LogisticRegression(train_config=cfg)
    with pytest.raises(TrainingError, match="non-finite validation loss at epoch 0") as info:
        clf.fit(data.features, data.labels)
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_training_error_is_one_type():
    assert flowcf.TrainingError is flows.TrainingError is models.TrainingError
    assert issubclass(TrainingError, RuntimeError)


# closed-form parameter gradients against the tape -------------------------


@pytest.mark.parametrize("make", [_classifier, _mlp, _flow2])
def test_no_fit_builds_a_tape_graph(monkeypatch, make):
    def no_tape(*args, **kwargs):
        raise AssertionError("training touched the autodiff tape")

    monkeypatch.setattr(ad, "_make", no_tape)
    monkeypatch.setattr(Tensor, "backward", no_tape)
    data = make_moons(n=200, seed=0)
    make(TrainConfig(seed=0, epochs=2, weight_decay=1e-3)).fit(
        data.features, data.labels
    )


def _random_classifier(make, n_classes, rng):
    clf = make(None)
    clf.n_features_, clf.n_classes_ = 2, n_classes
    clf._init_params(2, n_classes, rng)
    for p in clf._params:
        p[...] = rng.normal(0.0, 1.5, size=p.shape)
    return clf


def _random_flow(n_transforms, n_classes, rng):
    flow = MaskedAutoregressiveFlow(n_transforms=n_transforms, hidden=16)
    flow._build(2, n_classes, rng)
    for tr in flow.transforms_:
        for p in tr.params:
            p[...] = rng.normal(0.0, 1.0, size=p.shape)
    return flow


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("make, weight_decay", [
    (_classifier, 0.0), (_classifier, 0.3), (_mlp, 0.0), (_mlp, 0.3),
])
def test_classifier_parameter_gradients_equal_the_tape(make, weight_decay, n_classes):
    rng = np.random.default_rng(n_classes)
    clf = _random_classifier(make, n_classes, rng)
    X = rng.uniform(-2.0, 3.0, size=(40, 2))
    y = rng.integers(0, n_classes, 40)
    if make is _mlp:
        # dead and live ReLUs in both hidden layers
        w1, b1, w2, b2 = clf._params[:4]
        pre1 = X @ w1 + b1
        pre2 = np.maximum(pre1, 0.0) @ w2 + b2
        for pre in (pre1, pre2):
            assert np.any(pre < 0) and np.any(pre > 0)

    loss, grads = clf._loss_and_grads(X, y, weight_decay)
    tape_loss, tape_grads = tape_loss_and_grads(
        tape_cross_entropy(clf, X, y, weight_decay), clf._param_tensors
    )
    assert np.isclose(loss, tape_loss, rtol=1e-12, atol=0.0)
    assert len(grads) == len(tape_grads) == len(clf._params)
    for g, tape_g in zip(grads, tape_grads):
        assert np.array_equal(g, tape_g)
    # the validation loss is the tape's to the bit
    assert clf._cross_entropy(X, y)[0] == float(tape_cross_entropy(clf, X, y, 0.0).data)


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("n_transforms", [1, 2])
def test_flow_parameter_gradients_equal_the_tape(n_transforms, n_classes):
    rng = np.random.default_rng(n_classes)
    flow = _random_flow(n_transforms, n_classes, rng)
    X = rng.uniform(-2.0, 3.0, size=(40, 2))
    y = rng.integers(0, n_classes, 40)

    # every transform's batch has dead and live ReLUs and both clipped and
    # unclipped log-scales (|raw| > LOG_SCALE_BOUND)
    context = np.eye(n_classes)[y]
    z = X
    for tr in flow.transforms_:
        w1, b1, w2, b2, _, _, wa, ba = tr.params
        m1, m2, mo = tr.masks
        pre1 = np.concatenate([z, context], axis=1) @ (w1 * m1) + b1
        pre2 = np.maximum(pre1, 0.0) @ (w2 * m2) + b2
        raw = np.maximum(pre2, 0.0) @ (wa * mo) + ba
        for pre in (pre1, pre2):
            assert np.any(pre < 0) and np.any(pre > 0)
        assert np.any(np.abs(raw) > LOG_SCALE_BOUND)
        assert np.any(np.abs(raw) < LOG_SCALE_BOUND)
        z, _, _ = tr.inverse_and_vjp(z, context)

    loss, grads = flow._loss_and_grads(X, y)
    tape_loss, tape_grads = tape_loss_and_grads(
        tape_flow_loss(flow, X, y), _flow_tensors(flow)
    )
    assert np.isclose(loss, tape_loss, rtol=1e-12, atol=0.0)
    assert len(grads) == len(tape_grads) == 8 * len(flow.transforms_)
    for g, tape_g in zip(grads, tape_grads):
        assert np.array_equal(g, tape_g)


@pytest.mark.parametrize("make, weight_decay", [
    (_classifier, 0.0), (_mlp, 1e-3), (_flow, 0.0), (_flow2, 0.0),
])
def test_fit_equals_a_tape_driven_fit(make, weight_decay):
    data = make_blobs(n=240, seed=0) if make is _mlp else make_moons(n=240, seed=0)
    cfg = TrainConfig(seed=3, epochs=4, batch_size=64, learning_rate=1e-2,
                      weight_decay=weight_decay)
    closed = make(cfg).fit(data.features, data.labels)
    taped = make(cfg)
    _drive_by_tape(taped)
    taped.fit(data.features, data.labels)
    assert len(_params(closed)) == len(_params(taped))
    for p, q in zip(_params(closed), _params(taped)):
        assert np.array_equal(p, q)
