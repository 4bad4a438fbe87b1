"""The one training loop: early stopping, best-parameter restore, divergence."""

import numpy as np
import pytest

import flowcf
from flowcf import flows, models
from flowcf.autodiff import DomainError
from flowcf.data import make_moons
from flowcf.flows import FlowNumericsError, MaskedAutoregressiveFlow
from flowcf.models import LogisticRegression, MlpClassifier, TrainConfig, TrainingError

# improves until epoch 2; the drop at epoch 3 is inside the 1e-12 margin,
# and the 1.0 at epoch 6 must never be read with patience 3
SCRIPTED_VAL = [5.0, 4.0, 3.0, 3.0 - 1e-13, 3.5, 4.0, 1.0, 0.5]


def _classifier(cfg):
    return LogisticRegression(train_config=cfg)


def _mlp(cfg):
    return MlpClassifier(hidden=16, train_config=cfg)


def _flow(cfg):
    return MaskedAutoregressiveFlow(n_transforms=1, hidden=8, train_config=cfg)


@pytest.mark.parametrize("module, make", [(models, _classifier), (flows, _flow)])
def test_early_stop_after_patience_keeps_best_epoch(monkeypatch, module, make):
    # the model's real fit, with its validation loss replaced by SCRIPTED_VAL
    real_fit_adam = models.fit_adam
    snapshots = []

    def scripted(params, tensors, batch_loss, val_loss, epoch_data, cfg, rng):
        def val():
            val_loss()
            snapshots.append([p.copy() for p in params])
            return SCRIPTED_VAL[len(snapshots) - 1]

        real_fit_adam(params, tensors, batch_loss, val, epoch_data, cfg, rng)

    monkeypatch.setattr(module, "fit_adam", scripted)
    data = make_moons(n=200, seed=0)
    model = make(TrainConfig(seed=0, epochs=50, patience=3, learning_rate=1e-2))
    model.fit(data.features, data.labels)

    assert len(snapshots) == 6  # best epoch 2, then exactly 3 stale epochs
    params = (model._params if module is models
              else [p for tr in model.transforms_ for p in tr.params])
    for p, best in zip(params, snapshots[2]):
        assert np.array_equal(p, best)
    assert not all(np.array_equal(b, s) for b, s in zip(snapshots[2], snapshots[-1]))


@pytest.mark.parametrize("make", [_classifier, _mlp, _flow])
def test_divergence_raises_training_error(make):
    data = make_moons(n=200, seed=0)
    model = make(TrainConfig(learning_rate=1e307, epochs=3))
    with pytest.raises(TrainingError, match=r"non-finite loss at epoch \d+, batch \d+") as info:
        model.fit(data.features, data.labels)
    assert isinstance(info.value.__cause__, (DomainError, FlowNumericsError))


def test_divergence_in_the_validation_loss_raises_training_error():
    # one minibatch per epoch and a large validation split, so the first
    # loss to overflow after the first step is the validation one
    data = make_moons(n=200, seed=0)
    cfg = TrainConfig(learning_rate=1e307, epochs=3, val_fraction=0.5)
    clf = LogisticRegression(train_config=cfg)
    with pytest.raises(TrainingError, match="non-finite validation loss at epoch 0"):
        clf.fit(data.features, data.labels)


def test_training_error_is_one_type():
    assert flowcf.TrainingError is flows.TrainingError is models.TrainingError
    assert issubclass(TrainingError, RuntimeError)
