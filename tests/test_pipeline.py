"""Experiment plumbing: config handling, target selection, aggregation."""

import numpy as np
import pytest

from flowcf.data import make_blobs
from flowcf.metrics import EvaluationReport
from flowcf.models import LogisticRegression, TrainConfig
from flowcf.pipeline import (
    RunConfig,
    _aggregate,
    build_classifier,
    build_dataset,
    build_flow,
    compare_density,
    run_experiment,
    select_targets,
)


def test_run_config_validation_and_hash():
    with pytest.raises(ValueError):
        RunConfig(method="other")
    with pytest.raises(ValueError):
        RunConfig(k_folds=0)
    a = RunConfig(seed=1)
    b = RunConfig(seed=1)
    c = RunConfig(seed=2)
    assert a.config_hash() == b.config_hash() != c.config_hash()


def test_build_dataset_dispatch():
    moons = build_dataset({"name": "moons", "n": 64}, seed=0)
    assert moons.n_samples == 64 and moons.n_classes == 2
    blobs = build_dataset({"name": "blobs", "n": 66}, seed=0)
    assert blobs.n_classes == 3
    with pytest.raises(ValueError):
        build_dataset({"name": "galaxy"}, seed=0)


def test_build_classifier_and_flow_pass_settings():
    clf = build_classifier({"arch": "mlp", "hidden": 12, "epochs": 7}, seed=3)
    assert clf.hidden == 12
    assert clf._cfg.epochs == 7 and clf._cfg.seed == 3
    flow = build_flow({"n_transforms": 2, "jitter": 0.05, "epochs": 4}, seed=3)
    assert flow.n_transforms == 2 and flow.jitter == 0.05
    assert flow._cfg.epochs == 4


def test_select_targets_binary_flips_prediction():
    data = make_blobs(n=100, centers=2, seed=0)
    clf = LogisticRegression(train_config=TrainConfig(seed=0, epochs=40)).fit(
        data.features, data.labels
    )
    targets = select_targets(clf, data.features)
    assert np.array_equal(targets, 1 - clf.predict(data.features))


def test_select_targets_multiclass_picks_runner_up():
    data = make_blobs(n=150, centers=3, seed=0)
    clf = LogisticRegression(train_config=TrainConfig(seed=0, epochs=60)).fit(
        data.features, data.labels
    )
    probs = clf.predict_proba(data.features)
    targets = select_targets(clf, data.features)
    preds = probs.argmax(axis=1)
    assert np.all(targets != preds)
    for i in range(len(preds)):
        rivals = np.delete(np.arange(3), preds[i])
        assert probs[i, targets[i]] == probs[i, rivals].max()


def _report(**kw):
    base = dict(
        coverage=1.0, validity=1.0, prob_plausibility=1.0, l1_mean=0.5,
        l2_mean=0.4, log_density_mean=1.0, lof_mean=1.1, isoforest_mean=0.1,
        wall_time_secs=2.0, n_instances=10,
    )
    base.update(kw)
    return EvaluationReport(**base)


def test_aggregate_mean_and_sample_std():
    agg = _aggregate([_report(l2_mean=0.3), _report(l2_mean=0.5)])
    assert agg["l2_mean"]["mean"] == pytest.approx(0.4)
    assert agg["l2_mean"]["std"] == pytest.approx(np.std([0.3, 0.5], ddof=1))
    # a None in any fold makes the whole column undefined
    agg = _aggregate([_report(), _report(l1_mean=None)])
    assert agg["l1_mean"] == {"mean": None, "std": None}
    # a single fold has no sample standard deviation
    agg = _aggregate([_report()])
    assert agg["coverage"]["std"] is None


def test_failed_fold_is_recorded_not_fatal(tmp_path, monkeypatch):
    import flowcf.pipeline as pipeline

    real_run_fold = pipeline.run_fold
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic fold failure")
        return real_run_fold(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_fold", flaky)
    config = RunConfig(
        dataset={"name": "moons", "n": 120},
        classifier={"arch": "lr", "epochs": 30},
        flow={"n_transforms": 1, "hidden": 16, "epochs": 10},
        cf={"max_iters": 100},
        k_folds=2,
        seed=0,
    )
    record = run_experiment(config)
    assert len(record.failed_folds) == 1
    assert "synthetic fold failure" in record.failed_folds[0]["error"]
    assert len(record.fold_reports) == 1


def test_failed_fold_keeps_its_traceback(monkeypatch):
    import flowcf.pipeline as pipeline

    real_run_fold = pipeline.run_fold

    def raise_on_second_fold(data, train_idx, test_idx, config, fold_seed, out):
        if fold_seed == config.seed + 1:
            raise IndexError("synthetic index error")
        return real_run_fold(data, train_idx, test_idx, config, fold_seed, out)

    monkeypatch.setattr(pipeline, "run_fold", raise_on_second_fold)
    config = RunConfig(
        dataset={"name": "moons", "n": 120},
        classifier={"arch": "lr", "epochs": 30},
        flow={"n_transforms": 1, "hidden": 16, "epochs": 10},
        cf={"max_iters": 100},
        k_folds=2,
        seed=0,
    )
    record = run_experiment(config)
    [failure] = record.failed_folds
    assert failure["fold"] == 1
    assert failure["error"] == "IndexError: synthetic index error"
    assert "in raise_on_second_fold" in failure["traceback"]
    assert failure["traceback"].rstrip().endswith("IndexError: synthetic index error")


def test_single_fold_means_one_split_everywhere(monkeypatch):
    # run_experiment and compare_density must hold out the same rows
    import flowcf.pipeline as pipeline

    class Stop(Exception):
        pass

    seen = []

    class RecordingScaler(pipeline.MinMaxScaler):
        def transform(self, X):
            seen.append(np.array(X))
            if len(seen) % 2 == 0:  # train, then test: stop after the test
                raise Stop
            return super().transform(X)

    monkeypatch.setattr(pipeline, "MinMaxScaler", RecordingScaler)
    config = RunConfig(dataset={"name": "moons", "n": 120}, k_folds=1, seed=3)
    with pytest.raises(RuntimeError, match="all folds failed"):
        run_experiment(config)
    with pytest.raises(Stop):
        compare_density(config)
    train_a, test_a, train_b, test_b = seen
    assert np.array_equal(train_a, train_b) and np.array_equal(test_a, test_b)
    assert len(test_a) == 120 // 5
