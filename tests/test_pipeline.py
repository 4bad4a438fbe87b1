"""Experiment plumbing: config handling, target selection, aggregation, folds."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import flowcf.metrics as metrics
import flowcf.pipeline as pipeline

from flowcf.data import make_blobs
from flowcf.flows import load_flow
from flowcf.metrics import EvaluationReport
from flowcf.models import LogisticRegression, TrainConfig
from flowcf.pipeline import (
    RunConfig,
    _aggregate,
    ablate_lambda,
    ablate_loss,
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


def test_build_dataset_loads_a_csv_only_by_name(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("a,label\n0.1,x\n0.2,y\n", encoding="utf-8")
    spec = {"path": str(path), "label_column": "label"}
    assert build_dataset(dict(spec, name="csv"), seed=0).n_samples == 2
    for misspelled in (dict(spec, name="cvs"), spec):
        with pytest.raises(ValueError, match="unknown dataset"):
            build_dataset(misspelled, seed=0)


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


def _tiny_config(**extra) -> RunConfig:
    """Two quick folds: the config the fold-loop tests share."""
    return RunConfig(**dict(
        dataset={"name": "moons", "n": 120},
        classifier={"arch": "lr", "epochs": 30},
        flow={"n_transforms": 1, "hidden": 16, "epochs": 10},
        cf={"max_iters": 100},
        k_folds=2,
        seed=0,
    ), **extra)


def test_failed_fold_is_recorded_not_fatal(monkeypatch):
    real_run_fold = pipeline.run_fold
    calls = {"n": 0}

    def flaky(fitted, config, feature_names, out_dir):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic fold failure")
        return real_run_fold(fitted, config, feature_names, out_dir)

    monkeypatch.setattr(pipeline, "run_fold", flaky)
    record = run_experiment(_tiny_config())
    assert len(record.failed_folds) == 1
    assert "synthetic fold failure" in record.failed_folds[0]["error"]
    assert len(record.fold_reports) == 1


def test_failed_fold_keeps_its_traceback(monkeypatch):
    real_run_fold = pipeline.run_fold
    calls = {"n": 0}

    def raise_on_second_fold(fitted, config, feature_names, out_dir):
        calls["n"] += 1
        if calls["n"] == 2:
            raise ValueError("synthetic value error")
        return real_run_fold(fitted, config, feature_names, out_dir)

    monkeypatch.setattr(pipeline, "run_fold", raise_on_second_fold)
    record = run_experiment(_tiny_config())
    [failure] = record.failed_folds
    assert failure["fold"] == 1
    assert failure["error"] == "ValueError: synthetic value error"
    assert "in raise_on_second_fold" in failure["traceback"]
    assert failure["traceback"].rstrip().endswith("ValueError: synthetic value error")


@pytest.mark.parametrize("error", [IndexError, TypeError, KeyError, AttributeError])
def test_programming_errors_in_a_fold_propagate(monkeypatch, error):
    def buggy(fitted, config, feature_names, out_dir):
        raise error("synthetic bug")

    monkeypatch.setattr(pipeline, "run_fold", buggy)
    with pytest.raises(error, match="synthetic bug"):
        run_experiment(_tiny_config())


def test_all_folds_failing_saves_the_record_then_raises(tmp_path, monkeypatch):
    def broken(fitted, config, feature_names, out_dir):
        raise ArithmeticError("synthetic failure")

    monkeypatch.setattr(pipeline, "run_fold", broken)
    with pytest.raises(RuntimeError) as exc:
        run_experiment(_tiny_config(out=str(tmp_path)))
    assert str(exc.value).splitlines() == [
        f"all folds failed (tracebacks in {tmp_path / 'experiment.json'})",
        "fold 0: ArithmeticError: synthetic failure",
        "fold 1: ArithmeticError: synthetic failure",
    ]
    saved = json.loads((tmp_path / "experiment.json").read_text())
    assert saved["fold_reports"] == [] and saved["aggregate"] == {}
    assert [f["fold"] for f in saved["failed_folds"]] == [0, 1]
    assert all("in broken" in f["traceback"] for f in saved["failed_folds"])


def test_run_and_compare_density_train_the_same_flows(monkeypatch):
    built = []
    real_build_flow = pipeline.build_flow

    def keep(spec, seed):
        built.append(real_build_flow(spec, seed))
        return built[-1]

    monkeypatch.setattr(pipeline, "build_flow", keep)
    config = _tiny_config()
    run_experiment(config)
    compare_density(config)
    run_flows, density_flows = built[:2], built[2:]
    assert len(density_flows) == 2
    assert run_flows[0].to_dict() != run_flows[1].to_dict()
    for run_flow, density_flow in zip(run_flows, density_flows):
        assert run_flow.to_dict() == density_flow.to_dict()


_FOLD_ARTIFACTS = ("cfs.csv", "classifier.json", "flow.json", "delta.json",
                   "scaler.json")


def _without_wall_time(reports):
    return [{k: v for k, v in r.items() if k != "wall_time_secs"} for r in reports]


def test_sweep_settings_equal_separate_runs(tmp_path):
    config = _tiny_config(out=str(tmp_path / "lambda"))
    records = [record for _, record in ablate_lambda(config, [1, 100])]
    loss_config = dataclasses.replace(config, out=str(tmp_path / "loss"))
    records += list(ablate_loss(loss_config).values())
    assert len(records) == 4
    alone_dir = tmp_path / "alone"
    for record in records:
        alone = run_experiment(RunConfig(**dict(record.config, out=str(alone_dir))))
        assert record.failed_folds == alone.failed_folds == []
        assert (_without_wall_time(record.fold_reports)
                == _without_wall_time(alone.fold_reports))
        for fold in ("fold_0", "fold_1"):
            for name in _FOLD_ARTIFACTS:
                swept = Path(record.config["out"]) / fold / name
                assert swept.read_bytes() == (alone_dir / fold / name).read_bytes()


def _log_detector_fits(monkeypatch, log: list) -> None:
    """Append each detector class's name to ``log`` when one of them fits."""
    for name in ("LocalOutlierFactor", "IsolationForest"):
        real = getattr(metrics, name)

        class Logged(real):
            def fit(self, X, _name=name):
                log.append(_name)
                return super().fit(X)
        monkeypatch.setattr(metrics, name, Logged)


def test_sweep_fits_each_fold_once(monkeypatch):
    calls = {"build_classifier": 0, "build_flow": 0}

    def counting(name):
        real = getattr(pipeline, name)

        def build(spec, seed):
            calls[name] += 1
            return real(spec, seed)
        return build

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    detector_fits = []
    _log_detector_fits(monkeypatch, detector_fits)
    rows = ablate_lambda(_tiny_config(), [1, 10, 100])
    assert [len(record.fold_reports) for _, record in rows] == [2, 2, 2]
    assert calls == {"build_classifier": 2, "build_flow": 2}
    assert sorted(detector_fits) == ["IsolationForest"] * 2 + ["LocalOutlierFactor"] * 2


def test_a_single_run_fits_the_detectors_after_its_search(monkeypatch):
    events = []
    real_generate = pipeline.generate

    def logged_generate(*args):
        events.append("generate")
        return real_generate(*args)

    monkeypatch.setattr(pipeline, "generate", logged_generate)
    _log_detector_fits(monkeypatch, events)
    run_experiment(dataclasses.replace(_tiny_config(), k_folds=1))
    assert events == ["generate", "LocalOutlierFactor", "IsolationForest"]


def test_wachter_csv_holds_the_flow_density_of_covered_rows(tmp_path):
    run_experiment(dataclasses.replace(_tiny_config(out=str(tmp_path)), k_folds=1,
                                       method="wachter"))
    fold_dir = tmp_path / "fold_0"
    with open(fold_dir / "cfs.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    x_cf = np.array([[float(r[k]) for k in r if k.startswith("cf_")] for r in rows])
    targets = np.array([int(r["target"]) for r in rows])
    covered = np.array([r["valid"] == "1" for r in rows])
    logp = np.array([float(r["log_density"]) for r in rows])
    assert covered.any()
    expected = load_flow(fold_dir / "flow.json").score_samples(
        x_cf[covered], targets[covered])
    assert np.array_equal(logp[covered], expected)
    assert np.all(np.isnan(logp[~covered]))


def test_sweep_failures_stay_where_they_happen(tmp_path, monkeypatch):
    real_fit_fold, real_run_fold = pipeline.fit_fold, pipeline.run_fold

    def fit_fails_in_fold_1(data, train_idx, test_idx, config, fold_seed):
        if fold_seed == config.seed + 1:
            raise ValueError("synthetic fit failure")
        return real_fit_fold(data, train_idx, test_idx, config, fold_seed)

    monkeypatch.setattr(pipeline, "fit_fold", fit_fails_in_fold_1)
    for _, record in ablate_lambda(_tiny_config(), [1, 100]):
        [failure] = record.failed_folds
        assert failure["fold"] == 1
        assert failure["error"] == "ValueError: synthetic fit failure"
        assert len(record.fold_reports) == 1

    def search_fails_at_lambda_100(fitted, config, feature_names, out_dir):
        if config.cf["lam"] == 100 and out_dir.name == "fold_1":
            raise FloatingPointError("synthetic search failure")
        return real_run_fold(fitted, config, feature_names, out_dir)

    monkeypatch.setattr(pipeline, "fit_fold", real_fit_fold)
    monkeypatch.setattr(pipeline, "run_fold", search_fails_at_lambda_100)
    rows = dict(ablate_lambda(_tiny_config(out=str(tmp_path)), [1, 100]))
    assert rows[1.0].failed_folds == [] and len(rows[1.0].fold_reports) == 2
    [failure] = rows[100.0].failed_folds
    assert failure["fold"] == 1
    assert failure["error"] == "FloatingPointError: synthetic search failure"
    assert len(rows[100.0].fold_reports) == 1


def test_an_empty_sweep_is_rejected_before_anything_runs(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="no settings"):
        ablate_lambda(_tiny_config(out=str(out)), [])
    assert not out.exists()


def test_sweep_saves_every_setting_before_naming_the_failed_one(tmp_path,
                                                                monkeypatch):
    real_run_fold = pipeline.run_fold

    def fails_at_lambda_100(fitted, config, feature_names, out_dir):
        if config.cf["lam"] == 100:
            raise ValueError("synthetic failure")
        return real_run_fold(fitted, config, feature_names, out_dir)

    monkeypatch.setattr(pipeline, "run_fold", fails_at_lambda_100)
    with pytest.raises(RuntimeError) as exc:
        ablate_lambda(_tiny_config(out=str(tmp_path)), [1, 100])
    saved = tmp_path / "lambda_100" / "experiment.json"
    assert str(exc.value).splitlines() == [
        f"all folds failed for cf {{'max_iters': 100, 'lam': 100.0}} "
        f"(tracebacks in {saved})",
        "fold 0: ValueError: synthetic failure",
        "fold 1: ValueError: synthetic failure",
    ]
    assert len(json.loads(saved.read_text())["failed_folds"]) == 2
    good = json.loads((tmp_path / "lambda_1" / "experiment.json").read_text())
    assert len(good["fold_reports"]) == 2 and good["failed_folds"] == []


def test_single_fold_means_one_split_everywhere(monkeypatch):
    # run_experiment and compare_density must hold out the same rows
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
    with pytest.raises(Stop):
        run_experiment(config)
    with pytest.raises(Stop):
        compare_density(config)
    train_a, test_a, train_b, test_b = seen
    assert np.array_equal(train_a, train_b) and np.array_equal(test_a, test_b)
    assert len(test_a) == 120 // 5
