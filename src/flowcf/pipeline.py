"""Fold-wise experiment orchestration: fit, search, evaluate, persist.

``fit_fold`` scales a fold and trains its classifier, flow and density
threshold; ``run_fold`` searches and evaluates one ``cf`` setting on those
models and saves the fold's artifacts. ``run_experiment``, ``ablate_lambda``
and ``ablate_loss`` share one fold loop, so a sweep over S settings and K
folds trains K classifiers, K flows and K outlier-detector pairs, not S * K.
A fold that fails on bad data or numerics is recorded and the run goes on;
any other error propagates.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import time
import traceback
import warnings
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .base import _check_count
from .counterfactual import (
    CfConfig,
    DensityThreshold,
    _plausible_objective,
    _search,
    _validity_and_grad,
    _wachter_objective,
    compute_delta,
    generate,
    wachter_generate,
)
from .data import (
    Dataset,
    MinMaxScaler,
    downsample_majority,
    load_csv,
    make_blobs,
    make_moons,
    stratified_kfold,
)
from .density import GaussianMixtureDensity, KernelDensity
from .flows import MaskedAutoregressiveFlow, load_flow
from .metrics import EvaluationReport, evaluate, fit_detectors
from .models import LogisticRegression, MlpClassifier, TrainConfig, load_classifier

__all__ = [
    "RunConfig",
    "ExperimentRecord",
    "run_experiment",
    "ablate_lambda",
    "ablate_loss",
    "compare_density",
    "export_trajectory",
]

METHODS = ("plausible", "wachter")
TRAJECTORY_EVERY = 150  # steps between the points export_trajectory writes
_REPORT_COLUMNS = [f.name for f in fields(EvaluationReport)]
# what bad data or numerics raise in a fold (TrainingError, FlowNumericsError,
# DomainError, LinAlgError, GmmFitError); any other error is a bug and propagates
_FOLD_ERRORS = (ArithmeticError, ValueError, RuntimeError)


@dataclass
class RunConfig:
    dataset: dict = field(default_factory=lambda: {"name": "moons"})
    classifier: dict = field(default_factory=lambda: {"arch": "lr"})
    flow: dict = field(default_factory=dict)
    cf: dict = field(default_factory=dict)
    method: str = "plausible"
    k_folds: int = 5
    seed: int = 0
    out: str | None = None

    def __post_init__(self):
        for name in ("dataset", "classifier", "flow", "cf"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(
                    f"{name} must be a JSON object, got {getattr(self, name)!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        _check_count("k_folds", self.k_folds)
        _check_count("seed", self.seed, minimum=0)
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a string or null, got {self.out!r}")
        _from_spec(f"cf {self.cf}", CfConfig, self.cf)
        _estimator("classifier", self.classifier, self.seed)
        _estimator("flow", self.flow, self.seed)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class ExperimentRecord:
    config: dict
    config_hash: str
    version: str
    fold_reports: list[dict]
    failed_folds: list[dict]
    aggregate: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)


def build_dataset(spec: dict, seed: int) -> Dataset:
    kwargs = dict(spec)
    name = kwargs.pop("name", None)
    try:
        if name == "moons":
            return make_moons(seed=seed, **kwargs)
        if name == "blobs":
            return make_blobs(seed=seed, **kwargs)
        if name == "csv" or "path" in kwargs:
            data, rejected = load_csv(**kwargs)
            if rejected:
                warnings.warn(f"{spec['path']}: rejected rows {rejected}", stacklevel=2)
            return data
    except TypeError as err:  # an unknown or missing key, or a badly typed value
        raise ValueError(f"dataset {spec}: {err}") from err
    raise ValueError(f"unknown dataset spec: {spec}")


_CLASSIFIERS = {"lr": LogisticRegression, "mlp": MlpClassifier}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}


def _from_spec(what: str, cls, kwargs: dict, **fixed):
    """``cls(**kwargs, **fixed)``, with a bad key or value as a labelled ValueError."""
    try:
        return cls(**kwargs, **fixed)
    except (TypeError, ValueError) as err:  # an unknown key, a bad type or value
        raise ValueError(f"{what}: {err}") from err


def _estimator(what: str, spec: dict, seed: int):
    """The unfitted classifier or flow that ``spec`` describes.

    The keys ``TrainConfig`` takes set its training and the rest go to the
    estimator's constructor, so each default lives in one place. The
    training seed is always ``seed``, the run's.
    """
    label = f"{what} {spec}"
    kwargs = dict(spec)
    if "seed" in kwargs:
        raise ValueError(f"{label}: 'seed' is not a setting; the run's seed is used")
    cls = MaskedAutoregressiveFlow
    if what == "classifier":
        arch = kwargs.pop("arch", "lr")
        if arch not in _CLASSIFIERS:
            raise ValueError(f"unknown classifier arch {arch!r}")
        cls = _CLASSIFIERS[arch]
    train = {k: kwargs.pop(k) for k in list(kwargs) if k in _TRAIN_KEYS}
    train_config = _from_spec(label, TrainConfig, train, seed=seed)
    return _from_spec(label, cls, kwargs, train_config=train_config)


def build_classifier(spec: dict, seed: int):
    return _estimator("classifier", spec, seed)


def build_flow(spec: dict, seed: int) -> MaskedAutoregressiveFlow:
    return _estimator("flow", spec, seed)


def select_targets(clf, X: np.ndarray) -> np.ndarray:
    """Binary: the other class; multiclass: the runner-up class."""
    probs = clf.predict_proba(X)
    preds = probs.argmax(axis=1)
    if probs.shape[1] == 2:
        return 1 - preds
    masked = probs.copy()
    masked[np.arange(len(preds)), preds] = -np.inf
    return masked.argmax(axis=1)


def _write_cf_csv(path, x0, results, log_density, feature_names):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = (
            [f"x0_{n}" for n in feature_names]
            + [f"cf_{n}" for n in feature_names]
            + ["target", "log_density", "valid"]
        )
        writer.writerow(header)
        for row0, r, logp in zip(x0, results, log_density):
            writer.writerow(
                list(row0)
                + list(r.x_cf)
                + [r.target, logp, int(r.covered)]
            )


def _scale(data: Dataset, train_idx, test_idx):
    """The scaler fitted on the training rows, and both splits scaled by it."""
    scaler = MinMaxScaler().fit(data.features[train_idx])
    return (scaler, scaler.transform(data.features[train_idx]),
            scaler.transform(data.features[test_idx]))


def fit_fold(data: Dataset, train_idx: np.ndarray, test_idx: np.ndarray,
             config: RunConfig, fold_seed: int) -> tuple:
    """``(scaler, X_train, X_test, clf, flow, delta, detectors)`` for a fold.

    It reads no ``cf``; ``detectors()`` fits the outlier detectors on first call.
    """
    scaler, X_train, X_test = _scale(data, train_idx, test_idx)
    y_train = data.labels[train_idx]
    clf = build_classifier(config.classifier, fold_seed).fit(X_train, y_train)
    flow = build_flow(config.flow, fold_seed).fit(X_train, y_train)
    delta = compute_delta(flow, X_train, y_train)
    detectors = functools.cache(functools.partial(fit_detectors, X_train))
    return scaler, X_train, X_test, clf, flow, delta, detectors


def run_fold(fitted: tuple, config: RunConfig, feature_names: list[str],
             out_dir: Path | None = None) -> EvaluationReport:
    """Search and evaluate ``config.cf`` on a fitted fold; save its artifacts."""
    scaler, _, X_test, clf, flow, delta, detectors = fitted
    targets = select_targets(clf, X_test)
    cf_cfg = CfConfig(**config.cf)

    start = time.perf_counter()
    if config.method == "wachter":
        results = wachter_generate(X_test, targets, clf, cf_cfg)
    else:
        results = generate(X_test, targets, clf, flow, delta, cf_cfg)
    elapsed = time.perf_counter() - start

    report, log_density = evaluate(
        results, clf, flow, delta, X_test, detectors(), wall_time_secs=elapsed
    )

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        clf.save(out_dir / "classifier.json")
        flow.save(out_dir / "flow.json")
        with open(out_dir / "delta.json", "w", encoding="utf-8") as fh:
            json.dump({"log_delta": delta.log_delta.tolist()}, fh)
        with open(out_dir / "scaler.json", "w", encoding="utf-8") as fh:
            json.dump(
                {"min": scaler.min_.tolist(), "max": scaler.max_.tolist()}, fh
            )
        _write_cf_csv(out_dir / "cfs.csv", X_test, results, log_density,
                      feature_names)
        report.to_json(out_dir / "report.json")
    return report


def _aggregate(reports: list[EvaluationReport]) -> dict:
    if not reports:
        return {}
    agg = {}
    for col in _REPORT_COLUMNS:
        values = [getattr(r, col) for r in reports]
        if any(v is None for v in values):
            agg[col] = {"mean": None, "std": None}
            continue
        arr = np.asarray(values, dtype=np.float64)
        agg[col] = {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else None,
        }
    return agg


def _splits(config: RunConfig) -> tuple[Dataset, list]:
    """The class-balanced dataset and its (train, test) index pairs.

    ``k_folds == 1`` is fold 0 of a 5-fold plan, so a single split still
    holds out a fifth of the data.
    """
    data = downsample_majority(build_dataset(config.dataset, config.seed),
                               seed=config.seed)
    k = config.k_folds if config.k_folds > 1 else 5
    plan = stratified_kfold(data, k=k, seed=config.seed)
    return data, [plan.train_test(i) for i in range(config.k_folds)]


def _failure(fold: int, err: Exception) -> dict:
    """A failed fold's record; call it in the ``except`` that caught ``err``."""
    return {"fold": fold, "error": f"{type(err).__name__}: {err}",
            "traceback": traceback.format_exc()}


def _all_failed(config: RunConfig, record: ExperimentRecord, sweep: bool) -> str:
    """``all folds failed``, then one ``fold k: Type: msg`` line per fold."""
    head = "all folds failed"
    if sweep:
        head += f" for cf {config.cf}"
    if config.out:
        head += f" (tracebacks in {Path(config.out) / 'experiment.json'})"
    return "\n".join([head] + [f"fold {f['fold']}: {f['error']}"
                              for f in record.failed_folds])


def _run(configs: list[RunConfig]) -> list[ExperimentRecord]:
    """Experiments for configs that differ only in ``cf`` and ``out``.

    Each fold is fitted once and searched once per config. A failed fit is
    recorded in every config's record, a failed search in its own only.
    """
    data, splits = _splits(configs[0])
    for config in configs:
        if config.out:
            Path(config.out).mkdir(parents=True, exist_ok=True)
            with open(Path(config.out) / "config.json", "w", encoding="utf-8") as fh:
                json.dump(config.to_dict(), fh, indent=2)

    runs = [(config, [], []) for config in configs]  # config, reports, failures
    for fold, (train_idx, test_idx) in enumerate(splits):
        try:
            fitted = fit_fold(data, train_idx, test_idx, configs[0],
                              configs[0].seed + fold)
        except _FOLD_ERRORS as err:  # fold isolation: record and continue
            for _, _, failures in runs:
                failures.append(_failure(fold, err))
            continue
        for config, reports, failures in runs:
            fold_dir = Path(config.out) / f"fold_{fold}" if config.out else None
            try:
                reports.append(run_fold(fitted, config, data.feature_names, fold_dir))
            except _FOLD_ERRORS as err:  # fold isolation: record and continue
                failures.append(_failure(fold, err))

    records = []
    for config, reports, failures in runs:
        record = ExperimentRecord(
            config=config.to_dict(),
            config_hash=config.config_hash(),
            version=__version__,
            fold_reports=[report.to_dict() for report in reports],
            failed_folds=failures,
            aggregate=_aggregate(reports),
        )
        if config.out:
            record.save(Path(config.out) / "experiment.json")
        records.append(record)
    messages = [_all_failed(config, record, len(configs) > 1)
                for config, record in zip(configs, records) if not record.fold_reports]
    if messages:
        raise RuntimeError("\n".join(messages))
    return records


def run_experiment(config: RunConfig) -> ExperimentRecord:
    """Full stratified-CV experiment; failed folds are recorded, not fatal."""
    return _run([config])[0]


def _sweep(config: RunConfig, cf_key: str, column: str, csv_name: str,
           settings: list[tuple[str, object]]) -> list[tuple[object, ExperimentRecord]]:
    """``(value, record)`` per ``(label, value)`` of ``cf[cf_key]``, on shared folds.

    Setting ``label`` writes to ``<out>/<column>_<label>``; ``<out>/<csv_name>``
    gets one row of mean metrics per setting. Two settings with one label
    would share a directory, so they are rejected before anything runs, and
    so is a sweep with no settings.
    """
    if not settings:
        raise ValueError(f"the {column} sweep has no settings")
    seen = {}
    for label, value in settings:
        if label in seen:
            raise ValueError(f"{column} settings {seen[label]!r} and {value!r} "
                             f"share the directory {column}_{label}")
        seen[label] = value
    configs = []
    for label, value in settings:
        cfg_dict = config.to_dict()
        cfg_dict["cf"] = dict(cfg_dict["cf"], **{cf_key: value})
        if config.out:
            cfg_dict["out"] = str(Path(config.out) / f"{column}_{label}")
        configs.append(RunConfig(**cfg_dict))
    rows = [(value, record) for (_, value), record in zip(settings, _run(configs))]
    if config.out:
        with open(Path(config.out) / csv_name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([column] + [f"{c}_mean" for c in _REPORT_COLUMNS])
            for value, record in rows:
                writer.writerow(
                    [value] + [record.aggregate[c]["mean"] for c in _REPORT_COLUMNS]
                )
    return rows


def ablate_lambda(config: RunConfig, lambdas) -> list[tuple[float, ExperimentRecord]]:
    """One record per lambda, each searched on the same fitted folds.

    With ``out`` set, lambda ``v`` writes ``lambda_<v:g>/`` and the sweep's
    mean metrics go to ``lambda_sweep.csv``.
    """
    return _sweep(config, "lam", "lambda", "lambda_sweep.csv",
                  [(f"{lam:g}", float(lam)) for lam in lambdas])


def ablate_loss(config: RunConfig) -> dict[str, ExperimentRecord]:
    """Hinge vs cross-entropy validity loss, searched on the same fitted folds.

    With ``out`` set, each loss writes ``loss_<name>/`` and the pair's mean
    metrics go to ``loss_ablation.csv``.
    """
    return dict(_sweep(config, "validity_loss", "loss", "loss_ablation.csv",
                       [(loss, loss) for loss in ("hinge", "cross_entropy")]))


def compare_density(config: RunConfig) -> dict:
    """Mean test log-density per estimator (flow, KDE, max-component GMM)."""
    data, splits = _splits(config)
    per_estimator: dict[str, list[float]] = {"maf": [], "kde": [], "gmm": []}
    for fold, (train_idx, test_idx) in enumerate(splits):
        _, X_train, X_test = _scale(data, train_idx, test_idx)
        y_train = data.labels[train_idx]
        y_test = data.labels[test_idx]
        fold_seed = config.seed + fold

        flow = build_flow(config.flow, fold_seed).fit(X_train, y_train)
        per_estimator["maf"].append(
            float(np.mean(flow.score_samples(X_test, y_test)))
        )
        kde = KernelDensity().fit(X_train, y_train)
        per_estimator["kde"].append(
            float(np.mean(kde.score_samples(X_test, y_test)))
        )
        gmm = GaussianMixtureDensity(n_components=1, seed=fold_seed).fit(
            X_train, y_train
        )
        per_estimator["gmm"].append(
            float(np.mean(gmm.score_samples(X_test, y_test)))
        )

    table = {
        name: {
            "mean": float(np.mean(vals)),
            "std": float(np.std(vals, ddof=1)) if len(vals) > 1 else None,
        }
        for name, vals in per_estimator.items()
    }
    if config.out:
        out_root = Path(config.out)
        out_root.mkdir(parents=True, exist_ok=True)
        with open(out_root / "density_comparison.json", "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2)
    return table


def export_trajectory(run_dir, instance_index: int, fold: int = 0,
                      grid_resolution: int = 200) -> dict:
    """Re-derive one instance's optimization path from persisted artifacts.

    Writes ``trajectory_<i>.csv`` plus, for 2-D data, ``density_grid.csv``
    covering [-0.5, 1.5]^2 for contour plots. It replays the run's own method
    (deterministic): each ``TRAJECTORY_EVERY``-th point, then the answer.
    """
    run_dir = Path(run_dir)
    fold_dir = run_dir / f"fold_{fold}"
    with open(run_dir / "config.json", encoding="utf-8") as fh:
        config = RunConfig(**json.load(fh))
    clf = load_classifier(fold_dir / "classifier.json")
    flow = load_flow(fold_dir / "flow.json")
    with open(fold_dir / "delta.json", encoding="utf-8") as fh:
        delta = DensityThreshold(np.asarray(json.load(fh)["log_delta"]))

    with open(fold_dir / "cfs.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not 0 <= instance_index < len(rows):
        raise ValueError(
            f"instance_index {instance_index} out of range [0, {len(rows)})"
        )
    row = rows[instance_index]
    d = flow.d_
    x0 = np.array([[float(row[k]) for k in row if k.startswith("x0_")]])
    targets = np.array([int(row["target"])])

    cf_cfg = CfConfig(**config.cf)
    if config.method == "wachter":
        objective = _wachter_objective(x0, targets, clf, cf_cfg)
    else:
        objective = _plausible_objective(x0, targets, clf, flow, delta, cf_cfg)
    seen = []  # the point after k steps is seen[k]

    def recording(idx, x):
        seen.extend(x.copy())
        return objective(idx, x)

    result = _search(x0, targets, recording, cf_cfg)[0]
    path = [(k, seen[k]) for k in range(0, result.iterations_used, TRAJECTORY_EVERY)]

    traj_path = fold_dir / f"trajectory_{instance_index}.csv"
    with open(traj_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration"] + [f"dim_{i}" for i in range(d)]
            + ["log_density", "validity_hinge", "plausibility_hinge"]
        )
        for it, x in path + [(result.iterations_used, result.x_cf)]:
            vh, _, _ = _validity_and_grad(
                clf.predict_proba(x[None, :]), targets, "hinge",
                cf_cfg.epsilon,
            )
            logp = flow.score_samples(x[None, :], targets)[0]
            ph = max(delta.log_delta[targets[0]] - logp, 0.0)
            writer.writerow([it] + list(x) + [logp, float(vh[0]), ph])

    paths = {"trajectory": str(traj_path)}
    if d == 2:
        grid_path = fold_dir / "density_grid.csv"
        axis = np.linspace(-0.5, 1.5, grid_resolution)
        xx, yy = np.meshgrid(axis, axis)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        probs = clf.predict_proba(pts)
        with open(grid_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            classes = range(flow.n_classes_)
            writer.writerow(
                ["x0", "x1"]
                + [f"log_density_class_{c}" for c in classes]
                + [f"prob_class_{c}" for c in classes]
            )
            dens = np.column_stack([
                flow.score_samples(pts, np.full(len(pts), c))
                for c in range(flow.n_classes_)
            ])
            writer.writerows(np.column_stack([pts, dens, probs]).tolist())
        paths["density_grid"] = str(grid_path)
    return paths
