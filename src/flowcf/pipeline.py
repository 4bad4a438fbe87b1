"""Fold-wise experiment orchestration: train, generate, evaluate, persist."""

from __future__ import annotations

import csv
import hashlib
import json
import time
import traceback
import warnings
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import __version__
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
from .metrics import EvaluationReport, IsolationForest, LocalOutlierFactor, evaluate
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
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.k_folds < 1:
            raise ValueError("k_folds must be >= 1")
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
    """``cls(**kwargs, **fixed)``, with a bad key or value as a ValueError."""
    try:
        return cls(**kwargs, **fixed)
    except TypeError as err:  # an unknown key or a badly typed value
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


def _write_cf_csv(path, x0, results, feature_names):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = (
            [f"x0_{n}" for n in feature_names]
            + [f"cf_{n}" for n in feature_names]
            + ["target", "log_density", "valid"]
        )
        writer.writerow(header)
        for row0, r in zip(x0, results):
            writer.writerow(
                list(row0)
                + list(r.x_cf)
                + [r.target, r.log_density_at_cf, int(r.covered)]
            )


def run_fold(
    data: Dataset,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    config: RunConfig,
    fold_seed: int,
    out_dir: Path | None = None,
) -> EvaluationReport:
    scaler = MinMaxScaler().fit(data.features[train_idx])
    X_train = scaler.transform(data.features[train_idx])
    y_train = data.labels[train_idx]
    X_test = scaler.transform(data.features[test_idx])

    clf = build_classifier(config.classifier, fold_seed).fit(X_train, y_train)
    flow = build_flow(config.flow, fold_seed).fit(X_train, y_train)
    delta = compute_delta(flow, X_train, y_train)

    targets = select_targets(clf, X_test)
    cf_cfg = CfConfig(**config.cf)

    start = time.perf_counter()
    if config.method == "wachter":
        results = wachter_generate(X_test, targets, clf, cf_cfg)
    else:
        results = generate(X_test, targets, clf, flow, delta, cf_cfg)
    elapsed = time.perf_counter() - start

    report = evaluate(
        results, clf, flow, delta, X_test, X_train, wall_time_secs=elapsed
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
        _write_cf_csv(out_dir / "cfs.csv", X_test, results, data.feature_names)
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


def run_experiment(config: RunConfig) -> ExperimentRecord:
    """Full stratified-CV experiment; failed folds are recorded, not fatal."""
    data, splits = _splits(config)
    out_root = Path(config.out) if config.out else None
    if out_root is not None:
        out_root.mkdir(parents=True, exist_ok=True)
        with open(out_root / "config.json", "w", encoding="utf-8") as fh:
            json.dump(config.to_dict(), fh, indent=2)

    reports: list[EvaluationReport] = []
    fold_dicts: list[dict] = []
    failures: list[dict] = []
    for fold, (train_idx, test_idx) in enumerate(splits):
        fold_dir = out_root / f"fold_{fold}" if out_root else None
        try:
            report = run_fold(
                data, train_idx, test_idx, config, config.seed + fold, fold_dir
            )
        except Exception as err:  # fold isolation: record and continue
            failures.append({
                "fold": fold,
                "error": f"{type(err).__name__}: {err}",
                "traceback": traceback.format_exc(),
            })
            continue
        reports.append(report)
        fold_dicts.append(report.to_dict())

    if not reports:
        raise RuntimeError(f"all folds failed: {failures}")

    record = ExperimentRecord(
        config=config.to_dict(),
        config_hash=config.config_hash(),
        version=__version__,
        fold_reports=fold_dicts,
        failed_folds=failures,
        aggregate=_aggregate(reports),
    )
    if out_root is not None:
        record.save(out_root / "experiment.json")
    return record


def ablate_lambda(config: RunConfig, lambdas) -> list[tuple[float, ExperimentRecord]]:
    """Re-run the experiment per lambda with identical seeds and folds."""
    rows = []
    for lam in lambdas:
        cfg_dict = config.to_dict()
        cfg_dict["cf"] = dict(cfg_dict["cf"], lam=float(lam))
        if config.out:
            cfg_dict["out"] = str(Path(config.out) / f"lambda_{lam:g}")
        rows.append((float(lam), run_experiment(RunConfig(**cfg_dict))))
    if config.out:
        _write_sweep_csv(Path(config.out) / "lambda_sweep.csv", "lambda", rows)
    return rows


def ablate_loss(config: RunConfig) -> dict[str, ExperimentRecord]:
    """Paired hinge vs cross-entropy validity-loss runs on the same folds."""
    records = {}
    for loss in ("hinge", "cross_entropy"):
        cfg_dict = config.to_dict()
        cfg_dict["cf"] = dict(cfg_dict["cf"], validity_loss=loss)
        if config.out:
            cfg_dict["out"] = str(Path(config.out) / f"loss_{loss}")
        records[loss] = run_experiment(RunConfig(**cfg_dict))
    if config.out:
        _write_sweep_csv(
            Path(config.out) / "loss_ablation.csv", "loss", list(records.items())
        )
    return records


def _write_sweep_csv(path, key_name, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([key_name] + [f"{c}_mean" for c in _REPORT_COLUMNS])
        for key, record in rows:
            writer.writerow(
                [key] + [record.aggregate[c]["mean"] for c in _REPORT_COLUMNS]
            )


def compare_density(config: RunConfig) -> dict:
    """Mean test log-density per estimator (flow, KDE, max-component GMM)."""
    data, splits = _splits(config)
    per_estimator: dict[str, list[float]] = {"maf": [], "kde": [], "gmm": []}
    for fold, (train_idx, test_idx) in enumerate(splits):
        scaler = MinMaxScaler().fit(data.features[train_idx])
        X_train = scaler.transform(data.features[train_idx])
        y_train = data.labels[train_idx]
        X_test = scaler.transform(data.features[test_idx])
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
            for i in range(len(pts)):
                writer.writerow(
                    list(pts[i]) + list(dens[i]) + list(probs[i])
                )
        paths["density_grid"] = str(grid_path)
    return paths
