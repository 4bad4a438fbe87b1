"""Fold-wise experiment orchestration: train, generate, evaluate, persist."""

from __future__ import annotations

import csv
import hashlib
import json
import time
import traceback
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .counterfactual import (
    CfConfig,
    DensityThreshold,
    _validity_and_grad,
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
    spec = dict(spec)
    name = spec.pop("name", None)
    if name == "moons":
        return make_moons(seed=seed, **spec)
    if name == "blobs":
        return make_blobs(seed=seed, **spec)
    if name == "csv" or "path" in spec:
        data, rejected = load_csv(spec["path"], spec["label_column"])
        if rejected:
            warnings.warn(f"{spec['path']}: rejected rows {rejected}", stacklevel=2)
        return data
    raise ValueError(f"unknown dataset spec: {spec}")


def build_classifier(spec: dict, seed: int):
    spec = dict(spec)
    arch = spec.pop("arch", "lr")
    hidden = spec.pop("hidden", 64)
    cfg = TrainConfig(seed=seed, **spec)
    if arch == "lr":
        return LogisticRegression(train_config=cfg)
    if arch == "mlp":
        return MlpClassifier(hidden=hidden, train_config=cfg)
    raise ValueError(f"unknown classifier arch {arch!r}")


def build_flow(spec: dict, seed: int) -> MaskedAutoregressiveFlow:
    spec = dict(spec)
    n_transforms = spec.pop("n_transforms", 5)
    hidden = spec.pop("hidden", 64)
    jitter = spec.pop("jitter", 0.02)
    cfg = TrainConfig(seed=seed, **spec)
    return MaskedAutoregressiveFlow(
        n_transforms=n_transforms, hidden=hidden, jitter=jitter, train_config=cfg
    )


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
    for col in EvaluationReport._COLUMNS:
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
        writer.writerow([key_name] + [f"{c}_mean" for c in EvaluationReport._COLUMNS])
        for key, record in rows:
            writer.writerow(
                [key]
                + [record.aggregate[c]["mean"] for c in EvaluationReport._COLUMNS]
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
    covering [-0.5, 1.5]^2 for contour plots. Generation is deterministic,
    so the re-run path equals the original one.
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
        raise IndexError(
            f"instance_index {instance_index} out of range [0, {len(rows)})"
        )
    row = rows[instance_index]
    d = flow.d_
    x0 = np.array([float(row[k]) for k in row if k.startswith("x0_")])
    target = int(row["target"])

    cf_cfg = CfConfig(record_trajectory=True, **config.cf)
    result = generate(x0[None, :], [target], clf, flow, delta, cf_cfg)[0]

    traj_path = fold_dir / f"trajectory_{instance_index}.csv"
    with open(traj_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration"] + [f"dim_{i}" for i in range(d)]
            + ["log_density", "validity_hinge", "plausibility_hinge"]
        )
        for it, x in result.trajectory:
            vh, _, _ = _validity_and_grad(
                clf.predict_proba(x[None, :]), np.array([target]), "hinge",
                cf_cfg.epsilon,
            )
            logp = flow.score_samples(x[None, :], [target])[0]
            ph = max(delta.log_delta[target] - logp, 0.0)
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
