"""Density-aware counterfactual explanations for differentiable classifiers.

The package trains a classifier and a class-conditional normalizing flow on
the same data, then searches for minimal feature changes that both flip the
classifier's decision and keep the point at least as probable (under the
flow) as a typical training example of the target class.
"""

__version__ = "0.1.0"

from .base import BaseEstimator, DimensionError, check_array, check_labels, check_X_y
from .counterfactual import (
    CfConfig,
    CfResult,
    DensityThreshold,
    compute_delta,
    generate,
    wachter_generate,
)
from .data import (
    CsvFormatError,
    Dataset,
    MinMaxScaler,
    SplitPlan,
    downsample_majority,
    load_csv,
    make_blobs,
    make_moons,
    stratified_kfold,
)
from .density import GaussianMixtureDensity, GmmFitError, KernelDensity
from .flows import FlowNumericsError, MaskedAutoregressiveFlow, load_flow
from .metrics import (
    EvaluationReport,
    IsolationForest,
    LocalOutlierFactor,
    evaluate,
    fit_detectors,
)
from .models import (
    LogisticRegression,
    MlpClassifier,
    TrainConfig,
    TrainingError,
    load_classifier,
)

__all__ = [
    "__version__",
    "DimensionError", "BaseEstimator", "check_array", "check_labels", "check_X_y",
    "TrainConfig", "LogisticRegression", "MlpClassifier", "load_classifier",
    "MaskedAutoregressiveFlow", "FlowNumericsError",
    "TrainingError", "load_flow",
    "GaussianMixtureDensity", "KernelDensity", "GmmFitError",
    "CfConfig", "CfResult", "DensityThreshold", "compute_delta",
    "generate", "wachter_generate",
    "EvaluationReport", "LocalOutlierFactor", "IsolationForest", "evaluate",
    "fit_detectors",
    "Dataset", "SplitPlan", "MinMaxScaler", "make_moons", "make_blobs",
    "load_csv", "CsvFormatError", "downsample_majority", "stratified_kfold",
]
