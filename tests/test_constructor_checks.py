"""Every record class that validates its fields rejects bad values with
the same ValueError message, whatever the class is built from."""

import re

import numpy as np
import pytest

from anomtax.data import NormalizationParams, SplitRatios
from anomtax.evaluation import ConfusionMatrix
from anomtax.ga import GaConfig
from anomtax.labeling import LabelingConfig, LabelingReport
from anomtax.mlp import Topology, TrainingConfig

CASES = {
    "NormalizationParams": (
        lambda: NormalizationParams(("a", "b"), np.array([0.0, 1.0]),
                                    np.array([1.0, 0.5])),
        "max < min in normalization params"),
    "SplitRatios-negative": (
        lambda: SplitRatios(train=1.2, validation=-0.1, test=-0.1),
        "split ratios must be nonnegative"),
    "SplitRatios-sum": (
        lambda: SplitRatios(0.5, 0.25, 0.5),
        "split ratios sum to 1.25, expected 1"),
    "ConfusionMatrix-square": (
        lambda: ConfusionMatrix(np.zeros((2, 3), dtype=np.int64),
                                ("a", "b")),
        "confusion matrix must be square, got (2, 3)"),
    "ConfusionMatrix-negative": (
        lambda: ConfusionMatrix(np.array([[1, -1], [0, 2]]), ("a", "b")),
        "confusion counts must be nonnegative"),
    "ConfusionMatrix-names": (
        lambda: ConfusionMatrix(np.eye(2, dtype=np.int64), ("a",)),
        "one class name per row required"),
    "GaConfig-sizes": (
        lambda: GaConfig(cycles=3, population_size=0),
        "cycles and population_size must be >= 1"),
    "GaConfig-rate": (
        lambda: GaConfig(mutation_rate=1.5),
        "mutation_rate must lie in [0, 1], got 1.5"),
    "LabelingConfig-clusters": (
        lambda: LabelingConfig(num_clusters=0),
        "num_clusters must be >= 1"),
    "LabelingConfig-knn": (
        lambda: LabelingConfig(num_clusters=2, knn_k=0),
        "knn_k must be >= 1"),
    "LabelingConfig-multiplier": (
        lambda: LabelingConfig(num_clusters=2, pa_score_multiplier=0.0),
        "pa_score_multiplier must be > 0"),
    "LabelingReport": (
        lambda: LabelingReport(points=10, clusters=2, nd=5, cna=2, cpa=1,
                               pa=1),
        "label counts do not partition the dataset"),
    "Topology": (
        lambda: Topology(2, 0, 4),
        "all layer sizes must be >= 1"),
    "TrainingConfig-epochs": (
        lambda: TrainingConfig(max_epochs=0),
        "max_epochs must be >= 1"),
    "TrainingConfig-patience": (
        lambda: TrainingConfig(patience=0),
        "patience must be >= 1"),
}


@pytest.mark.parametrize("build, message", CASES.values(), ids=CASES.keys())
def test_constructor_check(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
