"""Every record class that validates its fields rejects bad values with
the same ValueError message, whatever the class is built from."""

import re

import pytest

from anomtax.data import SplitRatios
from anomtax.ga import GaConfig
from anomtax.labeling import LabelingConfig
from anomtax.mlp import Topology, TrainingConfig

CASES = {
    "SplitRatios-negative": (
        lambda: SplitRatios(train=1.2, validation=-0.1, test=-0.1),
        "split ratios must be nonnegative"),
    "SplitRatios-sum": (
        lambda: SplitRatios(0.5, 0.25, 0.5),
        "split ratios sum to 1.25, expected 1"),
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
