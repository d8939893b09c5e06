"""Every rule a record's fields obey is checked once, where the record is
built from the config file: ``load_config``, which also checks the
topology's hidden size.  The records themselves are plain values, so each
case here builds its record the way the program does and expects that
check's key-named ValueError.  A topology read from a model file is
checked by ``load_model`` (``test_mlp.TestTopology``)."""

import re

import pytest

from anomtax.config import load_config

CASES = {
    "SplitRatios-negative": (
        "[split]\ntrain = 1.2\nvalidation = -0.1\ntest = -0.1\n",
        "[split] validation must be >= 0, got -0.1"),
    "SplitRatios-sum": (
        "[split]\ntrain = 0.5\nvalidation = 0.25\ntest = 0.5\n",
        "[split] train, validation and test must sum to 1, "
        "got 0.5 + 0.25 + 0.5 = 1.25"),
    "GaConfig-sizes": (
        "[ga]\ncycles = 3\npopulation = 0\n",
        "[ga] population must be >= 1, got 0"),
    "GaConfig-rate": (
        "[ga]\nmutation_rate = 1.5\n",
        "[ga] mutation_rate must lie in [0, 1], got 1.5"),
    "LabelingConfig-clusters": (
        "[labeling]\nclusters = 0\n",
        "[labeling] clusters must be >= 1, got 0"),
    "LabelingConfig-knn": (
        "[labeling]\nclusters = 2\nknn_k = 0\n",
        "[labeling] knn_k must be >= 1, got 0"),
    "LabelingConfig-multiplier": (
        "[labeling]\nclusters = 2\nscore_multiplier = 0.0\n",
        "[labeling] score_multiplier must be > 0, got 0.0"),
    "Topology": (
        "[mlp]\nhidden = 0\n",
        "[mlp] hidden must be >= 1, got 0"),
    "TrainingConfig-epochs": (
        "[train]\nmax_epochs = 0\n",
        "[train] max_epochs must be >= 1, got 0"),
    "TrainingConfig-patience": (
        "[train]\npatience = 0\n",
        "[train] patience must be >= 1, got 0"),
}


@pytest.mark.parametrize("text, message", CASES.values(), ids=CASES.keys())
def test_constructor_check(tmp_path, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(path, seed=0)

