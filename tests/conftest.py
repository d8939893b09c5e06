import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import anomtax
from anomtax.config import RunConfig, load_config
from anomtax.data import Dataset, generate_synthetic, minmax_normalize
from anomtax.labeling import label_dataset


def shipped(seed: int = 0) -> RunConfig:
    """The records of the shipped config at run seed ``seed``: what the
    CLI runs without ``--config``.  A test varies one with ``_replace``."""
    return load_config(None, seed)


def fresh_stdout(code: str, cwd, blas_threads=None) -> str:
    """Standard output of ``code`` in a fresh interpreter, started with
    OPENBLAS_NUM_THREADS unset or set to ``blas_threads``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(anomtax.__file__).parents[1])
    # importing anomtax.cli set it in this process too
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def make_dataset(features, feature_names=None, class_ids=None,
                 labels=None) -> Dataset:
    """A :class:`Dataset` of array-likes, with the dtypes ``load_csv``
    gives; the columns are named f0, f1, ... unless ``feature_names``
    names them."""
    features = np.array(features, dtype=np.float64)
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(features.shape[1])]
    return Dataset(
        features, list(feature_names),
        None if class_ids is None else np.array(class_ids, dtype=np.int64),
        None if labels is None else np.array(labels, dtype=np.int8))


@pytest.fixture(scope="session")
def labeled_synthetic():
    """The 195-point, 5-cluster reference dataset, labeled (all four types
    present at these generation and labeling seeds)."""
    cfg = shipped()
    ds = generate_synthetic(cfg.synthetic, 0)
    norm, _ = minmax_normalize(ds)
    return label_dataset(norm, cfg.labeling._replace(seed=0))


def make_iris_like(seed: int = 7) -> Dataset:
    """150 samples, 3 balanced classes, 4 features.

    Features 2 and 3 carry the class structure (three sub-blobs of varied
    density plus five planted outliers per class: a loose far triple and
    two isolated singles); features 0 and 1 are low-variance per class and
    meant to be discarded by the weighting step.
    """
    rng = np.random.default_rng(seed)
    feats, classes = [], []
    centers = [(2.0, 1.5), (9.0, 6.0), (16.0, 11.0)]
    for c, (cx, cy) in enumerate(centers):
        ret = np.vstack([
            (cx, cy) + rng.normal(0, 0.25, (18, 2)),
            (cx + 2.5, cy + 1.5) + rng.normal(0, 0.6, (14, 2)),
            (cx - 2.5, cy + 2.0) + rng.normal(0, 1.0, (13, 2)),
            (cx + 9.0, cy + 8.0) + rng.normal(0, 1.2, (3, 2)),
            [(cx - 8.0, cy - 6.0)],
            [(cx + 10.0, cy - 5.0)],
        ])
        disc = np.column_stack([
            rng.normal(3.0 * c + 1.0, 0.2, 50),
            rng.normal(2.0 * c + 0.5, 0.2, 50),
        ])
        feats.append(np.column_stack([disc, ret]))
        classes.extend([c] * 50)
    return make_dataset(np.vstack(feats),
                        ["sepal_len", "sepal_wid", "petal_len", "petal_wid"],
                        class_ids=classes)


@pytest.fixture(scope="session")
def iris_like() -> Dataset:
    return make_iris_like()
