import numpy as np
import pytest

from anomtax import _kernels
from anomtax.config import load_config
from anomtax.data import Dataset, generate_synthetic, minmax_normalize
from anomtax.labeling import LabelingConfig, label_dataset


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # trigger one-time numba compilation so timed checks measure steady state
    pts = np.random.default_rng(0).random((8, 2))
    _kernels.nearest_centroids(pts, pts[:2].copy())
    w1 = np.zeros((3, 2))
    w2 = np.zeros((2, 3))
    _kernels.mlp_forward(w1, np.zeros(3), w2, np.zeros(2), pts)
    _kernels.mlp_loss_grad(w1, np.zeros(3), w2, np.zeros(2), pts,
                           np.zeros((8, 2)))


@pytest.fixture(scope="session")
def labeled_synthetic():
    """The 195-point, 5-cluster reference dataset, labeled (all four types
    present at this generation seed)."""
    cfg = load_config(seed=0)
    ds = generate_synthetic(cfg.synthetic, 0)
    norm, _ = minmax_normalize(ds)
    return label_dataset(norm, LabelingConfig(num_clusters=5, knn_k=5,
                                              pa_score_multiplier=2.0,
                                              seed=0))


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
    return Dataset(np.vstack(feats),
                   ["sepal_len", "sepal_wid", "petal_len", "petal_wid"],
                   class_ids=np.array(classes), num_classes=3)


@pytest.fixture(scope="session")
def iris_like() -> Dataset:
    return make_iris_like()
