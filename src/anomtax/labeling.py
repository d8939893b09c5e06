"""The taxonomy engine: point-anomaly detection, radius math for the
huddling point anomalies (CPA), k-means clustering of the remainder, and
the density-spread test that separates CNA clusters from plain normal data.

Labeling pipelines for both unsupervised datasets and supervised datasets
(per-class sub-datasets with feature weighting/aggregation) live here too.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .data import (
    AnomalyLabel,
    Dataset,
    aggregate_features,
    compute_sample_weights,
    minmax_normalize,
)

__all__ = [
    "ClusterModel",
    "RadiusTable",
    "LabelingConfig",
    "LabelingReport",
    "euclidean_distance",
    "detect_point_anomalies",
    "build_radius_table",
    "detect_cpa",
    "kmeans",
    "cluster_density_stats",
    "detect_cna",
    "label_dataset",
    "label_supervised",
]

log = logging.getLogger(__name__)

KMEANS_MAX_ITER = 300
DENSITY_CAP = 1e12
DENSITY_EPS = 1e-12
# Float64 elements in one block of distance rows (16 MB per temporary), so
# labeling memory grows linearly with the number of points.
BLOCK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class RadiusTable:
    """Per-point mean distance to the other point anomalies, plus the
    global mean of those means."""

    mean_dists: np.ndarray
    global_radius: float


@dataclass(frozen=True)
class ClusterModel:
    """k-means result, optionally annotated with per-cluster density spread."""

    centroids: np.ndarray
    assignment: np.ndarray
    objective_history: tuple
    density_std: np.ndarray | None = None
    threshold: float | None = None

    @property
    def num_clusters(self) -> int:
        return self.centroids.shape[0]

    @property
    def objective(self) -> float:
        return self.objective_history[-1]


@dataclass(frozen=True)
class LabelingConfig:
    """Knobs for the labeling pipeline.

    ``pa_score_multiplier`` is the c in the mean + c*std cutoff on kNN
    distance scores.  ``threshold_mode`` picks how the cluster density-std
    threshold is formed from the per-cluster values: their mean (default),
    their median, or a fixed value.
    """

    num_clusters: int
    knn_k: int = 5
    pa_score_multiplier: float = 2.0
    seed: int = 0
    threshold_mode: str = "mean"
    threshold_value: float | None = None

    def __post_init__(self):
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if self.knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        if self.pa_score_multiplier <= 0:
            raise ValueError("pa_score_multiplier must be > 0")
        if self.threshold_mode not in ("mean", "median", "fixed"):
            raise ValueError(f"unknown threshold_mode {self.threshold_mode!r}")
        if self.threshold_mode == "fixed" and self.threshold_value is None:
            raise ValueError("fixed threshold_mode needs threshold_value")


@dataclass(frozen=True)
class LabelingReport:
    """Counts mirroring the labeled-dataset summary table."""

    points: int
    clusters: int
    nd: int
    cna: int
    cpa: int
    pa: int

    def __post_init__(self):
        if self.nd + self.cna + self.cpa + self.pa != self.points:
            raise ValueError("label counts do not partition the dataset")


def euclidean_distance(a, b) -> float:
    """Straight-line distance between two equal-dimension vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(math.sqrt(((a - b) ** 2).sum()))


def detect_point_anomalies(points, cfg: LabelingConfig) -> np.ndarray:
    """Indices whose mean-distance-to-k-nearest-neighbors score lies
    strictly above mean + c*std of all scores.

    Points exactly at the cutoff are not anomalies.
    """
    points = _as_points(points)
    n = points.shape[0]
    if n <= cfg.knn_k:
        raise ValueError(
            f"point-anomaly detection needs more than knn_k={cfg.knn_k} "
            f"points, got {n}"
        )
    scores = _knn_scores(points, cfg.knn_k)
    cutoff = scores.mean() + cfg.pa_score_multiplier * scores.std()
    return np.flatnonzero(scores > cutoff)


def _knn_scores(pts, k: int, ordered: bool = False) -> np.ndarray:
    """Mean distance from each point to its k nearest other points.

    Each row's k smallest distances are summed in partition order, or in
    ascending order when ``ordered``; either order is fixed by the row's
    values alone, so the block size never changes a score.
    """
    scores = np.empty(pts.shape[0])
    for lo, hi, block in _distance_rows(pts):
        block[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        block.partition(k - 1, axis=1)
        nearest = block[:, :k]
        if ordered:
            nearest = np.sort(nearest, axis=1)
        scores[lo:hi] = nearest.sum(axis=1) / k
    return scores


def _distance_rows(pts):
    """Yield ``(lo, hi, block)`` with ``block`` = rows lo:hi of the
    Euclidean distance matrix of ``pts``.

    Every entry accumulates squared coordinate differences in dimension
    order, then takes the square root, so a pair's distance does not
    depend on the block it falls in.  The block is a reused buffer: a
    caller may overwrite it but must not keep it past the next step.
    """
    n, d = pts.shape
    step = max(1, min(n, BLOCK_ELEMENTS // max(n, 1)))
    acc = np.empty((step, n))
    tmp = np.empty((step, n))
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        block, dq = acc[:hi - lo], tmp[:hi - lo]
        np.subtract(pts[lo:hi, 0, None], pts[None, :, 0], out=block)
        block *= block
        for q in range(1, d):
            np.subtract(pts[lo:hi, q, None], pts[None, :, q], out=dq)
            dq *= dq
            block += dq
        np.sqrt(block, out=block)
        yield lo, hi, block


def build_radius_table(pa_points) -> RadiusTable:
    """Mean pairwise distances among point anomalies (needs at least two)."""
    pts = _as_points(pa_points)
    k = pts.shape[0]
    if k < 2:
        raise ValueError(
            f"radius table needs at least 2 point anomalies, got {k}"
        )
    sums = np.empty(k)
    for lo, hi, block in _distance_rows(pts):
        sums[lo:hi] = block.sum(axis=1)
    mean_dists = sums / (k - 1)
    return RadiusTable(mean_dists, float(mean_dists.mean()))


def detect_cpa(table: RadiusTable) -> np.ndarray:
    """Point anomalies whose own radius is strictly below the global mean."""
    return np.flatnonzero(table.mean_dists < table.global_radius)


def kmeans(points, k: int, seed: int) -> ClusterModel:
    """Lloyd's algorithm with seeded distinct-point initialization.

    Runs to an assignment fixpoint or 300 iterations.  Empty clusters are
    repaired by reseeding the centroid at the point farthest from its
    current centroid, which keeps the objective non-increasing.  Raises
    ``ValueError`` if a cluster stays empty after repair, which happens
    when the points hold fewer than k distinct values.
    """
    points = _as_points(points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n} points, got k={k}")
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    assign, d2 = _kernels.nearest_centroids(points, centroids)
    assign, d2 = _repair_empty(points, centroids, assign, d2, k)
    history = [float(d2.sum())]
    for _ in range(KMEANS_MAX_ITER):
        for c in range(k):
            members = assign == c
            centroids[c] = points[members].mean(axis=0)
        new_assign, d2 = _kernels.nearest_centroids(points, centroids)
        new_assign, d2 = _repair_empty(points, centroids, new_assign, d2, k)
        history.append(float(d2.sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return ClusterModel(centroids, assign, tuple(history))


def _repair_empty(points, centroids, assign, d2, k):
    # move each empty cluster's centroid onto the point currently farthest
    # from its own centroid, then reassign
    for _ in range(k):
        sizes = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(sizes == 0)
        if empties.size == 0:
            break
        centroids[empties[0]] = points[int(d2.argmax())]
        assign, d2 = _kernels.nearest_centroids(points, centroids)
    empty = int((np.bincount(assign, minlength=k) == 0).sum())
    if empty:
        raise ValueError(f"k-means left {empty} of {k} clusters empty; "
                         f"the points hold fewer than k distinct values")
    return assign, d2


def cluster_density_stats(model: ClusterModel, points,
                          knn_k: int) -> ClusterModel:
    """Annotate a cluster model with each cluster's density spread.

    A member's density is the reciprocal of its mean distance to its
    ``knn_k`` nearest co-cluster members (all of them when the cluster is
    smaller), capped at 1e12 for near-coincident points.  A singleton
    cluster gets spread 0.  The threshold defaults to the mean of the
    per-cluster spreads; :func:`label_dataset` re-derives it when the
    config asks for the median or a fixed value.
    """
    points = _as_points(points)
    k = model.num_clusters
    stds = np.zeros(k)
    for c in range(k):
        members = np.flatnonzero(model.assignment == c)
        if members.size < 2:
            continue
        kk = min(knn_k, members.size - 1)
        mean_dist = _knn_scores(points[members], kk, ordered=True)
        dens = np.where(mean_dist < DENSITY_EPS, DENSITY_CAP, 1.0 / np.maximum(mean_dist, DENSITY_EPS))
        stds[c] = dens.std()
    return replace(model, density_std=stds,
                   threshold=float(stds.mean()))


def detect_cna(model: ClusterModel) -> np.ndarray:
    """Cluster indices whose density spread meets or exceeds the threshold."""
    if model.density_std is None or model.threshold is None:
        raise ValueError("cluster model lacks density stats")
    return np.flatnonzero(model.density_std >= model.threshold)


def _resolve_threshold(cfg: LabelingConfig, stds: np.ndarray) -> float:
    if cfg.threshold_mode == "median":
        return float(np.median(stds))
    if cfg.threshold_mode == "fixed":
        return float(cfg.threshold_value)
    return float(stds.mean())


def label_dataset(ds: Dataset, cfg: LabelingConfig):
    """Full unsupervised pipeline; returns the labeled dataset + report.

    Point anomalies come first; the huddling ones become CPA.  The rest is
    clustered and each cluster's members become CNA or ND depending on the
    cluster's density spread.  Every sample gets exactly one label.
    """
    points = ds.features
    n = ds.n
    labels = np.full(n, int(AnomalyLabel.ND), dtype=np.int8)

    pa_idx = detect_point_anomalies(points, cfg)
    cpa_idx = np.array([], dtype=np.int64)
    if pa_idx.size >= 2:
        table = build_radius_table(points[pa_idx])
        cpa_idx = pa_idx[detect_cpa(table)]
    labels[pa_idx] = int(AnomalyLabel.PA)
    labels[cpa_idx] = int(AnomalyLabel.CPA)

    rest = np.setdiff1d(np.arange(n), pa_idx)
    clusters_used = 0
    if rest.size:
        rest_points = points[rest]
        distinct = np.unique(rest_points, axis=0).shape[0]
        clusters_used = min(cfg.num_clusters, distinct)
        if clusters_used < cfg.num_clusters:
            log.info("reduced cluster count to %d (only %d distinct "
                     "clusterable points)", clusters_used, distinct)
        model = kmeans(rest_points, clusters_used, cfg.seed)
        model = cluster_density_stats(model, rest_points, cfg.knn_k)
        model = replace(model,
                        threshold=_resolve_threshold(cfg, model.density_std))
        cna_clusters = detect_cna(model)
        cna_members = rest[np.isin(model.assignment, cna_clusters)]
        labels[cna_members] = int(AnomalyLabel.CNA)

    report = LabelingReport(
        points=n,
        clusters=clusters_used,
        nd=int((labels == AnomalyLabel.ND).sum()),
        cna=int((labels == AnomalyLabel.CNA).sum()),
        cpa=int((labels == AnomalyLabel.CPA).sum()),
        pa=int((labels == AnomalyLabel.PA).sum()),
    )
    return ds.with_labels(labels), report


def label_supervised(ds: Dataset, cfg, retained_features, discarded_features):
    """Label a supervised dataset class by class.

    The dataset is normalized, each sample weighted by the mean of its
    discarded features, the retained features shifted by that weight, and
    the result split by class.  Every class sub-dataset is labeled
    independently, re-normalized, and the pieces are stitched back together
    in the original sample order.

    ``cfg`` is one :class:`LabelingConfig` for every class or a mapping
    from class id to config.  A class too small to analyze is reported as
    degenerate and labeled all-ND.
    """
    if ds.class_ids is None:
        raise ValueError("supervised labeling needs class ids")
    num_classes = ds.num_classes

    normalized, _ = minmax_normalize(ds)
    weights = compute_sample_weights(normalized, discarded_features)
    agg = aggregate_features(normalized, retained_features, weights)

    out_features = np.zeros_like(agg.features)
    out_labels = np.zeros(ds.n, dtype=np.int8)
    reports = []
    for class_id in range(num_classes):
        rows = np.flatnonzero(ds.class_ids == class_id)
        if rows.size == 0:
            continue
        class_cfg = cfg[class_id] if isinstance(cfg, dict) else cfg
        sub = agg.subset(rows)
        if rows.size <= class_cfg.knn_k:
            labeled = sub.with_labels(
                np.full(rows.size, int(AnomalyLabel.ND), dtype=np.int8))
            report = LabelingReport(points=rows.size, clusters=0,
                                    nd=rows.size, cna=0, cpa=0, pa=0)
            log.info("class %d too small to label (%d samples), all ND",
                     class_id, rows.size)
        else:
            labeled, report = label_dataset(sub, class_cfg)
        renorm, _ = minmax_normalize(labeled)
        out_features[rows] = renorm.features
        out_labels[rows] = renorm.labels
        reports.append(report)

    integrated = Dataset(out_features, agg.feature_names, ds.class_ids,
                         out_labels, ds.num_classes)
    return integrated, reports


def _as_points(points) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {pts.shape}")
    return pts
