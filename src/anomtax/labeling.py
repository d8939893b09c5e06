"""The taxonomy engine: point-anomaly detection, the radius rule for the
huddling point anomalies (CPA), k-means clustering of the remainder, and
the density-spread rule that separates CNA clusters from plain normal data.

The steps pass plain arrays: ``build_radius_table`` gives each point
anomaly's mean distance to the others and ``detect_cpa`` keeps those below
their mean; ``cluster_density_stats`` gives each cluster's density spread
and ``detect_cna`` keeps those at or above their mean.

Labeling pipelines for both unsupervised datasets and supervised datasets
(per-class sub-datasets with feature weighting/aggregation) live here too.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .data import AnomalyLabel, Dataset, minmax_normalize

__all__ = [
    "ClusterModel",
    "LabelingConfig",
    "LabelingReport",
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
# Sorted rows per kNN sweep block.  Its window reaches max(k, isqrt(2n))
# rows past each side: on spread-out 2-D data the rows inside a strip grow
# like sqrt(n), so no fixed reach suits both 6k and 50k points.
SWEEP_ROWS = 128
# Widening of a kNN strip.  A row measured again keeps only its strip, so
# the strip must hold every point as near as the bound, ties included.
# Such a point lies within the bound along the sort axis up to the
# rounding of that difference (half an ulp, the relative margin) and of
# its square, which underflows below about 1.6e-162 (the absolute one).
STRIP_REL_MARGIN = 1e-9
STRIP_ABS_MARGIN = 1e-150


class EmptyClusterError(ValueError):
    """k-means could not give every cluster a member."""


class ClusterModel(NamedTuple):
    """k-means result: the centroids, each point's cluster, and the
    objective after each assignment."""

    centroids: np.ndarray
    assignment: np.ndarray
    objective_history: tuple


class LabelingConfig:
    """Knobs for the labeling pipeline.

    ``pa_score_multiplier`` is the c in the mean + c*std cutoff on kNN
    distance scores.
    """

    __slots__ = ("num_clusters", "knn_k", "pa_score_multiplier", "seed")

    def __init__(self, num_clusters: int, knn_k: int = 5,
                 pa_score_multiplier: float = 2.0, seed: int = 0):
        if num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if knn_k < 1:
            raise ValueError("knn_k must be >= 1")
        if pa_score_multiplier <= 0:
            raise ValueError("pa_score_multiplier must be > 0")
        self.num_clusters = num_clusters
        self.knn_k = knn_k
        self.pa_score_multiplier = pa_score_multiplier
        self.seed = seed


class LabelingReport(NamedTuple):
    """Counts mirroring the labeled-dataset summary table."""

    points: int
    clusters: int
    nd: int
    cna: int
    cpa: int
    pa: int


def _report(labels: np.ndarray, clusters: int) -> LabelingReport:
    """The report of ``labels``; AnomalyLabel values are ND, CNA, CPA, PA
    = 0..3, the order of the count fields."""
    return LabelingReport(labels.size, clusters,
                          *np.bincount(labels, minlength=4).tolist())


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


def _knn_scores(pts, k: int) -> np.ndarray:
    """Mean distance from each point to its k nearest other points.

    An exact sorted sweep.  The points are sorted along the coordinate
    with the largest range.  Each block of ``SWEEP_ROWS`` sorted rows is
    measured against a window reaching max(k, isqrt(2n)) rows past each
    side, whose k-th smallest distance bounds the row's true k-th distance
    from above.  Every point at most that far lies in the row's strip: the
    sorted rows whose coordinate is within that bound, widened for
    rounding.  A row whose strip sticks out of its window is measured
    again against its strip.
    Extra candidates never change which k smallest values are found, so
    each row gets the same k distances as a scan of all points, and they
    are summed in ascending order.
    """
    n = pts.shape[0]
    if not np.isfinite(pts).all():
        raise ValueError("kNN scores need finite coordinates")
    axis = int(np.ptp(pts, axis=0).argmax())
    order = np.argsort(pts[:, axis], kind="stable")
    cols = np.ascontiguousarray(pts[order].T)
    coord = cols[axis]
    reach = max(k, math.isqrt(2 * n))
    nearest = np.empty((n, k))
    first = np.empty(n, dtype=np.int64)
    last = np.empty(n, dtype=np.int64)
    redo = []
    for lo in range(0, n, SWEEP_ROWS):
        hi = min(n, lo + SWEEP_ROWS)
        w_lo, w_hi = max(0, lo - reach), min(n, hi + reach)
        nearest[lo:hi] = _k_smallest(cols, np.arange(lo, hi), w_lo, w_hi, k)
        bound = nearest[lo:hi, k - 1] * (1.0 + STRIP_REL_MARGIN) \
            + STRIP_ABS_MARGIN
        first[lo:hi] = np.searchsorted(coord, coord[lo:hi] - bound, "left")
        last[lo:hi] = np.searchsorted(coord, coord[lo:hi] + bound, "right")
        redo.append(lo + np.flatnonzero((first[lo:hi] < w_lo)
                                        | (last[lo:hi] > w_hi)))
    for rows, s_lo, s_hi in _strip_groups(np.concatenate(redo), first, last):
        nearest[rows] = _k_smallest(cols, rows, s_lo, s_hi, k)
    scores = np.empty(n)
    scores[order] = np.sort(nearest, axis=1).sum(axis=1) / k
    return scores


def _k_smallest(cols, rows, lo: int, hi: int, k: int) -> np.ndarray:
    """The k smallest distances from each of the points ``rows`` to the
    points lo:hi other than itself, in partition order; ``cols`` holds the
    points as columns.  Every ``rows`` entry must lie in lo:hi.

    The selection runs on squared distances; ``sqrt`` is monotone, so the
    root of the k kept values gives the same bits as selecting roots."""
    block = _sq_distances(cols[:, rows].T, cols[:, lo:hi])
    block[np.arange(rows.size), rows - lo] = np.inf
    block.partition(k - 1, axis=1)
    return np.sqrt(block[:, :k])


def _strip_groups(rows, first, last):
    """Yield ``(group, lo, hi)``: runs of consecutive ``rows`` measured
    together against the union lo:hi of their strips.

    A run grows while its distance block stays within ``BLOCK_ELEMENTS``
    and at most twice the size of the rows' own strips, so neither a
    wide strip nor a gap between far-apart rows inflates the work.
    """
    starts, ends = first[rows].tolist(), last[rows].tolist()
    i = 0
    while i < len(starts):
        lo, hi, own = starts[i], ends[i], ends[i] - starts[i]
        j = i + 1
        while j < len(starts):
            new_lo, new_hi = min(lo, starts[j]), max(hi, ends[j])
            new_own = own + ends[j] - starts[j]
            size = (j + 1 - i) * (new_hi - new_lo)
            if size > BLOCK_ELEMENTS or size > 2 * new_own:
                break
            lo, hi, own, j = new_lo, new_hi, new_own, j + 1
        yield rows[i:j], lo, hi
        i = j


def _sq_distances(rows, cols, out=None, tmp=None) -> np.ndarray:
    """Squared distance from each of ``rows`` (m, d) to each of the points
    held as the columns ``cols`` (d, n), written into ``out`` when given;
    ``tmp``, of the same shape, is scratch space.

    Squared coordinate differences (row minus candidate) accumulate in
    dimension order, so a pair gets the same value in every block it falls
    in.  For d <= 7 this equals numpy's ``((rows[:, None] - cands[None])
    ** 2).sum(axis=2)`` bit for bit; from d = 8 on numpy sums pairwise in
    8-way blocks, and the two differ in the last bits.
    """
    out = np.subtract(rows[:, 0, None], cols[0], out=out)
    out *= out
    for q in range(1, rows.shape[1]):
        tmp = np.subtract(rows[:, q, None], cols[q], out=tmp)
        tmp *= tmp
        out += tmp
    return out


def build_radius_table(pa_points) -> np.ndarray:
    """Each point anomaly's radius: its mean distance to the other point
    anomalies (needs at least two).

    The distance rows are taken ``BLOCK_ELEMENTS`` values at a time, in
    two reused buffers.
    """
    pts = _as_points(pa_points)
    k = pts.shape[0]
    if k < 2:
        raise ValueError(
            f"radius table needs at least 2 point anomalies, got {k}"
        )
    step = max(1, min(k, BLOCK_ELEMENTS // k))
    cols = np.ascontiguousarray(pts.T)
    buf, tmp = np.empty((2, step, k))
    sums = np.empty(k)
    for lo in range(0, k, step):
        hi = min(k, lo + step)
        block = _sq_distances(pts[lo:hi], cols, buf[:hi - lo], tmp[:hi - lo])
        sums[lo:hi] = np.sqrt(block, out=block).sum(axis=1)
    return sums / (k - 1)


def detect_cpa(radii: np.ndarray) -> np.ndarray:
    """Point anomalies whose radius is strictly below the mean radius."""
    return np.flatnonzero(radii < radii.mean())


def kmeans(points, k: int, seed: int) -> ClusterModel:
    """Lloyd's algorithm with seeded distinct-point initialization.

    Runs to an assignment fixpoint or 300 iterations.  Empty clusters are
    repaired by reseeding the centroid at the point farthest from its
    current centroid, which keeps the objective non-increasing.  Raises
    :class:`EmptyClusterError` if a cluster stays empty after repair,
    which happens when the points hold fewer than k distinct values, or
    distinct values whose squared distances underflow to 0.
    """
    points = _as_points(points)
    n, d = points.shape
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n} points, got k={k}")
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(n, size=k, replace=False)].copy()
    cols = np.ascontiguousarray(points.T)
    buf = np.empty((2, k, n))
    assign, d2 = _nearest_centroids(cols, centroids, buf)
    assign, d2, sizes = _repair_empty(cols, centroids, assign, d2, buf)
    history = [float(d2.sum())]
    for _ in range(KMEANS_MAX_ITER):
        if d == 1:  # numpy's mean sums one column pairwise, not in order
            for c in range(k):
                centroids[c] = points[assign == c].mean(axis=0)
        else:  # equals mean(axis=0), which adds the rows in order
            for q in range(d):
                centroids[:, q] = np.bincount(assign, cols[q], k) / sizes
        new_assign, d2 = _nearest_centroids(cols, centroids, buf)
        new_assign, d2, sizes = _repair_empty(cols, centroids, new_assign,
                                              d2, buf)
        history.append(float(d2.sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return ClusterModel(centroids, assign, tuple(history))


def _nearest_centroids(cols, centroids, buf=None):
    """Index of each point's nearest centroid (ties go to the lowest
    index) and the squared distance to it.  ``cols`` holds the points as
    columns, shape (d, n); ``buf``, shape (2, k, n), is scratch space."""
    k, n = centroids.shape[0], cols.shape[1]
    d2, tmp = np.empty((2, k, n)) if buf is None else buf
    _sq_distances(centroids, cols, d2, tmp)
    # strict < keeps the lowest index on ties, as argmin does; the
    # distances are never nan, because the points are finite
    best = d2[0].copy()
    assign = np.zeros(n, dtype=np.intp)
    closer = np.empty(n, dtype=bool)
    for c in range(1, k):
        np.less(d2[c], best, out=closer)
        assign[closer] = c
        np.minimum(best, d2[c], out=best)
    return assign, best


def _repair_empty(cols, centroids, assign, d2, buf):
    """Move each empty cluster's centroid onto the point currently
    farthest from its own centroid, then reassign; returns the repaired
    assignment, its squared distances and the cluster sizes."""
    k = centroids.shape[0]
    for attempt in range(k + 1):
        sizes = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(sizes == 0)
        if empties.size == 0:
            return assign, d2, sizes
        if attempt == k:
            break
        centroids[empties[0]] = cols[:, int(d2.argmax())]
        assign, d2 = _nearest_centroids(cols, centroids, buf)
    raise EmptyClusterError(
        f"k-means left {empties.size} of {k} clusters empty; the points "
        f"hold fewer than k distinct values, or values whose squared "
        f"distances underflow to 0")


def cluster_density_stats(model: ClusterModel, points,
                          knn_k: int) -> np.ndarray:
    """Each cluster's density spread: the standard deviation of its
    members' densities.

    A member's density is the reciprocal of its mean distance to its
    ``knn_k`` nearest co-cluster members (all of them when the cluster is
    smaller), capped at 1e12 for near-coincident points.  A singleton
    cluster gets spread 0.
    """
    points = _as_points(points)
    k = model.centroids.shape[0]
    stds = np.zeros(k)
    for c in range(k):
        members = np.flatnonzero(model.assignment == c)
        if members.size < 2:
            continue
        kk = min(knn_k, members.size - 1)
        mean_dist = _knn_scores(points[members], kk)
        dens = np.where(mean_dist < DENSITY_EPS, DENSITY_CAP, 1.0 / np.maximum(mean_dist, DENSITY_EPS))
        stds[c] = dens.std()
    return stds


def detect_cna(spreads: np.ndarray) -> np.ndarray:
    """Cluster indices whose density spread meets or exceeds the
    threshold, the mean spread.

    The comparison is ``>=``, as in the paper, so equal spreads make every
    cluster CNA: a single cluster is always CNA (its spread is the mean
    threshold), and so is a set of identical points (all spreads are 0).
    On the 195-point reference mixture, k=1 labels 184 points CNA.
    """
    return np.flatnonzero(spreads >= spreads.mean())


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
        cpa_idx = pa_idx[detect_cpa(build_radius_table(points[pa_idx]))]
    labels[pa_idx] = int(AnomalyLabel.PA)
    labels[cpa_idx] = int(AnomalyLabel.CPA)

    clusterable = np.ones(n, dtype=bool)
    clusterable[pa_idx] = False
    rest = np.flatnonzero(clusterable)
    clusters_used = 0
    if rest.size:
        rest_points = points[rest]
        clusters_used = min(cfg.num_clusters, rest.size)
        while True:
            try:
                model = kmeans(rest_points, clusters_used, cfg.seed)
                break
            except EmptyClusterError as err:
                # points k-means cannot tell apart share a nearest
                # centroid; one cluster always fills
                clusters_used -= 1
                log.info("%s; retrying with k=%d", err, clusters_used)
        spreads = cluster_density_stats(model, rest_points, cfg.knn_k)
        cna_clusters = detect_cna(spreads)
        if cna_clusters.size == clusters_used:
            log.info("all %d clusters are CNA: every density spread meets "
                     "the threshold %.6g", clusters_used, spreads.mean())
        is_cna = np.zeros(clusters_used, dtype=bool)
        is_cna[cna_clusters] = True
        cna_members = rest[is_cna[model.assignment]]
        labels[cna_members] = int(AnomalyLabel.CNA)

    return ds.with_labels(labels), _report(labels, clusters_used)


def label_supervised(ds: Dataset, cfg: LabelingConfig, retained, discarded):
    """Label a supervised dataset class by class.

    ``retained`` and ``discarded`` name feature columns; each list is taken
    in the CSV's column order, whatever order it names them in.  The
    dataset is normalized, each sample weighted by the mean of its
    discarded features, the retained features shifted by that weight, and
    the result split by class.  Every class sub-dataset is labeled
    independently, re-normalized, and the pieces are stitched back together
    in the original sample order.

    ``cfg`` applies to every class.  A class too small to analyze is
    reported as degenerate and labeled all-ND.  Returns the labeled dataset
    and one ``(class_id, report)`` pair per class id that occurs, in
    ascending id order.
    """
    if ds.class_ids is None:
        raise ValueError("supervised labeling needs class ids")
    names = ds.feature_names
    unknown = [n for n in [*retained, *discarded] if n not in names]
    if unknown:
        raise ValueError("[data] retained/discarded names not in "
                         f"the CSV header: {', '.join(unknown)}")
    twice = [n for chosen in (retained, discarded)
             for i, n in enumerate(chosen) if n in chosen[:i]]
    if twice:
        raise ValueError("[data] names a feature twice in one list: "
                         f"{', '.join(dict.fromkeys(twice))}")
    both = [n for n in retained if n in discarded]
    if both:
        raise ValueError("[data] names both retained and "
                         f"discarded: {', '.join(both)}")
    if not retained or not discarded:
        raise ValueError("supervised labeling needs [data] retained and "
                         "discarded feature names matching the CSV header")
    keep = sorted(map(names.index, retained))
    drop = sorted(map(names.index, discarded))

    normalized, _ = minmax_normalize(ds)
    x = normalized.features
    weights = x[:, drop].mean(axis=1)
    agg = normalized.with_features(x[:, keep] + weights[:, None],
                                   [names[j] for j in keep])

    out_features = np.zeros_like(agg.features)
    out_labels = np.zeros(ds.n, dtype=np.int8)
    reports = []
    # only the ids that occur: a sparse id like 10**12 costs one class
    for class_id in sorted(set(ds.class_ids.tolist())):
        rows = np.flatnonzero(ds.class_ids == class_id)
        sub = agg.subset(rows)
        if rows.size <= cfg.knn_k:
            labels = np.full(rows.size, int(AnomalyLabel.ND), dtype=np.int8)
            labeled, report = sub.with_labels(labels), _report(labels, 0)
            log.info("class %d too small to label (%d samples), all ND",
                     class_id, rows.size)
        else:
            labeled, report = label_dataset(sub, cfg)
        renorm, _ = minmax_normalize(labeled)
        out_features[rows] = renorm.features
        out_labels[rows] = renorm.labels
        reports.append((class_id, report))

    integrated = Dataset(out_features, agg.feature_names, ds.class_ids,
                         out_labels)
    return integrated, reports


def _as_points(points) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {pts.shape}")
    return pts
