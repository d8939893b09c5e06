import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from anomtax import labeling
from anomtax.config import load_config
from anomtax.data import (AnomalyLabel, Dataset, generate_synthetic,
                          load_csv, minmax_normalize, save_csv)
from anomtax.labeling import (
    LabelingConfig,
    build_radius_table,
    cluster_density_stats,
    detect_cna,
    detect_cpa,
    detect_point_anomalies,
    euclidean_distance,
    kmeans,
    label_dataset,
    label_supervised,
)


def brute_radius_table(points):
    """Independent double-loop oracle for the radius table."""
    k = len(points)
    mdist = []
    for i in range(k):
        total = 0.0
        for j in range(k):
            if i == j:
                continue
            total += math.dist(points[i], points[j])
        mdist.append(total / (k - 1))
    return mdist, sum(mdist) / k


def dense_distances(pts):
    """The all-pairs (n, n, d) formula the row-blocked code replaced."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def dense_knn_scores(pts, k):
    dists = dense_distances(pts)
    np.fill_diagonal(dists, np.inf)
    return np.partition(dists, k - 1, axis=1)[:, :k].sum(axis=1) / k


def dense_density_std(model, pts, knn_k):
    stds = np.zeros(model.num_clusters)
    for c in range(model.num_clusters):
        members = np.flatnonzero(model.assignment == c)
        if members.size < 2:
            continue
        dists = dense_distances(pts[members])
        np.fill_diagonal(dists, np.inf)
        kk = min(knn_k, members.size - 1)
        mean_dist = np.sort(dists, axis=1)[:, :kk].sum(axis=1) / kk
        dens = np.where(mean_dist < labeling.DENSITY_EPS, labeling.DENSITY_CAP,
                        1.0 / np.maximum(mean_dist, labeling.DENSITY_EPS))
        stds[c] = dens.std()
    return stds


class TestDistance:
    def test_3_4_5(self):
        assert euclidean_distance((0, 0), (3, 4)) == 5.0

    def test_identity(self):
        assert euclidean_distance((7.2, -1.5), (7.2, -1.5)) == 0.0

    def test_three_dims(self):
        assert euclidean_distance((1, 1, 1), (2, 2, 2)) == \
            pytest.approx(math.sqrt(3), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance((1, 2), (1, 2, 3))


class TestPointAnomalies:
    def test_blob_plus_far_point(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 1, (50, 2)), [[100.0, 100.0]]])
        cfg = LabelingConfig(num_clusters=1, knn_k=5,
                             pa_score_multiplier=2.0, seed=0)
        pa = detect_point_anomalies(pts, cfg)
        assert list(pa) == [50]

    def test_uniform_grid_no_anomalies(self):
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        cfg = LabelingConfig(num_clusters=1, knn_k=5,
                             pa_score_multiplier=10.0, seed=0)
        assert detect_point_anomalies(pts, cfg).size == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.normal(0, 1, (40, 2)),
                         rng.normal(0, 1, (5, 2)) * 30])
        cfg = LabelingConfig(num_clusters=1, knn_k=5, seed=0)
        base = {int(i) for i in detect_point_anomalies(pts, cfg)}
        assert base  # the scaled tail points must register
        perm = rng.permutation(len(pts))
        got = detect_point_anomalies(pts[perm], cfg)
        assert {int(perm[i]) for i in got} == base

    def test_too_few_points(self):
        cfg = LabelingConfig(num_clusters=1, knn_k=5, seed=0)
        with pytest.raises(ValueError):
            detect_point_anomalies(np.zeros((5, 2)), cfg)


class TestRadiusTable:
    def test_collinear_golden(self):
        table = build_radius_table([[0, 0], [1, 0], [2, 0]])
        np.testing.assert_allclose(table.mean_dists, [1.5, 1.0, 1.5],
                                   atol=1e-15)
        assert table.global_radius == pytest.approx(4 / 3, abs=1e-15)

    def test_symmetric_pair(self):
        table = build_radius_table([[0, 0], [2, 0]])
        np.testing.assert_array_equal(table.mean_dists, [2.0, 2.0])
        assert table.global_radius == 2.0

    def test_coincident_points(self):
        table = build_radius_table([[1, 1]] * 4)
        assert np.all(table.mean_dists == 0) and table.global_radius == 0

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            build_radius_table([[0, 0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            k = int(rng.integers(2, 13))
            d = int(rng.integers(1, 6))
            pts = rng.normal(0, 5, (k, d))
            table = build_radius_table(pts)
            mdist, rad = brute_radius_table(pts.tolist())
            np.testing.assert_allclose(table.mean_dists, mdist, atol=1e-12)
            assert table.global_radius == pytest.approx(rad, abs=1e-12)
            # global radius really is the mean of the per-point radii
            assert table.global_radius == \
                pytest.approx(table.mean_dists.mean(), abs=1e-12)


class TestDetectCpa:
    def test_middle_point_huddles(self):
        table = build_radius_table([[0, 0], [1, 0], [2, 0]])
        assert list(detect_cpa(table)) == [1]

    def test_all_equal_no_strict_winner(self):
        table = build_radius_table([[0, 0], [2, 0]])
        assert detect_cpa(table).size == 0

    def test_outlier_among_outliers(self):
        from anomtax.labeling import RadiusTable
        table = RadiusTable(np.array([1.0, 100.0]), 50.5)
        assert list(detect_cpa(table)) == [0]


class TestKmeans:
    def test_two_pairs_optimal(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.4], [10.0, 10.0], [10.0, 10.4]])
        model = kmeans(pts, 2, seed=3)
        # brute force over both balanced 2-partitions
        def objective(groups):
            total = 0.0
            for g in groups:
                c = pts[g].mean(axis=0)
                total += ((pts[g] - c) ** 2).sum()
            return total
        best = min(objective([[0, 1], [2, 3]]), objective([[0, 2], [1, 3]]),
                   objective([[0, 3], [1, 2]]))
        assert model.objective == pytest.approx(best, abs=1e-12)
        assert model.assignment[0] == model.assignment[1]
        assert model.assignment[2] == model.assignment[3]
        mids = sorted(model.centroids[:, 0])
        assert mids == pytest.approx([0.0, 10.0], abs=1e-12)

    def test_k1_closed_form(self):
        rng = np.random.default_rng(4)
        pts = rng.random((20, 3))
        model = kmeans(pts, 1, seed=0)
        np.testing.assert_allclose(model.centroids[0], pts.mean(axis=0),
                                   atol=1e-12)

    def test_k_equals_count(self):
        rng = np.random.default_rng(5)
        pts = rng.random((6, 2))
        model = kmeans(pts, 6, seed=0)
        assert model.objective == pytest.approx(0.0, abs=1e-15)
        assert sorted(model.assignment) == list(range(6))

    def test_count_below_k_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3, seed=0)

    def test_objective_non_increasing_and_fixpoint(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            pts = rng.random((60, 2))
            model = kmeans(pts, 4, seed=seed)
            diffs = np.diff(model.objective_history)
            assert np.all(diffs <= 1e-12)
            again = kmeans(pts, 4, seed=seed)
            np.testing.assert_array_equal(model.assignment, again.assignment)

    def test_fewer_distinct_points_than_k_rejected(self):
        pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3)
        with pytest.raises(ValueError, match="empty"):
            kmeans(pts, 3, seed=0)

    def test_nonempty_clusters(self):
        # duplicated points force empty-cluster repair paths
        pts = np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 5 + [[9.0, 0.0]])
        model = kmeans(pts, 3, seed=1)
        assert set(model.assignment) == {0, 1, 2}


class TestDensityStats:
    def test_regular_polygon_zero_spread(self):
        angles = np.linspace(0, 2 * np.pi, 8, endpoint=False)
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        model = kmeans(pts, 1, seed=0)
        model = cluster_density_stats(model, pts, knn_k=2)
        assert model.density_std[0] == pytest.approx(0.0, abs=1e-9)

    def test_threshold_is_mean_of_stds(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([rng.normal(0, 0.3, (15, 2)),
                         rng.normal(8, 1.5, (15, 2))])
        model = kmeans(pts, 2, seed=0)
        model = cluster_density_stats(model, pts, knn_k=3)
        assert model.threshold == pytest.approx(model.density_std.mean(),
                                                abs=1e-12)

    def test_singleton_cluster_zero(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [10.1, 10.0],
                        [10.0, 10.1]])
        model = kmeans(pts, 2, seed=2)
        model = cluster_density_stats(model, pts, knn_k=5)
        sizes = np.bincount(model.assignment)
        singleton = int(np.argmin(sizes))
        assert sizes[singleton] == 1
        assert model.density_std[singleton] == 0.0


class TestDetectCna:
    def test_threshold_comparison(self):
        from dataclasses import replace
        rng = np.random.default_rng(8)
        pts = rng.random((10, 2))
        model = kmeans(pts, 2, seed=0)
        model = replace(model, density_std=np.array([0.1, 0.3]),
                        threshold=0.2)
        assert list(detect_cna(model)) == [1]

    def test_equality_included(self):
        from dataclasses import replace
        model = kmeans(np.random.default_rng(9).random((8, 2)), 2, seed=0)
        model = replace(model, density_std=np.array([0.5, 0.5]),
                        threshold=0.5)
        assert list(detect_cna(model)) == [0, 1]

    def test_single_cluster_always_cna(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(0, 1, (20, 2))
        model = kmeans(pts, 1, seed=0)
        model = cluster_density_stats(model, pts, knn_k=4)
        assert list(detect_cna(model)) == [0]


class TestBlockedDistances:
    # 37 points in blocks of 4 rows: nine full blocks and a one-row last one
    N = 37

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(labeling, "BLOCK_ELEMENTS", 4 * self.N)

    def _points(self, d):
        pts = np.random.default_rng(d).normal(0, 3, (self.N, d))
        pts[7] = pts[3]  # a coincident pair: zero distance and ties
        return pts

    def test_block_bounds(self, small_blocks):
        bounds = [(lo, hi) for lo, hi, _ in
                  labeling._distance_rows(self._points(2))]
        assert bounds == [(lo, min(lo + 4, self.N))
                          for lo in range(0, self.N, 4)]
        assert bounds[-1] == (36, 37)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 12])
    def test_matches_dense_formulas(self, small_blocks, d):
        # numpy sums an axis of 8 or more elements pairwise, so from d=8
        # the dense formula rounds differently from in-order accumulation
        if d <= 7:
            same = np.testing.assert_array_equal
        else:
            def same(a, b):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
        pts = self._points(d)

        same(labeling._knn_scores(pts, 5), dense_knn_scores(pts, 5))

        table = build_radius_table(pts)
        dense_means = dense_distances(pts).sum(axis=1) / (self.N - 1)
        same(table.mean_dists, dense_means)
        same(table.global_radius, dense_means.mean())

        model = kmeans(pts, 3, seed=0)
        got = cluster_density_stats(model, pts, knn_k=5).density_std
        same(got, dense_density_std(model, pts, 5))

    def test_label_memory_linear_in_n(self):
        # the shipped mixture scaled to about 6000 points; the dense
        # (n, n, d) formulas peaked near 1.4 GB here
        shipped = load_config(seed=0).synthetic
        scale = 6000 / 195
        spec = replace(
            shipped,
            blobs=tuple(replace(b, count=round(b.count * scale))
                        for b in shipped.blobs),
            scatter_count=round(shipped.scatter_count * scale))
        ds, _ = minmax_normalize(generate_synthetic(spec, 0))
        assert ds.n >= 5990
        tracemalloc.start()
        try:
            label_dataset(ds, LabelingConfig(num_clusters=5, knn_k=5,
                                             seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20


class TestLabelDataset:
    def _dataset(self, seed=0):
        rng = np.random.default_rng(seed)
        pts = np.vstack([
            rng.normal((0.3, 0.3), 0.03, (40, 2)),
            rng.normal((0.7, 0.6), 0.06, (40, 2)),
            rng.uniform(-0.5, 1.5, (8, 2)),
        ])
        return Dataset(pts)

    def test_partition_and_report(self):
        ds = self._dataset()
        labeled, report = label_dataset(
            ds, LabelingConfig(num_clusters=2, knn_k=5, seed=0))
        assert report.nd + report.cna + report.cpa + report.pa == ds.n
        counts = np.bincount(labeled.labels, minlength=4)
        assert (report.nd, report.cna, report.cpa, report.pa) == \
            tuple(int(c) for c in counts)

    def test_no_anomalies_propagates_empty(self):
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        ds = Dataset(np.column_stack([xs.ravel(), ys.ravel()]))
        labeled, report = label_dataset(
            ds, LabelingConfig(num_clusters=2, knn_k=5,
                               pa_score_multiplier=50.0, seed=0))
        assert report.pa == 0 and report.cpa == 0
        assert report.nd + report.cna == ds.n

    def test_csv_roundtrip_preserves_labels(self, tmp_path):
        labeled, _ = label_dataset(
            self._dataset(), LabelingConfig(num_clusters=2, knn_k=5, seed=0))
        path = tmp_path / "labeled.csv"
        save_csv(labeled, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.labels, labeled.labels)

    def test_fewer_distinct_points_than_clusters(self):
        pts = np.array([[0.0, 0.0]] * 20 + [[1.0, 1.0]] * 20
                       + [[5.0, 5.0], [9.0, 0.0], [0.0, 9.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labeled, report = label_dataset(
                Dataset(pts), LabelingConfig(num_clusters=5, seed=0))
        assert report.clusters == 2
        assert report.pa + report.cpa == 3

    def test_rigid_motion_invariance(self):
        ds = self._dataset(seed=3)
        cfg = LabelingConfig(num_clusters=2, knn_k=5, seed=0)
        labeled, _ = label_dataset(ds, cfg)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = Dataset(ds.features @ rot.T + np.array([5.0, -3.0]))
        relabeled, _ = label_dataset(moved, cfg)
        np.testing.assert_array_equal(labeled.labels, relabeled.labels)


class TestLabelSupervised:
    def test_iris_like_shape(self, iris_like):
        cfg = LabelingConfig(num_clusters=3, knn_k=5, seed=0)
        labeled, reports = label_supervised(iris_like, cfg,
                                            retained_features=[2, 3],
                                            discarded_features=[0, 1])
        assert len(reports) == 3
        assert [r.points for r in reports] == [50, 50, 50]
        assert labeled.n == iris_like.n
        np.testing.assert_array_equal(labeled.class_ids, iris_like.class_ids)
        assert labeled.dim == 2

    def test_sub_dataset_sizes_sum_to_n(self, iris_like):
        cfg = LabelingConfig(num_clusters=3, knn_k=5, seed=0)
        _, reports = label_supervised(iris_like, cfg, [2, 3], [0, 1])
        assert sum(r.points for r in reports) == iris_like.n

    def test_single_class_matches_unsupervised_pipeline(self):
        rng = np.random.default_rng(11)
        feats = np.column_stack([
            rng.normal(2.0, 0.1, 60),
            rng.normal(1.0, 0.1, 60),
            np.vstack([rng.normal((5, 5), 0.4, (55, 2)),
                       rng.uniform(-20, 30, (5, 2))]).reshape(60, 2),
        ])
        ds = Dataset(feats, class_ids=np.zeros(60, dtype=int), num_classes=1)
        cfg = LabelingConfig(num_clusters=2, knn_k=5, seed=0)
        labeled, reports = label_supervised(ds, cfg, [2, 3], [0, 1])
        assert len(reports) == 1

        from anomtax.data import (aggregate_features, compute_sample_weights,
                                  minmax_normalize)
        norm, _ = minmax_normalize(ds)
        weights = compute_sample_weights(norm, [0, 1])
        agg = aggregate_features(norm, [2, 3], weights)
        direct, direct_report = label_dataset(agg, cfg)
        np.testing.assert_array_equal(labeled.labels, direct.labels)
        assert reports[0] == direct_report

    def test_tiny_class_degenerates_to_nd(self):
        rng = np.random.default_rng(12)
        feats = np.vstack([rng.random((30, 3)), rng.random((3, 3)) + 2])
        ds = Dataset(feats, class_ids=[0] * 30 + [1] * 3, num_classes=2)
        cfg = LabelingConfig(num_clusters=2, knn_k=5, seed=0)
        labeled, reports = label_supervised(ds, cfg, [0, 1], [2])
        assert reports[1].points == 3 and reports[1].nd == 3
        assert reports[1].clusters == 0
        tiny = labeled.labels[np.asarray(ds.class_ids) == 1]
        assert set(tiny) == {int(AnomalyLabel.ND)}

    def test_needs_class_ids(self):
        ds = Dataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            label_supervised(ds, LabelingConfig(num_clusters=1, seed=0),
                             [0], [1])

    def test_per_class_config_mapping(self, iris_like):
        per_class = {0: LabelingConfig(num_clusters=2, knn_k=5, seed=0),
                     1: LabelingConfig(num_clusters=3, knn_k=5, seed=0),
                     2: LabelingConfig(num_clusters=4, knn_k=5, seed=0)}
        _, reports = label_supervised(iris_like, per_class, [2, 3], [0, 1])
        assert [r.clusters for r in reports] == [2, 3, 4]
