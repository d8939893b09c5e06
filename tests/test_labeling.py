import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anomtax import labeling
from anomtax.data import (AnomalyLabel, BlobSpec, SyntheticSpec,
                          generate_synthetic, load_csv, minmax_normalize,
                          save_csv)
from anomtax.labeling import (
    build_radius_table,
    cluster_density_stats,
    detect_cna,
    detect_cpa,
    detect_point_anomalies,
    kmeans,
    label_dataset,
    label_supervised,
)
from conftest import make_dataset, shipped

LABELING = shipped().labeling


def report_counts(report):
    return (report.points, report.clusters, report.nd, report.cna,
            report.cpa, report.pa)


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
    k = model.centroids.shape[0]
    stds = np.zeros(k)
    for c in range(k):
        members = np.flatnonzero(model.assignment == c)
        if members.size < 2:
            continue
        dists = dense_distances(pts[members])
        np.fill_diagonal(dists, np.inf)
        kk = min(knn_k, members.size - 1)
        mean_dist = np.sort(dists, axis=1)[:, :kk].sum(axis=1) / kk
        dens = np.where(mean_dist < labeling.DENSITY_EPS, 1e12,
                        1.0 / np.maximum(mean_dist, labeling.DENSITY_EPS))
        stds[c] = dens.std()
    return stds


class TestPointAnomalies:
    def test_blob_plus_far_point(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 1, (50, 2)), [[100.0, 100.0]]])
        cfg = LABELING._replace(num_clusters=1, knn_k=5,
                                pa_score_multiplier=2.0, seed=0)
        pa = detect_point_anomalies(pts, cfg)
        assert list(pa) == [50]

    def test_uniform_grid_no_anomalies(self):
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        cfg = LABELING._replace(num_clusters=1, knn_k=5,
                                pa_score_multiplier=10.0, seed=0)
        assert detect_point_anomalies(pts, cfg).size == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pts = np.vstack([rng.normal(0, 1, (40, 2)),
                         rng.normal(0, 1, (5, 2)) * 30])
        cfg = LABELING._replace(num_clusters=1, knn_k=5, seed=0)
        base = {int(i) for i in detect_point_anomalies(pts, cfg)}
        assert base  # the scaled tail points must register
        perm = rng.permutation(len(pts))
        got = detect_point_anomalies(pts[perm], cfg)
        assert {int(perm[i]) for i in got} == base

    def test_too_few_points(self):
        cfg = LABELING._replace(num_clusters=1, knn_k=5, seed=0)
        with pytest.raises(ValueError):
            detect_point_anomalies(np.zeros((5, 2)), cfg)


class TestRadiusTable:
    def test_collinear_golden(self):
        radii = build_radius_table(np.array([[0.0, 0], [1, 0], [2, 0]]))
        np.testing.assert_allclose(radii, [1.5, 1.0, 1.5], atol=1e-15)
        assert radii.mean() == pytest.approx(4 / 3, abs=1e-15)

    def test_symmetric_pair(self):
        radii = build_radius_table(np.array([[0.0, 0], [2, 0]]))
        np.testing.assert_array_equal(radii, [2.0, 2.0])

    def test_coincident_points(self):
        radii = build_radius_table(np.full((4, 2), 1.0))
        np.testing.assert_array_equal(radii, [0.0] * 4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            k = int(rng.integers(2, 13))
            d = int(rng.integers(1, 6))
            pts = rng.normal(0, 5, (k, d))
            radii = build_radius_table(pts)
            mdist, rad = brute_radius_table(pts.tolist())
            np.testing.assert_allclose(radii, mdist, atol=1e-12)
            assert radii.mean() == pytest.approx(rad, abs=1e-12)


class TestDetectCpa:
    def test_middle_point_huddles(self):
        radii = build_radius_table(np.array([[0.0, 0], [1, 0], [2, 0]]))
        assert list(detect_cpa(radii)) == [1]

    def test_all_equal_no_strict_winner(self):
        radii = build_radius_table(np.array([[0.0, 0], [2, 0]]))
        assert detect_cpa(radii).size == 0

    def test_outlier_among_outliers(self):
        assert list(detect_cpa(np.array([1.0, 100.0]))) == [0]


def nearest_centroids(pts, centroids):
    """``_nearest_centroids`` of the rows ``pts``, with its scratch
    buffer."""
    buf = np.empty((2, centroids.shape[0], pts.shape[0]))
    return labeling._nearest_centroids(pts.T.copy(), centroids, buf)


def broadcast_nearest_centroids(pts, centroids):
    """The (n, k, d) formula ``_nearest_centroids`` replaced."""
    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    return assign, d2[np.arange(pts.shape[0]), assign]


def broadcast_kmeans(points, k, seed):
    """The Lloyd loop on the broadcast formula, with its empty-cluster
    repair, for points with at least k distinct values; each centroid adds
    its members in row order.  Also returns how many repairs it made."""
    rng = np.random.default_rng(seed)
    centroids = points[rng.choice(len(points), size=k, replace=False)].copy()
    repairs = 0

    def nearest_repaired():
        nonlocal repairs
        assign, d2 = broadcast_nearest_centroids(points, centroids)
        for _ in range(k):
            empties = np.flatnonzero(np.bincount(assign, minlength=k) == 0)
            if empties.size == 0:
                break
            centroids[empties[0]] = points[int(d2.argmax())]
            assign, d2 = broadcast_nearest_centroids(points, centroids)
            repairs += 1
        return assign, d2

    assign, d2 = nearest_repaired()
    history = [float(d2.sum())]
    for _ in range(labeling.KMEANS_MAX_ITER):
        for c in range(k):
            members = points[assign == c]
            centroids[c] = np.add.accumulate(members)[-1] / len(members)
        new_assign, d2 = nearest_repaired()
        history.append(float(d2.sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centroids, assign, tuple(history), repairs


class TestKmeans:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_nearest_centroids_match_broadcast_formula(self, d):
        rng = np.random.default_rng(d)
        for trial in range(20):
            n, k = int(rng.integers(1, 80)), int(rng.integers(1, 9))
            if trial % 2:  # a lattice with repeated centroids: exact ties
                pts = rng.integers(-3, 4, (n, d)).astype(np.float64)
                cents = pts[rng.integers(0, n, k)]
            else:
                pts = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), (n, d))
                cents = rng.normal(0.0, pts.std() + 1.0, (k, d))
            got = nearest_centroids(pts, cents)
            want = broadcast_nearest_centroids(pts, cents)
            if d <= 7:
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
            else:  # numpy sums 8 or more terms pairwise
                np.testing.assert_allclose(got[1], want[1], rtol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 7])
    def test_matches_broadcast_lloyd_loop(self, d):
        rng = np.random.default_rng(40 + d)
        repairs = 0
        if d in (2, 3):  # a blob mixture of the size label_6k clusters
            centers = rng.uniform(0.0, 100.0, (5, d))
            pts = centers[rng.integers(0, 5, 5000)] \
                + rng.normal(0.0, 6.0, (5000, d))
            model = kmeans(pts, 5, 7)
            cents, assign, history, _ = broadcast_kmeans(pts, 5, 7)
            np.testing.assert_array_equal(model.centroids, cents)
            np.testing.assert_array_equal(model.assignment, assign)
            assert model.objective_history == history
            assert len(history) > 5  # several centroid updates ran
        for seed in range(12):
            if seed % 2:  # few distinct values: coincident initial
                base = rng.normal(0.0, 1.0, (4, d))  # centroids, repairs
                pts = base[rng.integers(0, 4, 30)]
            else:
                pts = rng.normal(0.0, 1.0, (int(rng.integers(5, 200)), d))
            k = int(rng.integers(1, 5))
            if np.unique(pts, axis=0).shape[0] < k:
                continue
            model = kmeans(pts, k, seed)
            cents, assign, history, made = broadcast_kmeans(pts, k, seed)
            np.testing.assert_array_equal(model.centroids, cents)
            np.testing.assert_array_equal(model.assignment, assign)
            assert model.objective_history == history
            repairs += made
        assert repairs > 0  # the empty-cluster repair path ran

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
        assert model.objective_history[-1] == pytest.approx(best, abs=1e-12)
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
        assert model.objective_history[-1] == pytest.approx(0.0, abs=1e-15)
        assert sorted(model.assignment) == list(range(6))

    def test_objective_non_increasing_and_fixpoint(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            pts = rng.random((60, 2))
            model = kmeans(pts, 4, seed=seed)
            diffs = np.diff(model.objective_history)
            assert np.all(diffs <= 1e-12)
            again = kmeans(pts, 4, seed=seed)
            np.testing.assert_array_equal(model.assignment, again.assignment)

    def test_fewer_distinct_points_than_k_drops_clusters(self):
        # no point can fill a third cluster: it is dropped, not an error
        pts = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 3)
        model = kmeans(pts, 3, seed=0)
        assert model.centroids.shape == (2, 2)
        assert model.objective_history[-1] == 0.0
        assert model.assignment.tolist() in ([0] * 3 + [1] * 3,
                                             [1] * 3 + [0] * 3)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_one_nonempty_cluster_per_distinct_value_up_to_k(self, data):
        # lattice points, many of them coincident
        d = data.draw(st.integers(1, 4))
        cells = data.draw(st.lists(
            st.lists(st.integers(-2, 2), min_size=d, max_size=d),
            min_size=1, max_size=40))
        scale = data.draw(st.sampled_from([1.0, 0.1, 1e3]))
        pts = np.array(cells, dtype=np.float64) * scale
        k = data.draw(st.integers(1, len(pts)))
        model = kmeans(pts, k, data.draw(st.integers(0, 2**32 - 1)))
        clusters = min(k, np.unique(pts, axis=0).shape[0])
        assert model.centroids.shape == (clusters, d)
        sizes = np.bincount(model.assignment, minlength=clusters)
        assert sizes.size == clusters and sizes.all()

    def test_nearest_centroids_tie_to_lowest_index(self):
        pts = np.array([[0.0, 0.0]])
        cents = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assign, _ = nearest_centroids(pts, cents)
        assert assign[0] == 0

    def test_nearest_centroids_many_ties_k9(self):
        # the nine lattice points around the origin: every point ties
        # between several of them, and coincident centroids tie exactly
        cents = np.array([[x, y] for x in (-1.0, 0.0, 1.0)
                          for y in (-1.0, 0.0, 1.0)])
        cents[8] = cents[4]  # a repeated centroid never wins
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [-0.5, 0.0], [0.0, -0.5],
                        [1.0, 1.0], [2.0, 2.0], [-0.5, -0.5], [0.5, -0.5]])
        assign, d2 = nearest_centroids(pts, cents)
        want = broadcast_nearest_centroids(pts, cents)
        np.testing.assert_array_equal(assign, want[0])
        np.testing.assert_array_equal(d2, want[1])
        assert assign.tolist() == [4, 4, 1, 3, 5, 5, 0, 3]

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
        spreads = cluster_density_stats(model, pts, knn_k=2)
        assert spreads[0] == pytest.approx(0.0, abs=1e-9)

    def test_threshold_is_mean_of_stds(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([rng.normal(0, 0.3, (15, 2)),
                         rng.normal(8, 1.5, (15, 2))])
        model = kmeans(pts, 2, seed=0)
        spreads = cluster_density_stats(model, pts, knn_k=3)
        assert spreads.shape == (2,) and spreads[0] != spreads[1]
        threshold = sum(spreads.tolist()) / 2
        assert list(detect_cna(spreads)) == \
            [c for c in range(2) if spreads[c] >= threshold]

    def test_singleton_cluster_zero(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [10.1, 10.0],
                        [10.0, 10.1]])
        model = kmeans(pts, 2, seed=2)
        spreads = cluster_density_stats(model, pts, knn_k=5)
        sizes = np.bincount(model.assignment)
        singleton = int(np.argmin(sizes))
        assert sizes[singleton] == 1
        assert spreads[singleton] == 0.0

    def test_coincident_members_capped(self):
        # each of the six coincident members has mean distance 0 to its 5
        # nearest, below DENSITY_EPS, so its density is the 1e12 cap
        pts = np.array([[1.0, 1.0]] * 6 + [[1.5, 1.0], [1.0, 2.0],
                                           [3.0, 3.0]])
        model = kmeans(pts, 1, seed=0)
        spreads = cluster_density_stats(model, pts, knn_k=5)
        np.testing.assert_array_equal(spreads,
                                      dense_density_std(model, pts, 5))
        assert spreads[0] == pytest.approx(1e12 * math.sqrt(2) / 3,
                                           rel=1e-9)


class TestDetectCna:
    def test_threshold_comparison(self):
        # the threshold is the mean spread, 0.2
        assert list(detect_cna(np.array([0.1, 0.3]))) == [1]

    def test_equality_included(self):
        assert list(detect_cna(np.array([0.5, 0.5]))) == [0, 1]

    def test_single_cluster_always_cna(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(0, 1, (20, 2))
        model = kmeans(pts, 1, seed=0)
        spreads = cluster_density_stats(model, pts, knn_k=4)
        assert list(detect_cna(spreads)) == [0]


    def test_one_cluster_on_reference_data_is_cna(self, caplog):
        # the >= rule: a single cluster's spread equals the mean threshold
        cfg = shipped()
        norm, _ = minmax_normalize(generate_synthetic(cfg.synthetic, 0))
        with caplog.at_level("INFO", logger="anomtax.labeling"):
            _, report = label_dataset(
                norm, LABELING._replace(num_clusters=1, knn_k=5,
                                        pa_score_multiplier=2.0, seed=0))
        assert (report.points, report.clusters, report.cna) == (195, 1, 184)
        assert report.nd == 0
        assert [r.levelname for r in caplog.records
                if "clusters are CNA" in r.message] == ["INFO"]

    def test_identical_points_all_cna(self):
        # no point anomalies, one distinct point, every spread 0 >= 0
        _, report = label_dataset(make_dataset(np.full((30, 2), 0.5)),
                                  LABELING._replace(num_clusters=5, seed=0))
        assert (report.clusters, report.nd, report.cna) == (1, 0, 30)
        assert report.pa == report.cpa == 0


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

        radii = build_radius_table(pts)
        dense_means = dense_distances(pts).sum(axis=1) / (self.N - 1)
        same(radii, dense_means)
        same(radii.mean(), dense_means.mean())

        model = kmeans(pts, 3, seed=0)
        got = cluster_density_stats(model, pts, knn_k=5)
        same(got, dense_density_std(model, pts, 5))

    def test_label_memory_linear_in_n(self):
        # the shipped mixture scaled to about 6000 points; the dense
        # (n, n, d) formulas peaked near 1.4 GB here
        mixture = shipped().synthetic
        scale = 6000 / 195
        spec = mixture._replace(
            blobs=tuple(b._replace(count=round(b.count * scale))
                        for b in mixture.blobs),
            scatter_count=round(mixture.scatter_count * scale))
        ds, _ = minmax_normalize(generate_synthetic(spec, 0))
        assert ds.n >= 5990
        tracemalloc.start()
        try:
            label_dataset(ds, LABELING._replace(num_clusters=5, knn_k=5,
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
        return make_dataset(pts)

    def test_partition_and_report(self):
        ds = self._dataset()
        labeled, report = label_dataset(
            ds, LABELING._replace(num_clusters=2, knn_k=5, seed=0))
        assert report.nd + report.cna + report.cpa + report.pa == ds.n
        counts = np.bincount(labeled.labels, minlength=4)
        assert (report.nd, report.cna, report.cpa, report.pa) == \
            tuple(int(c) for c in counts)

    def test_no_anomalies_propagates_empty(self):
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(8.0))
        ds = make_dataset(np.column_stack([xs.ravel(), ys.ravel()]))
        labeled, report = label_dataset(
            ds, LABELING._replace(num_clusters=2, knn_k=5,
                                  pa_score_multiplier=50.0, seed=0))
        assert report.pa == 0 and report.cpa == 0
        assert report.nd + report.cna == ds.n

    def test_csv_roundtrip_preserves_labels(self, tmp_path):
        labeled, _ = label_dataset(
            self._dataset(),
            LABELING._replace(num_clusters=2, knn_k=5, seed=0))
        path = tmp_path / "labeled.csv"
        save_csv(labeled, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.labels, labeled.labels)

    @pytest.mark.parametrize("rows, clusters, counts, labels", [
        ([[0.0, 0.0]] * 20 + [[1.0, 1.0]] * 20
         + [[5.0, 5.0], [9.0, 0.0], [0.0, 9.0]], 5,
         (43, 2, 0, 40, 1, 2), [1] * 40 + [2, 3, 3]),
        # -0.0 and 0.0 are one value: two distinct rows
        ([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]] * 2
         + [[1.0, 0.0], [1.0, -0.0]] * 2, 3,
         (12, 2, 0, 12, 0, 0), [1] * 12),
        # fewer points than clusters: one cluster per point
        ([[float(i), 0.0] for i in range(7)], 10,
         (7, 7, 0, 7, 0, 0), [1] * 7),
        ([[3.0, -1.5]] * 50, 5, (50, 1, 0, 50, 0, 0), [1] * 50),
    ], ids=["two-values", "signed-zeros", "seven-points", "identical"])
    def test_fewer_distinct_points_than_clusters(self, rows, clusters,
                                                 counts, labels):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labeled, report = label_dataset(
                make_dataset(np.array(rows)),
                LABELING._replace(num_clusters=clusters, seed=0))
        assert report_counts(report) == counts
        assert labeled.labels.tolist() == labels

    def test_points_with_underflowing_distance_share_a_cluster(self):
        # two distinct rows whose squared distance rounds to 0: k-means
        # cannot part them, so one cluster holds both
        pts = np.array([[0.0, -2.38191542e-165], [0.0, 1.89140052e-165]])
        labeled, report = label_dataset(
            make_dataset(pts),
            LABELING._replace(num_clusters=2, knn_k=1, seed=0))
        assert report.clusters == 1
        assert report_counts(report)[0] == 2

    def test_rigid_motion_invariance(self):
        ds = self._dataset(seed=3)
        cfg = LABELING._replace(num_clusters=2, knn_k=5, seed=0)
        labeled, _ = label_dataset(ds, cfg)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = make_dataset(ds.features @ rot.T + np.array([5.0, -3.0]))
        relabeled, _ = label_dataset(moved, cfg)
        np.testing.assert_array_equal(labeled.labels, relabeled.labels)


    def test_cna_labels_are_members_of_cna_clusters(self):
        # rebuild the pipeline from the public steps; np.isin is the oracle
        cfg = LABELING._replace(num_clusters=4, knn_k=5, seed=2)
        for seed in range(4):
            ds = self._dataset(seed)
            labeled, _ = label_dataset(ds, cfg)
            pa = detect_point_anomalies(ds.features, cfg)
            rest = np.setdiff1d(np.arange(ds.n), pa)
            model = kmeans(ds.features[rest], cfg.num_clusters, cfg.seed)
            spreads = cluster_density_stats(model, ds.features[rest],
                                            cfg.knn_k)
            cna = detect_cna(spreads)
            assert 0 < cna.size < cfg.num_clusters
            want = rest[np.isin(model.assignment, cna)]
            np.testing.assert_array_equal(
                np.flatnonzero(labeled.labels == AnomalyLabel.CNA), want)

    @pytest.mark.parametrize("seed", range(5))
    def test_cpa_labels_are_the_huddling_point_anomalies(self, seed):
        # the reference mixture; the double loop of acceptance criterion 1
        # is the oracle for which point anomalies huddle
        ds, _ = minmax_normalize(
            generate_synthetic(shipped(seed).synthetic, seed))
        labeled, report = label_dataset(
            ds, LABELING._replace(num_clusters=5, seed=seed))
        assert report.cpa > 0 and report.pa > 0
        anomalies = np.flatnonzero(labeled.labels >= AnomalyLabel.CPA)
        pts = ds.features[anomalies]
        k = len(pts)
        mdist = []
        for i in range(k):
            acc = 0.0
            for j in range(k):
                if i != j:
                    acc += math.sqrt(float(((pts[i] - pts[j]) ** 2).sum()))
            mdist.append(acc / (k - 1))
        rad = sum(mdist) / k
        want = [int(anomalies[i]) for i in range(k) if mdist[i] < rad]
        assert np.flatnonzero(labeled.labels == AnomalyLabel.CPA).tolist() \
            == want

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 80),
           d=st.integers(1, 3), clusters=st.integers(1, 4),
           j=st.integers(-8, 8))
    def test_labels_invariant_under_power_of_two_scaling(self, seed, n, d,
                                                         clusters, j):
        # multiplying by 2**j is exact, so every distance, mean, std and
        # centroid scales exactly and no comparison changes
        rng = np.random.default_rng(seed)
        pts = rng.normal(0.0, 1.0, (n, d))
        pts[: n // 4] *= 6.0  # some spread-out points to become anomalies
        gaps = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        # keep every kNN distance far above the density cap's 1e-12
        assume(gaps[~np.eye(n, dtype=bool)].min() > 1e-6)
        cfg = LABELING._replace(num_clusters=clusters, knn_k=3, seed=seed)
        labeled, report = label_dataset(make_dataset(pts), cfg)
        scaled, scaled_report = label_dataset(make_dataset(pts * 2.0 ** j),
                                              cfg)
        np.testing.assert_array_equal(scaled.labels, labeled.labels)
        assert report_counts(scaled_report) == report_counts(report)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(12, 120),
           d=st.integers(1, 3), knn_k=st.integers(1, 5),
           shift=st.lists(st.integers(-2**20, 2**20), min_size=3,
                          max_size=3))
    def test_pa_and_cpa_invariant_under_lattice_shift(self, seed, n, d,
                                                      knn_k, shift):
        # on integer points an integer shift leaves every coordinate
        # difference exact, so every distance, score and radius is the
        # same bits; k-means and CNA are left out, since their centroid
        # means round differently after a shift
        rng = np.random.default_rng(seed)
        pts = rng.integers(-50, 51, (n, d)).astype(np.float64)
        pts[: n // 4] *= 6.0  # some spread-out points to become anomalies
        moved = pts + np.array(shift[:d], dtype=np.float64)
        cfg = LABELING._replace(num_clusters=1, knn_k=knn_k)
        pa = detect_point_anomalies(pts, cfg)
        np.testing.assert_array_equal(detect_point_anomalies(moved, cfg), pa)
        if len(pa) >= 2:
            np.testing.assert_array_equal(
                detect_cpa(build_radius_table(moved[pa])),
                detect_cpa(build_radius_table(pts[pa])))

    @settings(max_examples=100, deadline=None)
    @given(blobs=st.lists(st.tuples(st.floats(0, 60), st.floats(0, 60),
                                    st.floats(0, 5), st.floats(0, 5),
                                    st.integers(1, 40)),
                          min_size=1, max_size=4),
           scatter=st.integers(0, 15), seed=st.integers(0, 2**32 - 1),
           clusters=st.integers(1, 5), knn_k=st.integers(1, 8))
    def test_partition_law(self, blobs, scatter, seed, clusters, knn_k):
        spec = SyntheticSpec(tuple(BlobSpec((cx, cy), (sx, sy), count)
                                   for cx, cy, sx, sy, count in blobs),
                             scatter, (-30, -30, 90, 90))
        ds = generate_synthetic(spec, seed)
        assume(ds.n > knn_k)
        cfg = LABELING._replace(num_clusters=clusters, knn_k=knn_k,
                                seed=seed)
        labeled, report = label_dataset(ds, cfg)
        labels = labeled.labels
        counts = np.bincount(labels, minlength=len(AnomalyLabel))
        assert counts.sum() == ds.n
        assert report_counts(report) == (ds.n, report.clusters,
                                         *counts.tolist())
        candidate = np.zeros(ds.n, dtype=bool)
        candidate[detect_point_anomalies(ds.features, cfg)] = True
        assert candidate[labels == AnomalyLabel.CPA].all()
        assert not candidate[(labels == AnomalyLabel.ND)
                             | (labels == AnomalyLabel.CNA)].any()


IRIS_SPLIT = (["petal_len", "petal_wid"], ["sepal_len", "sepal_wid"])


class TestLabelSupervised:
    def test_iris_like_shape(self, iris_like):
        cfg = LABELING._replace(num_clusters=3, knn_k=5, seed=0)
        labeled, reports = label_supervised(iris_like, cfg, *IRIS_SPLIT)
        assert [class_id for class_id, _ in reports] == [0, 1, 2]
        assert [r.points for _, r in reports] == [50, 50, 50]
        assert labeled.n == iris_like.n
        np.testing.assert_array_equal(labeled.class_ids, iris_like.class_ids)
        assert labeled.dim == 2

    def test_sub_dataset_sizes_sum_to_n(self, iris_like):
        cfg = LABELING._replace(num_clusters=3, knn_k=5, seed=0)
        _, reports = label_supervised(iris_like, cfg, *IRIS_SPLIT)
        assert sum(r.points for _, r in reports) == iris_like.n

    @pytest.mark.parametrize("retained, discarded", [
        (["r0", "r1"], ["d1"]),
        (["r0", "r1"], ["d0", "d1", "d2"]),
        (["r1", "r0"], ["d2", "d0"]),
    ], ids=["discarded1", "discarded3", "out-of-order"])
    def test_single_class_matches_unsupervised_pipeline(self, retained,
                                                        discarded):
        rng = np.random.default_rng(11)
        points = np.vstack([rng.normal((5, 5), 0.4, (55, 2)),
                            rng.uniform(-20, 30, (5, 2))])
        noise = rng.normal((2.0, 1.0, 3.0), 0.1, (60, 3))
        names = ["d0", "r0", "d1", "r1", "d2"]
        feats = np.column_stack([noise[:, 0], points[:, 0], noise[:, 1],
                                 points[:, 1], noise[:, 2]])
        ds = make_dataset(feats, names, class_ids=np.zeros(60, dtype=int))
        cfg = LABELING._replace(num_clusters=2, knn_k=5, seed=0)
        labeled, reports = label_supervised(ds, cfg, retained, discarded)
        assert len(reports) == 1

        # oracle: both lists in header order, the mean over the discarded
        # columns in that order, then the shift
        keep = [j for j, name in enumerate(names) if name in retained]
        drop = [j for j, name in enumerate(names) if name in discarded]
        norm, _ = minmax_normalize(ds)
        weights = sum(norm.features[:, j] for j in drop) / len(drop)
        agg = make_dataset(norm.features[:, keep] + weights[:, None],
                           [names[j] for j in keep])
        direct, direct_report = label_dataset(agg, cfg)
        np.testing.assert_array_equal(labeled.labels, direct.labels)
        np.testing.assert_array_equal(
            labeled.features, minmax_normalize(direct)[0].features)
        assert labeled.feature_names == ["r0", "r1"]
        assert report_counts(reports[0][1]) == report_counts(direct_report)

    def test_retained_keep_header_order(self, iris_like):
        cfg = LABELING._replace(num_clusters=3, knn_k=5, seed=0)
        listed, _ = label_supervised(iris_like, cfg, *IRIS_SPLIT)
        reversed_, _ = label_supervised(iris_like, cfg,
                                        ["petal_wid", "petal_len"],
                                        ["sepal_wid", "sepal_len"])
        assert reversed_.feature_names == ["petal_len", "petal_wid"]
        np.testing.assert_array_equal(reversed_.features, listed.features)
        np.testing.assert_array_equal(reversed_.labels, listed.labels)

    def test_tiny_class_degenerates_to_nd(self):
        rng = np.random.default_rng(12)
        feats = np.vstack([rng.random((30, 3)), rng.random((3, 3)) + 2])
        ds = make_dataset(feats, class_ids=[0] * 30 + [1] * 3)
        cfg = LABELING._replace(num_clusters=2, knn_k=5, seed=0)
        labeled, reports = label_supervised(ds, cfg, ["f0", "f1"], ["f2"])
        class_id, report = reports[1]
        assert class_id == 1 and report.points == 3 and report.nd == 3
        assert report.clusters == 0
        tiny = labeled.labels[np.asarray(ds.class_ids) == 1]
        assert set(tiny) == {int(AnomalyLabel.ND)}
