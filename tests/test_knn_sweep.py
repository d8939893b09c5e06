"""The sorted-sweep kNN scores against all-pairs oracles, on random and
degenerate inputs."""

import csv
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomtax import labeling
from anomtax.cli import main
from anomtax.labeling import detect_point_anomalies
from conftest import fresh_stdout, shipped


def dense_knn_scores(pts, k):
    """All pairs at once, diagonal = inf, sort, sum the first k."""
    diff = pts[:, None, :] - pts[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    return np.sort(dists, axis=1)[:, :k].sum(axis=1) / k


def blocked_knn_scores(pts, k, rows=256):
    """The dense oracle a few rows at a time, for inputs too large for
    an (n, n, d) temporary."""
    n = pts.shape[0]
    scores = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        diff = pts[lo:hi, None, :] - pts[None, :, :]
        dists = np.sqrt((diff * diff).sum(axis=2))
        dists[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        scores[lo:hi] = np.sort(dists, axis=1)[:, :k].sum(axis=1) / k
    return scores


@st.composite
def point_sets(draw):
    k = draw(st.integers(1, 12))
    n = draw(st.integers(k + 1, 300))
    d = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 1e-160 puts every squared gap in the subnormal range, where the
    # distance formula loses most of its relative precision
    scale = draw(st.sampled_from([1e-160, 1e-3, 1.0, 1e6]))
    pts = rng.normal(0.0, scale, (n, d))
    if draw(st.booleans()):  # a lattice: tied distances, runs of equal
        pts = np.round(pts / scale * 2.0) * scale  # sort coordinates
    if draw(st.booleans()):  # coincident points
        dup = rng.integers(0, n, n // 3)
        pts[dup] = pts[rng.integers(0, n, dup.size)]
    if draw(st.booleans()):  # one coordinate constant
        pts[:, rng.integers(0, d)] = scale
    if draw(st.booleans()):  # near-coincident: subnormal coordinate gaps
        near = rng.integers(0, n, n // 4)
        pts[near] = rng.integers(0, 50, (near.size, d)) * 5e-324
    if draw(st.booleans()):  # a few far outliers
        far = rng.integers(0, n, 3)
        pts[far] = rng.normal(0.0, 1e4 * scale, (3, d))
    if draw(st.booleans()):  # every coordinate constant, the sorted one too
        pts[:] = pts[0]
    return pts, k


class TestSortedSweep:
    @settings(max_examples=150, deadline=None)
    @given(case=point_sets(), sweep_rows=st.sampled_from([1, 2, 3, 8, 128]),
           block=st.sampled_from([1, 40, 1 << 21]))
    def test_matches_dense_oracle(self, case, sweep_rows, block):
        pts, k = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(labeling, "SWEEP_ROWS", sweep_rows)
            mp.setattr(labeling, "BLOCK_ELEMENTS", block)
            got = labeling._knn_scores(pts, k)
        np.testing.assert_array_equal(got, dense_knn_scores(pts, k))

    def test_window_and_strip_paths_both_run(self, monkeypatch):
        redone = []
        real = labeling._strip_groups

        def spy(rows, first, last):
            redone.append(rows.size)
            return real(rows, first, last)

        monkeypatch.setattr(labeling, "_strip_groups", spy)
        monkeypatch.setattr(labeling, "SWEEP_ROWS", 4)
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 0.05, (150, 2)),
                         rng.uniform(-3, 3, (30, 2))])
        got = labeling._knn_scores(pts, 5)
        assert 0 < redone[0] < pts.shape[0]
        np.testing.assert_array_equal(got, dense_knn_scores(pts, 5))

    def test_nearest_point_one_row_past_the_window(self, monkeypatch):
        # six points: row 0's window is rows 0-3 (the window reaches
        # isqrt(2 * 6) = 3 rows); its nearest neighbor is row 4, the last
        # row of its strip
        monkeypatch.setattr(labeling, "SWEEP_ROWS", 1)
        pts = np.array([[0.0, 0.0], [0.1, 10.0], [0.2, 10.0], [0.3, 10.0],
                        [0.4, 0.0], [100.0, 0.0]])
        got = labeling._knn_scores(pts, 1)
        assert got[0] == pytest.approx(0.4)
        np.testing.assert_array_equal(got, dense_knn_scores(pts, 1))

    @pytest.mark.parametrize("pts,expected", [
        # row 3's window holds row 4 at distance 0 (its squared gap
        # underflows), but row 4's x differs from row 3's, so an unwidened
        # strip of x == 0 would miss it
        ([[0.0, 1e-160], [0.0, -1e-160], [0.0, 2e-160], [0.0, 0.0],
          [1.5e-322, 0.0], [1e-159, 0.0]], 0.0),
        # row 2's window holds row 0 at distance 1.0, but their x gap is
        # 1 + 2**-60 before rounding, just past an unwidened strip
        ([[-2.0**-60, 0.0], [0.5, 1.5], [1.0, 0.0], [1.2, 1.5],
          [1.4, 1.5], [1.6, 1.5], [10.0, 0.0]], 1.0),
    ], ids=["underflowing-square", "rounded-difference"])
    def test_strip_keeps_points_tied_with_the_bound(self, monkeypatch, pts,
                                                     expected):
        monkeypatch.setattr(labeling, "SWEEP_ROWS", 1)
        monkeypatch.setattr(labeling, "BLOCK_ELEMENTS", 1)  # one row a group
        pts = np.array(pts)
        row = 3 if expected == 0.0 else 2
        got = labeling._knn_scores(pts, 1)
        assert got[row] == expected
        np.testing.assert_array_equal(got, dense_knn_scores(pts, 1))

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts Linux minor page faults")
    def test_blocks_reuse_their_buffers(self, tmp_path):
        # 6,000 points make 47 blocks of two 128 x 346 distance arrays,
        # ~33 MB: fresh arrays per block fault in ~8,100 new 4 KiB pages
        # in a fresh process, reused buffers ~500
        code = ("import resource\n"
                "import numpy as np\n"
                "from anomtax import labeling\n"
                "pts = np.random.default_rng(0).random((6000, 2))\n"
                "usage = resource.getrusage(resource.RUSAGE_SELF)\n"
                "labeling._knn_scores(pts, 5)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
                " - usage.ru_minflt)")
        assert int(fresh_stdout(code, tmp_path)) < 2500


class TestDegenerateInputs:
    def test_vertical_line(self):
        # the sweep sorts on the line's own axis
        y = np.random.default_rng(1).uniform(0, 1, 6000)
        pts = np.column_stack([np.full(6000, 0.5), y])
        np.testing.assert_array_equal(labeling._knn_scores(pts, 5),
                                      blocked_knn_scores(pts, 5))

    def test_identical_points_scan_whole_set_in_bounded_memory(self):
        # every strip is the whole set, so every row is measured against
        # all points, still in blocks of BLOCK_ELEMENTS
        pts = np.full((6000, 2), 0.25)
        tracemalloc.start()
        try:
            got = labeling._knn_scores(pts, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20
        np.testing.assert_array_equal(got, np.zeros(6000))

    @pytest.mark.parametrize("sweep_rows,k", [(4, 9), (128, 300)])
    def test_knn_k_larger_than_sweep_block(self, monkeypatch, sweep_rows,
                                           k):
        monkeypatch.setattr(labeling, "SWEEP_ROWS", sweep_rows)
        pts = np.random.default_rng(2).normal(0, 1, (700, 2))
        np.testing.assert_array_equal(labeling._knn_scores(pts, k),
                                      dense_knn_scores(pts, k))

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_one_more_point_than_k(self, k):
        pts = np.random.default_rng(k).normal(0, 1, (k + 1, 3))
        pts[0] *= 20.0
        expected = dense_knn_scores(pts, k)
        np.testing.assert_array_equal(labeling._knn_scores(pts, k), expected)
        cfg = shipped().labeling._replace(knn_k=k, pa_score_multiplier=1.0)
        np.testing.assert_array_equal(
            detect_point_anomalies(pts, cfg),
            np.flatnonzero(expected > expected.mean() + expected.std()))

    @pytest.mark.parametrize("rows", [
        [(1.5, 2.5)] * 40,
        [(3.0, 0.1 * i) for i in range(40)],
        [(i, 2.0 * i + 1.0) for i in range(40)],
    ], ids=["identical", "vertical", "diagonal"])
    def test_cli_label(self, tmp_path, rows):
        data = tmp_path / "in.csv"
        with open(data, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([("x", "y")] + rows)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--seed", "0", "--quiet", "--out", str(out),
                         "label", str(data)])
        assert code == 0
        with open(out / "labeling_report.csv", encoding="utf-8") as fh:
            header, values = list(csv.reader(fh))
        report = dict(zip(header[1:], map(int, values[1:])))
        assert report["#Point"] == len(rows)
        assert sum(report["#" + name] for name in
                   ("ND", "CNA", "CPA", "PA")) == len(rows)
