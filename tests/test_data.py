import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomtax.data import (
    AnomalyLabel,
    BlobSpec,
    CsvParseError,
    CsvStructureError,
    Dataset,
    LabelTokenError,
    SplitRatios,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    minmax_normalize,
    save_csv,
    stratified_split,
)
from anomtax.data import _largest_remainder
from anomtax.labeling import LabelingConfig, label_dataset, label_supervised


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,2\n3,4\n5,6\n")
        ds = load_csv(path)
        assert ds.n == 3 and ds.dim == 2
        assert ds.feature_names == ["x", "y"]
        np.testing.assert_array_equal(ds.features,
                                      [[1, 2], [3, 4], [5, 6]])
        assert ds.labels is None and ds.class_ids is None

    def test_label_column(self, tmp_path):
        path = _write(tmp_path, "x,y,label\n1,2,ND\n3,4,PA\n5,6,CPA\n")
        ds = load_csv(path)
        assert [AnomalyLabel(int(v)).name for v in ds.labels] == \
            ["ND", "PA", "CPA"]

    def test_class_column(self, tmp_path):
        path = _write(tmp_path, "x,class\n1,0\n2,1\n")
        ds = load_csv(path)
        assert list(ds.class_ids) == [0, 1]

    def test_text_in_feature_cell(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,2\n3,oops\n")
        with pytest.raises(CsvParseError, match=r"row 3, column 'y'"):
            load_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN",
                                       "Infinity"])
    def test_non_finite_feature_cell(self, tmp_path, token):
        path = _write(tmp_path, f"x,y\n1,2\n3,4\n{token},5\n")
        with pytest.raises(CsvParseError,
                           match=rf"row 4, column 'x'.*{token}"):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = _write(tmp_path, "x,y\n1,2\n3\n")
        with pytest.raises(CsvStructureError, match="row 3"):
            load_csv(path)

    @pytest.mark.parametrize("header, name", [
        ("x,y,x", "x"), ("x,class,class", "class"),
        ("x,label,label", "label"), ("x, x", "x"),
    ], ids=["feature", "class", "label", "after-strip"])
    def test_column_named_twice(self, tmp_path, header, name):
        width = header.count(",") + 1
        path = _write(tmp_path, header + "\n" + ",".join(["0"] * width)
                      + "\n")
        with pytest.raises(CsvStructureError) as info:
            load_csv(path)
        assert str(info.value) == \
            f"{path}: header names column {name!r} twice"

    def test_unknown_label_token(self, tmp_path):
        path = _write(tmp_path, "x,label\n1,ND\n2,WAT\n")
        with pytest.raises(LabelTokenError, match="WAT"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("text, error, match", [
        # the first faulty row wins, whatever its fault
        ("x,y,class,label\n1,2,0,ND\n3,4,0,WAT\n5,oops,x,ND\n",
         LabelTokenError, r"row 3, column 'label'"),
        ("x,y,class,label\n1,2,0,ND\ninf,oops,0,ND\n3,4,0,WAT\n",
         CsvParseError, r"row 3, column 'x': not a finite number: 'inf'"),
        # within a row: width, then features in column order, then class,
        # then label
        ("x,y,class,label\n1,oops,zz\n", CsvStructureError, r"row 2"),
        ("x,y,class,label\n1,oops,zz,WAT\n", CsvParseError,
         r"row 2, column 'y': not a number: 'oops'"),
        ("x,y,class,label\n1, nan ,zz,WAT\n", CsvParseError,
         r"row 2, column 'y': not a finite number: 'nan'"),
        ("x,y,class,label\n1,2,zz,WAT\n", CsvParseError,
         r"row 2, column 'class': not an integer: 'zz'"),
        # finite cells whose sum overflows are accepted
        ("x,y\n1e308,1e308\nnan,1\n", CsvParseError, r"row 3, column 'x'"),
    ])
    def test_which_error_wins(self, tmp_path, text, error, match):
        path = _write(tmp_path, text)
        with pytest.raises(error, match=match):
            load_csv(path)

    @pytest.mark.parametrize("cell, message", [
        ("-1", "not an integer in [0, 2^63): '-1'"),
        ("99999999999999999999",
         "not an integer in [0, 2^63): '99999999999999999999'"),
    ], ids=["negative", "past-int64"])
    def test_class_id_outside_int64_range(self, tmp_path, cell, message):
        path = _write(tmp_path, f"x,class\n1,0\n2, {cell}\n")
        with pytest.raises(CsvParseError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: row 3, column 'class': {message}"

    def test_cells_padded_with_any_whitespace(self, tmp_path):
        # str.strip removes the ASCII separators \x1c-\x1f, float() does not
        path = _write(tmp_path, "x,y\n\x1f1.5 , \t-2\n")
        np.testing.assert_array_equal(load_csv(path).features, [[1.5, -2.0]])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_roundtrip_fuzz(self, tmp_path_factory, data):
        n = data.draw(st.integers(0, 12))
        d = data.draw(st.integers(1, 4))
        cells = st.floats(allow_nan=False, allow_infinity=False)
        feats = np.array(data.draw(st.lists(
            st.lists(cells, min_size=d, max_size=d), min_size=n,
            max_size=n)), dtype=np.float64).reshape(n, d)
        class_ids = data.draw(st.one_of(
            st.none(), st.lists(st.integers(0, 9), min_size=n, max_size=n)))
        labels = data.draw(st.one_of(
            st.none(), st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        ds = Dataset(feats, [f"f{j}" for j in range(d)], class_ids, labels)
        path = tmp_path_factory.mktemp("fuzz") / "data.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.feature_names == ds.feature_names
        assert back.features.shape == (n, d)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(np.signbit(back.features),
                                      np.signbit(ds.features))
        for got, want in ((back.class_ids, ds.class_ids),
                          (back.labels, ds.labels)):
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_array_equal(got, want)

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.random((12, 3)) * 100 - 50,
                     ["a", "b", "c"],
                     class_ids=rng.integers(0, 2, 12),
                     labels=rng.integers(0, 4, 12))
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.class_ids, ds.class_ids)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestNormalize:
    def test_simple_column(self):
        ds = Dataset([[1.0], [2.0], [3.0]])
        norm, _ = minmax_normalize(ds)
        np.testing.assert_allclose(norm.features[:, 0], [0, 0.5, 1])

    def test_constant_column_maps_to_zero(self):
        ds = Dataset([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]])
        norm, _ = minmax_normalize(ds)
        np.testing.assert_array_equal(norm.features[:, 0], [0, 0, 0])

    def test_negative_range(self):
        ds = Dataset([[-2.0], [0.0], [2.0]])
        norm, _ = minmax_normalize(ds)
        np.testing.assert_allclose(norm.features[:, 0], [0, 0.5, 1])

    def test_idempotent_on_normalized(self):
        rng = np.random.default_rng(2)
        ds = Dataset(rng.random((25, 3)) * 7)
        norm, _ = minmax_normalize(ds)
        renorm, _ = minmax_normalize(norm)
        np.testing.assert_allclose(renorm.features, norm.features,
                                   atol=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            minmax_normalize(Dataset(np.zeros((0, 2))))


# Weighting and aggregation run inside labeling.label_supervised.  A class
# of at most knn_k rows is not labeled, so its output features are its
# weighted, shifted features min-max rescaled per column.
SMALL_CLASS = LabelingConfig(num_clusters=1, knn_k=5, seed=0)


def _supervised(features, retained, discarded, class_ids=None,
                cfg=SMALL_CLASS):
    """label_supervised over columns f0, f1, ...; one class by default."""
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    ds = Dataset(features, [f"f{j}" for j in range(d)],
                 class_ids=[0] * n if class_ids is None else class_ids)
    labeled, _ = label_supervised(ds, cfg, retained, discarded)
    return labeled


class TestWeighting:
    # a constant retained column normalizes to 0, so its output column is
    # the rescaled weight; the first two rows put the weights' range at
    # [0, 1], where the rescaling is exact
    def test_mean_of_discarded(self):
        out = _supervised([[0.0, 0.0, 0.0, 7.0], [1.0, 1.0, 1.0, 7.0],
                           [0.2, 0.4, 0.6, 7.0]],
                          ["f3"], ["f0", "f1", "f2"])
        w = out.features[2, 0]
        # independent summation
        assert w == pytest.approx((0.2 + 0.4 + 0.6) / 3, abs=1e-15)
        assert w == pytest.approx(0.4, abs=1e-15)

    def test_zero_values(self):
        # discarded values at their column minimum weigh exactly 0
        # and leave the retained value as it is: [0, 1, 0] + [0, 0, 1]
        out = _supervised([[3.0, 5.0, 0.2], [3.0, 5.0, 0.9],
                           [4.0, 6.0, 0.2]], ["f2"], ["f0", "f1"])
        np.testing.assert_array_equal(out.features[:, 0], [0.0, 1.0, 1.0])

    def test_single_discarded_is_identity(self):
        raw = np.array([0.9, 0.1, 0.5, 0.3])
        out = _supervised(np.column_stack([raw, np.full(4, 3.0)]),
                          ["f1"], ["f0"])
        np.testing.assert_array_equal(out.features[:, 0],
                                      (raw - 0.1) / (0.9 - 0.1))

    def test_no_discarded_rejected(self):
        with pytest.raises(ValueError, match="needs \\[data\\] retained "
                                             "and discarded"):
            _supervised([[0.5, 0.5], [0.1, 0.2]], ["f0", "f1"], [])


class TestAggregation:
    def test_shift_by_weight(self):
        # retained [0, 1, 0.5] plus weights [0, 1, 0.4] is [0, 2, 0.9]
        out = _supervised([[0.0, 0.0], [1.0, 1.0], [0.5, 0.4]],
                          ["f0"], ["f1"])
        assert out.features[2, 0] == pytest.approx(0.9 / 2, abs=1e-15)

    def test_zero_weights_identity(self):
        # a constant discarded column weighs every sample 0, which leaves
        # the unsupervised pipeline on the retained columns
        rng = np.random.default_rng(4)
        feats = np.column_stack([rng.random((40, 2)), np.full(40, 2.5)])
        cfg = LabelingConfig(num_clusters=2, knn_k=5, seed=0)
        out = _supervised(feats, ["f0", "f1"], ["f2"], cfg=cfg)
        norm, _ = minmax_normalize(Dataset(feats[:, :2]))
        direct, _ = label_dataset(norm, cfg)
        np.testing.assert_array_equal(out.labels, direct.labels)
        np.testing.assert_array_equal(
            out.features, minmax_normalize(direct)[0].features)

    def test_broadcast_over_retained(self):
        # the same weight shifts both retained columns
        out = _supervised([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0],
                           [0.5, 0.25, 0.4]], ["f0", "f1"], ["f2"])
        np.testing.assert_allclose(out.features[2], [0.9 / 2, 0.65 / 2],
                                   atol=1e-15)

    def test_matches_per_cell_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            feats = rng.random((n, d))
            cols = rng.permutation(d)
            cut = int(rng.integers(1, d))
            retained = [f"f{j}" for j in cols[:cut]]
            discarded = [f"f{j}" for j in cols[cut:]]
            out = _supervised(feats, retained, discarded)
            norm = minmax_normalize(Dataset(feats))[0].features
            keep, drop = sorted(cols[:cut]), sorted(cols[cut:])
            agg = np.empty((n, len(keep)))
            for i in range(n):
                weight = sum(norm[i, j] for j in drop) / len(drop)
                for jj, j in enumerate(keep):
                    agg[i, jj] = weight + norm[i, j]
            np.testing.assert_array_equal(
                out.features, minmax_normalize(Dataset(agg))[0].features)
            assert out.feature_names == [f"f{j}" for j in keep]

    def test_labels_carried_through(self):
        # each class's labels and features land back on its own rows:
        # interleaving the classes permutes the output the same way
        rng = np.random.default_rng(6)
        feats = np.vstack([rng.random((30, 3)), rng.random((30, 3)) + 4])
        class_ids = np.array([3] * 30 + [8] * 30)
        rows = np.column_stack([np.arange(30), np.arange(30, 60)]).ravel()
        cfg = LabelingConfig(num_clusters=2, knn_k=5, seed=0)
        blocks = _supervised(feats, ["f0", "f1"], ["f2"], class_ids, cfg)
        mixed = _supervised(feats[rows], ["f0", "f1"], ["f2"],
                            class_ids[rows], cfg)
        np.testing.assert_array_equal(mixed.class_ids, class_ids[rows])
        np.testing.assert_array_equal(mixed.labels, blocks.labels[rows])
        np.testing.assert_array_equal(mixed.features, blocks.features[rows])
        assert len(set(blocks.labels.tolist())) > 1


class TestStratifiedSplit:
    def _two_group_ds(self):
        labels = [0] * 10 + [3] * 10
        rng = np.random.default_rng(6)
        return Dataset(rng.random((20, 2)), labels=labels)

    def test_counts_per_group(self):
        train, val, test = stratified_split(self._two_group_ds(),
                                            SplitRatios(0.7, 0.15, 0.15), 1)
        assert list(np.bincount(train.labels, minlength=4)[[0, 3]]) == [7, 7]
        assert train.n + val.n + test.n == 20

    def test_identity_ratios(self):
        ds = self._two_group_ds()
        train, val, test = stratified_split(ds, SplitRatios(1.0, 0.0, 0.0), 1)
        assert train.n == 20 and val.n == 0 and test.n == 0
        np.testing.assert_array_equal(train.features, ds.features)

    def test_deterministic(self):
        ds = self._two_group_ds()
        a = stratified_split(ds, SplitRatios(), 42)
        b = stratified_split(ds, SplitRatios(), 42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_partition_and_proportions(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 80))
            labels = rng.integers(0, 4, n)
            ds = Dataset(rng.random((n, 2)), labels=labels)
            ratios = SplitRatios(0.6, 0.2, 0.2)
            parts = stratified_split(ds, ratios, int(rng.integers(1000)))
            assert sum(p.n for p in parts) == n
            # disjoint union: every feature row accounted for exactly once
            stacked = np.vstack([p.features for p in parts if p.n])
            assert stacked.shape[0] == n
            for value in range(4):
                g = int((labels == value).sum())
                if g == 0:
                    continue
                got = [int((p.labels == value).sum()) for p in parts]
                for target, actual in zip((0.6 * g, 0.2 * g, 0.2 * g), got):
                    assert abs(actual - target) <= 1.0

    def test_groups_drawn_in_ascending_order(self):
        # the RNG draws one permutation per group, in ascending key order
        def old_split_picks(key, ratios, seed):
            rng = np.random.default_rng(seed)
            picks = ([], [], [])
            for value in np.unique(key):
                grp = np.flatnonzero(key == value)
                grp = grp[rng.permutation(grp.size)]
                n_train, _, _ = _largest_remainder(grp.size, ratios)
                picks[0].extend(grp[:n_train])
            return sorted(picks[0])

        rng = np.random.default_rng(8)
        labels = rng.choice([0, 1, 3], 40)
        ds = Dataset(rng.random((40, 2)), labels=labels)
        ratios = SplitRatios(0.5, 0.25, 0.25)
        train, _, _ = stratified_split(ds, ratios, 3)
        want = old_split_picks(labels, ratios, 3)
        np.testing.assert_array_equal(train.features, ds.features[want])

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            SplitRatios(0.5, 0.1, 0.1)

    def test_needs_grouping_key(self):
        ds = Dataset([[1.0], [2.0]])
        with pytest.raises(ValueError):
            stratified_split(ds, SplitRatios(), 0)

    def test_class_ids_are_not_a_grouping_key(self):
        # grouping by these ids would count up to 2**40
        ds = Dataset([[1.0], [2.0]], class_ids=[0, 2**40])
        with pytest.raises(ValueError, match="needs anomaly labels"):
            stratified_split(ds, SplitRatios(), 0)


class TestSynthetic:
    def _spec(self):
        blobs = tuple(BlobSpec((10.0 * i, 5.0), (1.0, 1.0), 35 + i)
                      for i in range(5))
        return SyntheticSpec(blobs, 195 - sum(35 + i for i in range(5)),
                             (0, 0, 50, 20))

    def test_counts(self):
        ds = generate_synthetic(self._spec(), 0)
        assert ds.n == 195 and ds.dim == 2

    def test_zero_spread_blob(self):
        spec = SyntheticSpec((BlobSpec((3.0, 4.0), (0.0, 0.0), 10),))
        ds = generate_synthetic(spec, 1)
        assert np.all(ds.features == [3.0, 4.0])

    def test_deterministic(self):
        a = generate_synthetic(self._spec(), 9)
        b = generate_synthetic(self._spec(), 9)
        np.testing.assert_array_equal(a.features, b.features)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(
                SyntheticSpec((BlobSpec((0, 0), (1, 1), 0),)), 0)
        with pytest.raises(ValueError):
            generate_synthetic(
                SyntheticSpec((BlobSpec((0, 0), (1, 1), 3),), -1), 0)


class TestDataset:
    def test_rejects_mismatched_names(self):
        with pytest.raises(ValueError):
            Dataset([[1, 2]], ["only_one"])

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_rejects_labels_outside_taxonomy(self, bad):
        with pytest.raises(ValueError, match="AnomalyLabel"):
            Dataset([[1.0], [2.0]], labels=[0, bad])

    def test_immutable_arrays(self):
        ds = Dataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
