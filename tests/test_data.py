import numpy as np
import pytest

from anomtax.data import (
    AnomalyLabel,
    BlobSpec,
    CsvParseError,
    CsvStructureError,
    Dataset,
    LabelTokenError,
    NormalizationParams,
    SplitRatios,
    SyntheticSpec,
    aggregate_features,
    compute_sample_weights,
    generate_synthetic,
    load_csv,
    minmax_normalize,
    save_csv,
    stratified_split,
)


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
        assert ds.num_classes == 2

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

    def test_unknown_label_token(self, tmp_path):
        path = _write(tmp_path, "x,label\n1,ND\n2,WAT\n")
        with pytest.raises(LabelTokenError, match="WAT"):
            load_csv(path)

    def test_schema_roles(self, tmp_path):
        path = _write(tmp_path, "a,b,c\n1,2,3\n")
        ds = load_csv(path, schema={"a": "feature", "b": "ignore",
                                    "c": "feature"})
        assert ds.feature_names == ["a", "c"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

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

    def test_params_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.random((30, 4)) * 10 - 3)
        norm, params = minmax_normalize(ds)
        np.testing.assert_array_equal(params.apply(ds.features),
                                      norm.features)

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

    def test_params_file_roundtrip(self, tmp_path):
        params = NormalizationParams(("a", "b"),
                                     np.array([0.1, -2.0]),
                                     np.array([0.9, 3.5]))
        path = tmp_path / "norm.txt"
        params.save(path)
        back = NormalizationParams.load(path)
        assert back.feature_names == ("a", "b")
        np.testing.assert_array_equal(back.mins, params.mins)
        np.testing.assert_array_equal(back.maxs, params.maxs)


class TestWeighting:
    def test_mean_of_discarded(self):
        ds = Dataset([[0.2, 0.4, 0.6, 0.5]])
        w = compute_sample_weights(ds, [0, 1, 2])
        # independent summation
        assert w[0] == pytest.approx((0.2 + 0.4 + 0.6) / 3, abs=1e-15)
        assert w[0] == pytest.approx(0.4, abs=1e-15)

    def test_zero_values(self):
        ds = Dataset([[0.0, 0.0, 0.0, 1.0]])
        assert compute_sample_weights(ds, [0, 1, 2])[0] == 0.0

    def test_single_discarded_is_identity(self):
        ds = Dataset([[0.9, 0.1]])
        assert compute_sample_weights(ds, [0])[0] == 0.9

    def test_no_discarded_rejected(self):
        ds = Dataset([[0.5, 0.5]])
        with pytest.raises(ValueError):
            compute_sample_weights(ds, [])

    def test_unnormalized_rejected(self):
        ds = Dataset([[5.0, 1.0]])
        with pytest.raises(ValueError):
            compute_sample_weights(ds, [0])


class TestAggregation:
    def test_shift_by_weight(self):
        ds = Dataset([[0.5, 0.3]])
        out = aggregate_features(ds, [0], np.array([0.4]))
        assert out.features[0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_zero_weights_identity(self):
        rng = np.random.default_rng(4)
        ds = Dataset(rng.random((10, 3)))
        out = aggregate_features(ds, [0, 2], np.zeros(10))
        np.testing.assert_array_equal(out.features, ds.features[:, [0, 2]])

    def test_broadcast_over_retained(self):
        ds = Dataset([[0.2, 0.6, 0.9]])
        out = aggregate_features(ds, [0, 1], np.array([0.1]))
        np.testing.assert_allclose(out.features[0], [0.3, 0.7], atol=1e-15)

    def test_matches_per_cell_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, d = int(rng.integers(1, 20)), int(rng.integers(2, 6))
            ds = Dataset(rng.random((n, d)))
            retained = sorted(rng.choice(d, size=int(rng.integers(1, d + 1)),
                                         replace=False))
            weights = rng.random(n)
            out = aggregate_features(ds, retained, weights)
            for i in range(n):
                for jj, j in enumerate(retained):
                    assert out.features[i, jj] == \
                        weights[i] + ds.features[i, j]

    def test_bad_weight_length(self):
        ds = Dataset([[0.1], [0.2]])
        with pytest.raises(ValueError):
            aggregate_features(ds, [0], np.zeros(3))

    def test_labels_carried_through(self):
        ds = Dataset([[0.1, 0.2]], labels=[2], class_ids=[1])
        out = aggregate_features(ds, [1], np.array([0.0]))
        assert list(out.labels) == [2] and list(out.class_ids) == [1]


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

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            SplitRatios(0.5, 0.1, 0.1)

    def test_needs_grouping_key(self):
        ds = Dataset([[1.0], [2.0]])
        with pytest.raises(ValueError):
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

    def test_rejects_bad_class_range(self):
        with pytest.raises(ValueError):
            Dataset([[1], [2]], class_ids=[0, 5], num_classes=2)

    def test_immutable_arrays(self):
        ds = Dataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    def test_sample_view(self):
        ds = Dataset([[1.0, 2.0], [3.0, 4.0]], class_ids=[1, 0],
                     labels=[0, 3])
        s = ds.sample(1)
        assert s.id == 1 and s.class_id == 0
        assert s.anomaly_label is AnomalyLabel.PA
        np.testing.assert_array_equal(s.features, [3.0, 4.0])
