import numpy as np
import pytest

from dpselect.data import (
    CsvFormatError,
    EmptyDatasetError,
    LabeledDataset,
    MixtureComponent,
    MixtureSpec,
    gen_gaussian_outlier,
    gen_mixture,
    load_csv,
    split,
    subsample_class,
)


def make_dataset(n=10, d=3, num_classes=2, seed=0):
    r = np.random.default_rng(seed)
    return LabeledDataset(
        features=r.normal(size=(n, d)),
        labels=r.integers(0, num_classes, size=n),
        num_classes=num_classes,
    )


class TestLabeledDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            LabeledDataset(np.array([[np.nan, 0.0]]), np.array([0]), 2)
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 2]), 2)
        with pytest.raises(ValueError, match=r"features must be 2-D, got shape \(3,\)"):
            LabeledDataset(np.zeros(3), np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError, match=r"labels shape \(3,\) does not match 2 rows"):
            LabeledDataset(np.zeros((2, 2)), np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError, match="num_classes must be >= 1"):
            LabeledDataset(np.zeros((2, 2)), np.zeros(2, dtype=int), 0)

    def test_subset_and_counts(self):
        data = make_dataset(n=20)
        sub = data.subset(np.array([3, 1, 7]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.features, data.features[[3, 1, 7]])
        assert np.sum(data.labels == 0) + np.sum(data.labels == 1) == 20


class TestGaussianOutlier:
    def test_counts_and_single_outlier(self):
        data = gen_gaussian_outlier(1000, [10.0, 0.0], seed=4)
        assert len(data) == 1001
        assert np.sum(data.labels == 0) == 1
        # the outlier is appended after the majority block
        assert data.labels[-1] == 0

    def test_majority_mean_near_origin(self):
        data = gen_gaussian_outlier(1000, [10.0, 0.0], seed=4)
        majority = data.features[data.labels == 1]
        assert np.all(np.abs(majority.mean(axis=0)) < 0.15)

    def test_degenerate_overlap(self):
        data = gen_gaussian_outlier(1, [0.0, 0.0], seed=0)
        assert len(data) == 2

    def test_zero_majority_rejected(self):
        with pytest.raises(ValueError):
            gen_gaussian_outlier(0, [10.0, 0.0], seed=0)

    def test_deterministic(self):
        a = gen_gaussian_outlier(50, [10.0, 0.0], seed=11)
        b = gen_gaussian_outlier(50, [10.0, 0.0], seed=11)
        np.testing.assert_array_equal(a.features, b.features)


class TestMixture:
    def test_counts_and_labels(self):
        spec = MixtureSpec(
            (
                MixtureComponent((0.0, 0.0), 1.0, 5, 0),
                MixtureComponent((3.0, 0.0), 1.0, 5, 1),
            )
        )
        data = gen_mixture(spec, seed=1)
        assert len(data) == 10
        assert np.sum(data.labels == 0) == 5 and np.sum(data.labels == 1) == 5
        # components are laid out in spec order
        np.testing.assert_array_equal(data.labels, [0] * 5 + [1] * 5)

    def test_full_covariance_shapes_cloud(self):
        cov = np.array([[4.0, 0.0], [0.0, 0.01]])
        spec = MixtureSpec((MixtureComponent((0.0, 0.0), cov, 4000, 0),))
        data = gen_mixture(spec, seed=2)
        var = data.features.var(axis=0)
        assert var[0] > 3.0 and var[1] < 0.05

    def test_no_components_rejected(self):
        with pytest.raises(ValueError, match="mixture needs at least one component"):
            MixtureSpec(())

    def test_invalid_covariance_rejected(self):
        # symmetric but indefinite: eigenvalues 3 and -1
        with pytest.raises(ValueError, match="semi-definite"):
            MixtureSpec(
                (MixtureComponent((0.0, 0.0), np.array([[1.0, 2.0], [2.0, 1.0]]), 5, 0),)
            )


class TestSubsampleClass:
    def test_other_class_untouched(self):
        data = make_dataset(n=200, seed=3)
        out = subsample_class(data, 0, 0.2, seed=5)
        assert np.sum(out.labels == 1) == np.sum(data.labels == 1)
        assert np.sum(out.labels == 0) < np.sum(data.labels == 0)

    def test_p_one_keeps_everything(self):
        data = make_dataset(n=50, seed=3)
        out = subsample_class(data, 0, 1.0, seed=5)
        np.testing.assert_array_equal(out.features, data.features)

    def test_order_preserved(self):
        data = make_dataset(n=200, seed=3)
        out = subsample_class(data, 0, 0.4, seed=5)
        # surviving rows appear in the same relative order as the source
        src = data.features.tolist()
        positions = [src.index(row.tolist()) for row in out.features]
        assert positions == sorted(positions)

    def test_bad_arguments(self):
        data = make_dataset()
        with pytest.raises(ValueError):
            subsample_class(data, 9, 0.5, seed=0)
        with pytest.raises(ValueError):
            subsample_class(data, 0, 1.5, seed=0)


class TestSplit:
    def test_sizes_and_disjointness(self):
        data = make_dataset(n=101, seed=6)
        train, test = split(data, 0.7, seed=0)
        assert len(train) == 70 and len(test) == 31
        all_rows = np.vstack([train.features, test.features])
        assert np.unique(all_rows, axis=0).shape[0] == 101

    def test_empty_side_rejected(self):
        data = make_dataset(n=5)
        with pytest.raises(ValueError):
            split(data, 0.05, seed=0)
        with pytest.raises(ValueError):
            split(data, 1.0, seed=0)

    def test_deterministic(self):
        data = make_dataset(n=40, seed=6)
        a, _ = split(data, 0.5, seed=9)
        b, _ = split(data, 0.5, seed=9)
        np.testing.assert_array_equal(a.features, b.features)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        data = make_dataset(n=17, d=4, seed=8)
        path = tmp_path / "data.csv"
        np.savetxt(path, np.column_stack([data.features, data.labels]), fmt="%.17g",
                   delimiter=",")
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.features, data.features)
        np.testing.assert_array_equal(loaded.labels, data.labels)

    def test_headerless_with_label_position(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
        data = load_csv(path, label_column=-1)
        assert data.input_dim == 2 and len(data) == 2

    @pytest.mark.parametrize("label_column", [3, -4])
    def test_label_position_out_of_range(self, tmp_path, label_column):
        path = tmp_path / "raw.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        with pytest.raises(CsvFormatError, match="out of range for 3 columns"):
            load_csv(path, label_column=label_column)
        np.testing.assert_array_equal(load_csv(path, label_column=-3).labels, [0, 1, 2])

    def test_label_column_by_name(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("x,target,y\n1.0,0,2.0\n3.0,1,4.0\n")
        data = load_csv(path, label_column="target")
        np.testing.assert_array_equal(data.labels, [0, 1])
        np.testing.assert_array_equal(data.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_signed_labels_map_to_dense_indices(self, tmp_path):
        path = tmp_path / "pm.csv"
        path.write_text("0.5,-1\n0.6,1\n0.7,-1\n")
        data = load_csv(path)
        np.testing.assert_array_equal(data.labels, [0, 1, 0])

    def test_bad_feature_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,oops,1\n")
        # data rows and columns are reported 1-based, header excluded
        with pytest.raises(CsvFormatError, match=r"row 2.*column 2"):
            load_csv(path)

    @pytest.mark.parametrize("text, label_column, error, match", [
        ("x,y,label\n", -1, EmptyDatasetError, "contains a header but no data rows"),
        ("1.0,2.0,0\n3.0,4.0,1\n", "label", CsvFormatError,
         "label column 'label' requires a header row"),
        ("x,y,label\n1.0,2.0,0\n", "target", CsvFormatError,
         r"label column 'target' not in header \['x', 'y', 'label'\]"),
        ("1.0,2.0,0\n3.0,1\n", -1, CsvFormatError, "row 2: expected 3 cells, got 2"),
    ], ids=["header_only", "name_without_header", "name_not_in_header", "ragged_row"])
    def test_malformed_file_rejected(self, tmp_path, text, label_column, error, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(error, match=match):
            load_csv(path, label_column=label_column)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")
