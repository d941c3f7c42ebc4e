"""Tests for dataset parsing, preprocessing, CV splitting, and mini-batches."""

import numpy as np
import pytest

from pggpc.data import (
    Standardizer,
    canonical_order,
    kfold,
    load,
    load_features,
    minibatch_iter,
    save,
    standardize,
)
from pggpc.model import Dataset

from oracles import unstandardize


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLibsvmParsing:
    def test_sparse_entries_fill_zeros(self, tmp_path):
        path = _write(tmp_path, "a.txt", "+1 1:0.5 3:2.0\n-1 2:1.5\n")
        data = load(path, "libsvm")
        np.testing.assert_array_equal(data.X, [[0.5, 0.0, 2.0], [0.0, 1.5, 0.0]])
        np.testing.assert_array_equal(data.y, [1.0, -1.0])

    def test_indices_in_any_order(self, tmp_path):
        path = _write(tmp_path, "a.txt", "1 3:1.0 1:2.0\n-1 2:5.0\n")
        data = load(path, "libsvm")
        np.testing.assert_array_equal(data.X, [[2.0, 0.0, 1.0], [0.0, 5.0, 0.0]])

    def test_n_features_pads_and_bounds(self, tmp_path):
        path = _write(tmp_path, "a.txt", "+1 1:1.0\n-1 2:2.0\n")
        data = load(path, "libsvm", n_features=5)
        assert data.X.shape == (2, 5)
        np.testing.assert_array_equal(data.X[:, 2:], 0.0)
        with pytest.raises(ValueError, match="exceeds n_features"):
            load(path, "libsvm", n_features=1)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = _write(tmp_path, "a.txt", "\n+1 1:1.0\n\n-1 1:2.0\n\n")
        assert load(path, "libsvm").n == 2

    def test_malformed_label_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "a.txt", "abc 1:2.0\n")
        with pytest.raises(ValueError, match=r":1: malformed label"):
            load(path, "libsvm")

    def test_malformed_entry_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "a.txt", "+1 1:1.0\n-1 1:oops\n")
        with pytest.raises(ValueError, match=r":2: malformed entry"):
            load(path, "libsvm")
        path2 = _write(tmp_path, "b.txt", "+1 nocolon\n")
        with pytest.raises(ValueError, match=r":1: malformed entry"):
            load(path2, "libsvm")

    @pytest.mark.parametrize("power", [45, 62])
    def test_huge_feature_index_is_named(self, tmp_path, power):
        # Two rows of 2^45 columns need 512 TiB, more than any address space
        # holds; 2^62 columns overflow NumPy's size computation instead.
        index = 2**power
        path = _write(tmp_path, "a.txt", f"+1 {index}:1\n-1 1:1\n")
        with pytest.raises(ValueError, match=rf"a\.txt: .*{index}"):
            load(path, "libsvm")

    def test_zero_index_rejected(self, tmp_path):
        path = _write(tmp_path, "a.txt", "+1 0:3.0\n")
        with pytest.raises(ValueError, match="1-based"):
            load(path, "libsvm")


class TestCsvParsing:
    def test_header_row_is_detected_and_skipped(self, tmp_path):
        path = _write(tmp_path, "a.csv", "label,f1,f2\n1,0.5,2.0\n0,1.5,-1.0\n")
        data = load(path, "csv")
        np.testing.assert_array_equal(data.X, [[0.5, 2.0], [1.5, -1.0]])
        np.testing.assert_array_equal(data.y, [1.0, -1.0])

    def test_headerless_numeric_first_row_is_data(self, tmp_path):
        path = _write(tmp_path, "a.csv", "1,0.5\n0,1.5\n")
        assert load(path, "csv").n == 2

    def test_negative_label_column(self, tmp_path):
        path = _write(tmp_path, "a.csv", "0.5,2.0,1\n1.5,-1.0,0\n")
        data = load(path, "csv", label_col=-1)
        np.testing.assert_array_equal(data.X, [[0.5, 2.0], [1.5, -1.0]])
        np.testing.assert_array_equal(data.y, [1.0, -1.0])

    def test_malformed_field_reports_line_number(self, tmp_path):
        path = _write(tmp_path, "a.csv", "1,0.5\n0,1.5\n1,bad\n")
        with pytest.raises(ValueError, match=r":3: malformed field 'bad'"):
            load(path, "csv")

    def test_ragged_rows_raise(self, tmp_path):
        path = _write(tmp_path, "a.csv", "1,0.5,2.0\n0,1.5\n")
        with pytest.raises(ValueError, match="expected 3 fields, found 2"):
            load(path, "csv")

    def test_label_column_out_of_range(self, tmp_path):
        path = _write(tmp_path, "a.csv", "1,0.5\n0,1.5\n")
        with pytest.raises(ValueError, match="out of range"):
            load(path, "csv", label_col=7)

    def test_label_column_alone_names_the_file(self, tmp_path):
        # It reached KernelParams.default(0): a divide-by-zero warning, then
        # an error naming log_lengthscale instead of the file.
        path = _write(tmp_path, "labels.csv", "1\n0\n1\n")
        with pytest.raises(ValueError, match=r"labels\.csv: no feature column"):
            load(path, "csv")

    def test_empty_file_raises(self, tmp_path):
        path = _write(tmp_path, "a.csv", "\n\n")
        with pytest.raises(ValueError, match="no data rows"):
            load(path, "csv")

    def test_load_features_keeps_every_column(self, tmp_path):
        path = _write(tmp_path, "a.csv", "0.5,2.0\n1.5,-1.0\n")
        X = load_features(path, "csv")
        np.testing.assert_array_equal(X, [[0.5, 2.0], [1.5, -1.0]])

    def test_unknown_format_rejected(self, tmp_path):
        path = _write(tmp_path, "a.csv", "1,0.5\n")
        with pytest.raises(ValueError, match="unknown format"):
            load(path, "arff")
        with pytest.raises(ValueError, match="unknown format"):
            load_features(path, "arff")


class TestLabelMapping:
    @pytest.mark.parametrize(
        "raw, mapped",
        [
            (("-1", "+1"), (-1.0, 1.0)),
            (("0", "1"), (-1.0, 1.0)),
            (("1", "2"), (-1.0, 1.0)),
        ],
    )
    def test_accepted_encodings(self, tmp_path, raw, mapped):
        text = f"{raw[0]} 1:1.0\n{raw[1]} 1:2.0\n{raw[0]} 1:3.0\n"
        data = load(_write(tmp_path, "a.txt", text), "libsvm")
        np.testing.assert_array_equal(data.y, [mapped[0], mapped[1], mapped[0]])

    def test_three_distinct_labels_rejected(self, tmp_path):
        path = _write(tmp_path, "a.txt", "0 1:1.0\n1 1:2.0\n2 1:3.0\n")
        with pytest.raises(ValueError, match="non-binary labels"):
            load(path, "libsvm")

    def test_unmapped_pair_rejected(self, tmp_path):
        path = _write(tmp_path, "a.txt", "3 1:1.0\n4 1:2.0\n")
        with pytest.raises(ValueError, match="non-binary labels"):
            load(path, "libsvm")


class TestRoundTrip:
    @pytest.mark.parametrize("format", ["libsvm", "csv"])
    def test_save_load_is_bit_exact(self, tmp_path, format):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 4)) * np.pi
        X[2, 1] = 0.0  # exercise sparse omission
        X[5, 3] = 0.0  # zero in the final column must still pin the width
        y = np.where(rng.random(8) < 0.5, -1.0, 1.0)
        original = Dataset(X, y)

        path = str(tmp_path / f"round.{format}")
        save(original, path, format)
        reloaded = load(path, format)
        np.testing.assert_array_equal(reloaded.X, original.X)
        np.testing.assert_array_equal(reloaded.y, original.y)

    def test_save_unknown_format(self, tmp_path):
        data = Dataset(np.zeros((2, 1)), np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="unknown format"):
            save(data, str(tmp_path / "x"), "parquet")


class TestStandardize:
    def test_zero_mean_unit_scale(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(loc=3.0, scale=5.0, size=(40, 3)),
                       np.where(rng.random(40) < 0.5, -1.0, 1.0))
        scaled, scaler = standardize(data)
        np.testing.assert_allclose(scaled.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.X.std(axis=0), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(scaled.y, data.y)
        np.testing.assert_allclose(unstandardize(scaler, scaled.X), data.X, rtol=1e-12)

    def test_constant_column_maps_to_zero(self):
        X = np.column_stack([np.arange(5.0), np.full(5, 7.0)])
        data = Dataset(X, np.array([-1.0, 1.0, -1.0, 1.0, -1.0]))
        scaled, scaler = standardize(data)
        np.testing.assert_array_equal(scaled.X[:, 1], 0.0)
        assert scaler.stds[1] == 1.0

    def test_transform_applies_train_statistics_to_new_data(self):
        rng = np.random.default_rng(2)
        train = Dataset(rng.normal(size=(30, 2)), np.ones(30))
        _, scaler = standardize(train)
        X_new = rng.normal(size=(4, 2))
        np.testing.assert_allclose(
            scaler.apply(X_new), (X_new - scaler.means) / scaler.stds, rtol=1e-15
        )

    def test_needs_two_records(self):
        with pytest.raises(ValueError, match="at least 2"):
            standardize(Dataset(np.ones((1, 2)), np.array([1.0])))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_column_near_the_float64_limit_keeps_its_spread(self):
        # A sum of squares of values near 1.8e308 overflows: the spread was
        # inf and the column standardized to all zeros.
        big = np.array([1.7e308, -1.7e308, 1.7e308, 1e308, -0.5e308, 0.0])
        X = np.column_stack([big, np.arange(6.0)])
        scaled, scaler = standardize(Dataset(X, np.ones(6)))
        small, small_scaler = standardize(Dataset(X / [1e300, 1.0], np.ones(6)))
        np.testing.assert_allclose(scaler.means / [1e300, 1.0], small_scaler.means, rtol=1e-14)
        np.testing.assert_allclose(scaler.stds / [1e300, 1.0], small_scaler.stds, rtol=1e-14)
        np.testing.assert_allclose(scaled.X, small.X, rtol=1e-13)
        np.testing.assert_array_equal(scaled.X[:, 1], small.X[:, 1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_apply_clamps_what_would_overflow(self):
        scaler = Standardizer(means=np.array([1.7e308, 0.0]), stds=np.array([1.7e308, 1e-300]))
        out = scaler.apply(np.array([[-1.7e308, 1e10], [1.7e308, -1e10]]))
        np.testing.assert_allclose(out[:, 0], [-2.0, 0.0], rtol=1e-15)
        np.testing.assert_array_equal(out[:, 1], [1e150, -1e150])


class TestKfold:
    def test_folds_partition_the_index_set(self):
        seen = []
        for train, test in kfold(23, 5, seed=0):
            assert np.intersect1d(train, test).size == 0
            assert np.union1d(train, test).size == 23
            seen.append(test)
        all_test = np.concatenate(seen)
        np.testing.assert_array_equal(np.sort(all_test), np.arange(23))
        sizes = sorted(t.size for t in seen)
        assert sizes == [4, 4, 5, 5, 5]

    def test_leave_one_out(self):
        tests = [test for _, test in kfold(6, 6, seed=1)]
        assert all(t.size == 1 for t in tests)
        np.testing.assert_array_equal(np.sort(np.concatenate(tests)), np.arange(6))

    def test_deterministic_in_seed(self):
        a = [test for _, test in kfold(50, 10, seed=3)]
        b = [test for _, test in kfold(50, 10, seed=3)]
        c = [test for _, test in kfold(50, 10, seed=4)]
        np.testing.assert_array_equal(np.concatenate(a), np.concatenate(b))
        assert not np.array_equal(np.concatenate(a), np.concatenate(c))

    def test_invalid_k(self):
        with pytest.raises(ValueError, match="2 <= k <= n"):
            kfold(5, 1, seed=0)
        with pytest.raises(ValueError, match="2 <= k <= n"):
            kfold(5, 6, seed=0)

    def test_canonical_order_is_permutation_invariant(self):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 3, size=(12, 2)).astype(float)
        y = np.where(rng.random(12) < 0.5, -1.0, 1.0)
        data = Dataset(X, y)
        perm = rng.permutation(12)
        shuffled = Dataset(X[perm], y[perm])
        a, b = canonical_order(data), canonical_order(shuffled)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        # sorted by first feature, then second, then label
        keys = list(zip(a.X[:, 0], a.X[:, 1], a.y))
        assert keys == sorted(keys)


class TestMinibatchIter:
    def test_epoch_partitions_without_replacement(self):
        n, s = 17, 5
        stream = minibatch_iter(n, s, seed=0)
        epoch = [next(stream) for _ in range(4)]  # ceil(17/5) = 4 batches
        sizes = [b.indices.size for b in epoch]
        assert sizes == [5, 5, 5, 2]
        for b in epoch:
            assert b.scale == n / b.indices.size
        combined = np.concatenate([b.indices for b in epoch])
        np.testing.assert_array_equal(np.sort(combined), np.arange(n))

    def test_epochs_are_reshuffled(self):
        stream = minibatch_iter(50, 50, seed=1)
        first, second = next(stream), next(stream)
        assert first.scale == 1.0
        assert not np.array_equal(first.indices, second.indices)
        np.testing.assert_array_equal(np.sort(second.indices), np.arange(50))

    def test_deterministic_in_seed(self):
        a = [next(minibatch_iter(20, 7, seed=5)) for _ in range(1)][0]
        b = [next(minibatch_iter(20, 7, seed=5)) for _ in range(1)][0]
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="batch size"):
            next(minibatch_iter(10, 0, seed=0))
        with pytest.raises(ValueError, match="batch size"):
            next(minibatch_iter(10, 11, seed=0))
