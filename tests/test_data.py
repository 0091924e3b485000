"""Tests for feature-matrix preprocessing and the Gram matrix."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramclust import (
    FeatureMatrix, GramMatrix, cluster_features, gram, preprocess_dataset, standardize_columns,
)
from gramclust import data
from gramclust.data import _layout, read_feature_csv, standardized_gram
from gramclust.errors import AllColumnsConstantError, DataError, NonFiniteInputError
from tests.conftest import traced_peak


class TestFeatureMatrix:
    def test_rejects_nan(self):
        with pytest.raises(NonFiniteInputError):
            FeatureMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_rejects_inf(self):
        with pytest.raises(NonFiniteInputError):
            FeatureMatrix(np.array([[1.0, np.inf], [2.0, 3.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.ones((1, 3)))

    def test_values_read_only(self):
        fm = FeatureMatrix(np.eye(3))
        with pytest.raises(ValueError):
            fm.values[0, 0] = 9.0


@pytest.mark.parametrize("cls", [FeatureMatrix, GramMatrix])
class TestAdoptOrCopy:
    def test_writable_input_copied(self, cls):
        src = np.eye(3)
        m = cls(src)
        src[0, 0] = 9.0
        assert m.values[0, 0] == 1.0

    def test_read_only_view_copied(self, cls):
        base = np.eye(4)
        base.setflags(write=False)
        view = base[:3, :3]
        m = cls(view)
        assert not np.shares_memory(m.values, base)

    def test_frozen_owned_array_adopted(self, cls):
        a = np.eye(3)
        a.setflags(write=False)
        assert cls(a).values is a

    def test_leading_view_of_frozen_owner_adopted(self, cls):
        # the CSV reader hands over the leading rows of its frozen buffer
        base = np.ones(10)
        base.setflags(write=False)
        view = base[:9].reshape(3, 3)
        assert cls(view).values is view

    def test_leading_view_of_writable_owner_copied(self, cls):
        base = np.ones(10)
        view = base[:9].reshape(3, 3)
        view.setflags(write=False)
        m = cls(view)
        assert not np.shares_memory(m.values, base)

    def test_frozen_non_finite_rejected(self, cls):
        a = np.eye(3)
        a[1, 1] = np.nan
        a.setflags(write=False)
        with pytest.raises(NonFiniteInputError):
            cls(a)


class TestStandardize:
    def test_simple_column(self):
        fm = FeatureMatrix(np.array([[1.0], [2.0], [3.0]]))
        out = standardize_columns(fm)
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        fm = FeatureMatrix(rng.normal(size=(8, 5)))
        once = standardize_columns(fm)
        twice = standardize_columns(once)
        assert np.max(np.abs(twice.values - once.values)) < 1e-10

    def test_constant_column_dropped(self):
        fm = FeatureMatrix(np.array([[5.0, 0.0], [5.0, 1.0], [5.0, 2.0]]))
        out = standardize_columns(fm)
        assert out.n_features == 1
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0])

    def test_all_constant_raises(self):
        fm = FeatureMatrix(np.full((3, 2), 7.0))
        with pytest.raises(AllColumnsConstantError):
            standardize_columns(fm)

    @pytest.mark.parametrize("scale", [1e200, 1e307], ids=["sd", "mean"])
    def test_overflowing_column_named(self, scale):
        # at 1e200 the squared deviations overflow, at 1e307 the mean does;
        # either column was zeroed or dropped, and no numpy warning shows
        x = np.random.default_rng(4).normal(size=(20, 6))
        x[:, 2] = scale * (1.0 + np.arange(20) / 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInputError, match="^feature column 3 "):
                standardize_columns(FeatureMatrix(x))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_output_is_standardized(self, seed):
        rng = np.random.default_rng(seed)
        fm = FeatureMatrix(rng.normal(size=(6, 4)) * 3.0 + 10.0)
        out = standardize_columns(fm)
        assert np.max(np.abs(out.values.mean(axis=0))) < 1e-10
        assert np.max(np.abs(out.values.std(axis=0, ddof=1) - 1.0)) < 1e-8


class TestPreprocess:
    def test_log_median_sd_chain(self):
        col = np.array([[1.0], [math.e], [math.e**2]])
        out = preprocess_dataset(FeatureMatrix(col))
        np.testing.assert_allclose(out.values[:, 0], [-1.0, 0.0, 1.0])

    def test_no_log_when_any_nonpositive(self):
        # the medians (2, 0) differ from the means (3, 4/3): the result is
        # standardized, not median-centred
        x = np.array([[1.0, -1.0], [2.0, 0.0], [6.0, 5.0]])
        out = preprocess_dataset(FeatureMatrix(x))
        mean = x.mean(axis=0)
        sd = x.std(axis=0, ddof=1)
        np.testing.assert_allclose(out.values, (x - mean) / sd)

    def test_constant_column_dropped(self):
        x = np.array([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]])
        out = preprocess_dataset(FeatureMatrix(x))
        assert out.n_features == 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_never_produces_nan(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 6))
        x[:, 0] = 3.25  # one constant column to exercise the drop path
        out = preprocess_dataset(FeatureMatrix(x))
        assert np.all(np.isfinite(out.values))


class TestGram:
    def test_hand_case(self):
        fm = FeatureMatrix(np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]]))
        g = gram(fm)
        np.testing.assert_allclose(
            g.values, [[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]
        )

    def test_duplicate_rows(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 40))
        x[3] = x[1]
        fm = standardize_columns(FeatureMatrix(x))
        # standardization keeps rows 1 and 3 identical (same affine map per column)
        g = gram(fm).values
        assert g[1, 1] == pytest.approx(g[3, 3], rel=1e-12)
        assert g[1, 3] == pytest.approx(g[1, 1], rel=1e-12)

    def test_column_sums_vanish(self):
        rng = np.random.default_rng(2)
        fm = standardize_columns(FeatureMatrix(rng.normal(size=(5, 50))))
        g = gram(fm)
        assert np.max(np.abs(g.values.sum(axis=0))) < 1e-8

    def test_standardizes_raw_input(self):
        # gram is the column-block kernel without the log step, so a raw
        # positive input is standardized as it is, not logged first
        rng = np.random.default_rng(5)
        fm = FeatureMatrix(rng.lognormal(mean=3.0, size=(12, 70)))
        g = gram(fm).values
        assert g.tobytes() == standardized_gram(fm, log_if_positive=False).values.tobytes()
        assert np.max(np.abs(g - gram(standardize_columns(fm)).values)) < 1e-12

    @pytest.mark.parametrize("log_if_positive", [False, True], ids=["standardize", "paper"])
    def test_overflowing_column_named(self, monkeypatch, log_if_positive):
        # blocks of 3 columns at N = 20: column 5 sits in the second block
        monkeypatch.setattr(data, "_BLOCK_DOUBLES", 60)
        x = np.random.default_rng(8).normal(size=(20, 7))
        x[:, 4] *= 1e200
        with pytest.raises(NonFiniteInputError, match="^feature column 5 "):
            standardized_gram(FeatureMatrix(x), log_if_positive)

    def test_symmetry_enforced(self):
        rng = np.random.default_rng(3)
        fm = standardize_columns(FeatureMatrix(rng.normal(size=(20, 300))))
        g = gram(fm).values
        assert np.max(np.abs(g - g.T)) < 1e-12

    def test_asymmetric_construction_rejected(self):
        with pytest.raises(ValueError):
            GramMatrix(np.array([[1.0, 2.0], [2.1, 1.0]]))


class TestReadFeatureCsv:
    def test_with_header_and_label(self, tmp_path):
        path = tmp_path / "d.csv"
        cases = [
            ("f1,f2,label\n1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n", ["a", "b", "a"]),
            # a quoted label may contain the delimiter
            ('f1,label,f2\n1.0,"a,b",2.0\n3.0,c,4.0\n5.0,a,6.0\n', ["a,b", "c", "a"]),
            # CRLF line endings
            ("f1,f2,label\r\n1.0,2.0,a\r\n3.0,4.0,b\r\n5.0,6.0,a\r\n", ["a", "b", "a"]),
        ]
        for text, truth in cases:
            path.write_bytes(text.encode())
            parsed = read_feature_csv(path)
            assert parsed.matrix.n_objects == 3
            assert parsed.matrix.n_features == 2
            assert parsed.truth_labels == truth
            np.testing.assert_array_equal(parsed.matrix.values, [[1, 2], [3, 4], [5, 6]])

    def test_headerless(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        parsed = read_feature_csv(path)
        assert parsed.truth_labels is None
        np.testing.assert_allclose(parsed.matrix.values, [[1, 2], [3, 4]])

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        # a blank line counts towards the line number
        for text, line in [
            ("1,2\n3,4,5\n6,7\n", 2),
            ("1,2\n\n3,4,5\n", 3),
            # a row with an extra field after a label column
            ("f1,label\n1,a\n2,b,3\n", 3),
            # a blank line before the header
            ("\nf1,f2\n1,2\n3,4,5\n", 4),
        ]:
            path.write_text(text)
            with pytest.raises(DataError) as exc:
                read_feature_csv(path)
            assert exc.value.line == line

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        for text, line in [
            ("f1,f2\n1,2\n3,oops\n", 3),
            ("label,f1,f2\na,1,2\nb,3,4\na,x,6\n", 4),
            # a leading '#' is data, not a comment
            ("1,2\n#3,4\n", 2),
            # a blank line before the header
            ("\nf1,f2\n1,2\n3,oops\n", 4),
        ]:
            path.write_text(text)
            with pytest.raises(DataError) as exc:
                read_feature_csv(path)
            assert exc.value.line == line

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1;2\n3;4\n")
        parsed = read_feature_csv(path, delimiter=";")
        np.testing.assert_allclose(parsed.matrix.values, [[1, 2], [3, 4]])

    def test_bom_headerless_keeps_first_row(self, tmp_path):
        # spreadsheet programs start a UTF-8 CSV with a byte order mark
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2\n3,4\n5,6\n7,8\n")
        parsed = read_feature_csv(path)
        assert parsed.truth_labels is None
        np.testing.assert_array_equal(parsed.matrix.values, [[1, 2], [3, 4], [5, 6], [7, 8]])

    def test_bom_before_label_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,f1,f2\na,1,2\nb,3,4\n")
        parsed = read_feature_csv(path)
        assert parsed.truth_labels == ["a", "b"]
        np.testing.assert_array_equal(parsed.matrix.values, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("head, line", [
        ('"f1,f2\n', 1), ("f1,f2\n1,2\n\n\"3,4\n", 4), ('1,2\n"3,4\n', 2),
    ], ids=["header", "after_blank_line", "headerless"])
    def test_unbalanced_quote_reports_line(self, tmp_path, head, line):
        # the quoted field runs to the end of the file, past csv's field
        # size limit; the error names the line the field starts on
        path = tmp_path / "d.csv"
        path.write_text(head + "1,2\n" * 40000)
        with pytest.raises(DataError, match="malformed CSV") as exc:
            read_feature_csv(path)
        assert exc.value.line == line

    @pytest.mark.parametrize("text, line", [
        ('"f1,f2\n1,2\n3,4\n', 1),
        ('f1,f2\n1,2\n"3,4\n5,6\n', 3),
        ('1,2\n\n"3,4\n5,6\n', 3),
    ], ids=["header", "data_row", "after_blank_line"])
    def test_unclosed_quote_named(self, tmp_path, text, line):
        # below csv's field size limit the quoted field quietly takes the
        # rest of the file; the error names the quote, not its symptom
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="unclosed quote") as exc:
            read_feature_csv(path)
        assert exc.value.line == line

    def test_open_quote_below_multiline_header_left_to_loadtxt(self, tmp_path):
        # csv reads lines 1-2 as the header and the last row's quote as
        # open to the end of the file; loadtxt reads lines 3-4 as data
        path = tmp_path / "d.csv"
        path.write_bytes(b'"5,1,1\r\n"4",3,3\r\n7,8,9\r\n2.5,1,"5\n')
        np.testing.assert_array_equal(
            read_feature_csv(path).matrix.values, [[7, 8, 9], [2.5, 1, 5]]
        )

    @pytest.mark.parametrize("n, p, label_idx", [
        (30, 7, 0), (30, 7, 3), (30, 7, 7), (30, 1, 0), (30, 1, 1), (2, 5, 2),
    ], ids=["first", "middle", "last", "one_feature_label_first", "one_feature_label_last",
            "two_objects"])
    def test_label_column_dropped(self, tmp_path, n, p, label_idx):
        # the label column is dropped inside the reader's own buffer; the
        # values are those of the whole table with that column deleted
        rng = np.random.default_rng(label_idx + p)
        table = np.insert(rng.lognormal(size=(n, p)), label_idx, rng.integers(1, 4, n), axis=1)
        names = [f"f{j}" for j in range(p)]
        names.insert(label_idx, "label")
        path = tmp_path / "d.csv"
        np.savetxt(path, table, delimiter=",", fmt="%.17g", comments="", header=",".join(names))
        parsed = read_feature_csv(path)
        expected = np.delete(np.loadtxt(path, delimiter=",", skiprows=1), label_idx, axis=1)
        assert parsed.matrix.values.tobytes() == expected.tobytes()
        assert parsed.matrix.values.shape == (n, p)
        assert parsed.truth_labels == [str(int(v)) for v in table[:, label_idx]]

    @pytest.mark.parametrize("data, matrix, labels", [
        # the header's second field holds a line break
        (b'label,"h1\ng2"\n2,3\n5,4\n1,1\n', [[3], [4], [1]], ["2", "5", "1"]),
        # csv reads lines 1-3 as the header: its second field opens on
        # line 1 and closes on line 3
        (b'label,"h1,g2\n2,3,9\n2,"4",5\n0,0,9\n5,3,4\n', [[0, 9], [3, 4]], ["0", "5"]),
        (b'"f\r\n1",f2\r\n1,2\r\n3,4\r\n', [[1, 2], [3, 4]], None),
    ], ids=["one_break", "quoted_rows", "crlf"])
    def test_header_spanning_lines(self, tmp_path, data, matrix, labels):
        # the values start below the header's last line, not its first
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        parsed = read_feature_csv(path)
        np.testing.assert_array_equal(parsed.matrix.values, matrix)
        assert parsed.truth_labels == labels

    @pytest.mark.parametrize("data, skip, matrix", [
        (b'"a\nb",f2\n1,2\n3,4\n', 2, [[1, 2], [3, 4]]),
        (b'"a\rb",f2\n1,2\n3,4\n', 2, [[1, 2], [3, 4]]),
        (b'"a\r\nb",f2\n1,2\n3,4\n', 2, [[1, 2], [3, 4]]),
        (b'"a\r\nb\n",f2\r\n1,2\r\n3,4\r\n', 3, [[1, 2], [3, 4]]),
        # a \r ending one name and a \n starting the next are two breaks
        (b'"a\r","\nb"\n1,2\n3,4\n', 3, [[1, 2], [3, 4]]),
        (b'"a\r",f2,"\n\nb\r"\n1,2,3\n4,5,6\n', 5, [[1, 2, 3], [4, 5, 6]]),
    ], ids=["lf", "cr", "crlf", "crlf_and_lf", "cr_then_lf_names", "three_names"])
    def test_header_line_breaks_counted(self, tmp_path, data, skip, matrix):
        # every line break inside the header's names is one line to skip
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        assert _layout(path, ",")[2] == skip
        np.testing.assert_array_equal(read_feature_csv(path).matrix.values, matrix)

    def test_row_below_spanning_header_numbered_by_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('label,"h1\ng2"\na,1\nb,2,3\n')
        with pytest.raises(DataError, match="expected 2 fields, got 3") as exc:
            read_feature_csv(path)
        assert exc.value.line == 4

    def test_second_label_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,Label\na,1,1\nb,3,2\nc,4,5\n")
        with pytest.raises(DataError, match="two label columns, 1 and 3") as exc:
            read_feature_csv(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("data, line", [
        (b"f1,f2\n", 1),
        (b"f1,f2", 1),
        (b"f1,f2\n\n\r\n\n", 1),
        (b"\xef\xbb\xbff1,label\n", 1),
        (b"\nf1,f2\n", 2),
        # a quoted header field that spans lines
        (b'"f\n1",f2\n', 1),
    ], ids=["header_only", "no_newline", "blank_lines", "bom", "blank_first", "multiline"])
    def test_header_without_rows(self, tmp_path, data, line):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning stays quiet
            with pytest.raises(DataError, match="no data rows") as exc:
                read_feature_csv(path)
        assert exc.value.line == line

    @pytest.mark.parametrize("data", [b"", b"\n\n", b"\xef\xbb\xbf"])
    def test_empty_file(self, tmp_path, data):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(DataError, match="empty file"):
            read_feature_csv(path)

    def test_python_only_float_spellings_rejected(self, tmp_path):
        # the C reader takes no digit-group underscores or non-ASCII digits
        path = tmp_path / "d.csv"
        for text in ("f1,f2\n1,2\n1_0,4\n", "f1,f2\n1,2\n\u0661,4\n"):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError) as exc:
                read_feature_csv(path)
            assert exc.value.line == 3


class TestPeakMemory:
    """Traced peaks as multiples of X.nbytes, each bound a little above
    the value measured when the matrix types adopt frozen arrays. Copying
    in FeatureMatrix again adds about one X to preprocessing and to
    ingest. Ingest holds one X, the C reader's buffer, which peaks at
    about 1.24 X while it grows; the label column is dropped inside it,
    where a copy without the column (np.delete) peaked at 2.15 X."""

    shape = (60, 20000)

    @pytest.mark.parametrize("mode", ["paper", "standardize"])
    def test_prepare(self, mode):
        x = FeatureMatrix(np.random.default_rng(5).lognormal(size=self.shape))
        prepare = preprocess_dataset if mode == "paper" else standardize_columns
        peak = traced_peak(lambda: prepare(x))
        assert peak / x.values.nbytes < 1.3

    @pytest.mark.parametrize("mode", ["paper", "standardize"])
    def test_cluster_features(self, mode):
        # the Gram matrix is built one column block at a time, so a call
        # never holds a standardized copy of X
        x = FeatureMatrix(np.random.default_rng(5).lognormal(size=self.shape))
        cluster_features(x, kmax=4, preprocess=mode)  # warm-up, out of the traced peak
        peak = traced_peak(lambda: cluster_features(x, kmax=4, preprocess=mode))
        assert peak / x.values.nbytes < 0.25

    def test_read_feature_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        n, p = self.shape
        path = tmp_path / "wide.csv"
        np.savetxt(
            path, np.column_stack([rng.lognormal(size=self.shape), rng.integers(1, 3, n)]),
            delimiter=",", fmt="%.6g", comments="",
            header=",".join([f"f{j}" for j in range(p)] + ["label"]),
        )
        peak = traced_peak(lambda: read_feature_csv(path))
        assert peak / (n * p * 8) < 1.6
