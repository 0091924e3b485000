"""Feature matrices, preprocessing, and the normalized left Gram matrix.

The similarity on which everything downstream operates is the N x N matrix
G = X X^T / P computed from a column-standardized N x P feature matrix X.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AllColumnsConstantError,
    DataError,
    NonFiniteInputError,
    NotStandardizedError,
)

# Columns whose sample standard deviation falls below this are treated as
# constant and dropped.
CONSTANT_SD_TOL = 1e-12

STANDARD_MEAN_TOL = 1e-10
STANDARD_SD_TOL = 1e-8
SYMMETRY_TOL = 1e-12

# Columns per block of the standardized check, so that its temporaries are
# N x block rather than N x P.
_CHECK_BLOCK = 1024


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only, C-contiguous float64 array.

    An ndarray that already is one and owns its data is adopted as is; a
    writable array, a view, another dtype or a list is copied. The copy is
    what keeps a caller's later writes out of the matrix types, so only an
    owner that has frozen its array hands it over without one.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.c_contiguous
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    a = np.array(values, dtype=np.float64, order="C")
    a.setflags(write=False)
    return a


def _as_matrix(values) -> np.ndarray:
    a = _frozen(values)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteInputError("matrix contains NaN or infinite entries")
    return a


@dataclass(frozen=True)
class FeatureMatrix:
    """N x P matrix of feature measurements (rows = objects).

    ``values`` is read-only. A float64, C-contiguous ndarray that owns its
    data and is already read-only is adopted without a copy; anything else
    (a writable array, a view, a list) is copied first, so later writes to
    the caller's array do not reach the matrix. A caller that froze an
    array but keeps a writable view of it can still change the values, as
    ``fm.values.setflags(write=True)`` always could. The checks run either
    way.

    Attributes
    ----------
    values : ndarray, shape (N, P)
    standardized : bool
        True only if every column has mean 0 and sample sd 1 (ddof=1).
    """

    values: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        a = _as_matrix(self.values)
        n, p = a.shape
        if n < 2:
            raise ValueError(f"need at least 2 objects, got N={n}")
        if p < 1:
            raise ValueError("need at least 1 feature")
        if self.standardized:
            means, sds = np.empty(p), np.empty(p)
            for j in range(0, p, _CHECK_BLOCK):
                block = a[:, j : j + _CHECK_BLOCK]
                means[j : j + _CHECK_BLOCK] = block.mean(axis=0)
                sds[j : j + _CHECK_BLOCK] = block.std(axis=0, ddof=1)
            if np.max(np.abs(means)) >= STANDARD_MEAN_TOL:
                raise ValueError("standardized flag set but a column mean exceeds 1e-10")
            if np.max(np.abs(sds - 1.0)) >= STANDARD_SD_TOL:
                raise ValueError("standardized flag set but a column sd deviates from 1")
        object.__setattr__(self, "values", a)

    @property
    def n_objects(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class GramMatrix:
    """N x N normalized left Gram matrix, symmetric by construction.

    ``values`` is read-only and follows FeatureMatrix's rule: a frozen,
    owned float64 C-contiguous array is adopted, anything else copied.
    """

    values: np.ndarray

    def __post_init__(self):
        a = _as_matrix(self.values)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"Gram matrix must be square, got {a.shape}")
        if np.max(np.abs(a - a.T)) >= SYMMETRY_TOL:
            raise ValueError("Gram matrix is not symmetric within 1e-12")
        object.__setattr__(self, "values", a)

    @property
    def n_objects(self) -> int:
        return self.values.shape[0]


def _standardized(a: np.ndarray, log: bool) -> FeatureMatrix:
    """Standardize the columns of ``log(a)``, or of ``a``, in one owned
    buffer. The sds come from the centred values; columns whose sd falls
    below CONSTANT_SD_TOL are dropped, and only a drop copies. The buffer
    is frozen, so the FeatureMatrix adopts it."""
    out = np.log(a) if log else a.copy()
    out -= out.mean(axis=0)
    sd = np.sqrt(np.einsum("ij,ij->j", out, out) / (out.shape[0] - 1))
    keep = sd >= CONSTANT_SD_TOL
    dropped = keep.size - int(np.count_nonzero(keep))
    if dropped == keep.size:
        raise AllColumnsConstantError("every column has zero sample sd")
    if dropped:
        out, sd = out.compress(keep, axis=1), sd[keep]
    out /= sd
    out.setflags(write=False)
    return FeatureMatrix(out, standardized=True)


def standardize_columns(x: FeatureMatrix) -> FeatureMatrix:
    """Scale every column to mean 0 and sample sd 1 (denominator N-1).

    Constant columns (sample sd below 1e-12) are dropped. Idempotent
    within 1e-10.
    """
    return _standardized(x.values, log=False)


def preprocess_dataset(x: FeatureMatrix) -> FeatureMatrix:
    """Apply the benchmark preprocessing to a raw feature matrix.

    If every entry is strictly positive, take the natural log elementwise;
    then standardize the columns as standardize_columns does, dropping
    constant columns. The result is standardized.
    """
    if x.standardized:
        raise ValueError("preprocess_dataset expects raw (unstandardized) input")
    return _standardized(x.values, log=bool(x.values.min() > 0.0))


def gram_values(values: np.ndarray) -> np.ndarray:
    """Raw kernel: V V^T / P, symmetrized to guard downstream invariants."""
    v = np.asarray(values, dtype=np.float64)
    g = v @ v.T / v.shape[1]
    return (g + g.T) / 2.0


def gram(x: FeatureMatrix) -> GramMatrix:
    """G = X X^T / P for a standardized feature matrix.

    Raises NotStandardizedError when the flag is unset: the algorithm's
    zero-column-sum invariants depend on standardization.
    """
    if not x.standardized:
        raise NotStandardizedError("gram requires a column-standardized FeatureMatrix")
    g = gram_values(x.values)
    g.setflags(write=False)
    return GramMatrix(g)


# ---------------------------------------------------------------------------
# CSV ingestion (rows = objects, columns = features, optional header row,
# optional "label" column carrying ground truth that is never clustered on)
# ---------------------------------------------------------------------------

# A leading UTF-8 byte order mark, as spreadsheet programs write, is dropped.
CSV_ENCODING = "utf-8-sig"


def _csv_rows(fh, delimiter: str):
    """Yield (line, fields) for each non-blank row of a CSV file opened
    with newline="" and CSV_ENCODING, ``line`` being the 1-based line the
    row starts on, blank lines included.

    A ``csv`` error becomes a DataError at the row's line: an unbalanced
    quote makes the rest of the file one field, and past the field size
    limit the reader gives up.
    """
    reader = csv.reader(fh, delimiter=delimiter)
    while True:
        line = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"malformed CSV ({exc})", line=line) from exc
        if row:
            yield line, row


@dataclass(frozen=True)
class FeatureCsv:
    """Parsed feature CSV: matrix plus optional extracted truth labels."""

    matrix: FeatureMatrix
    truth_labels: Optional[list] = None


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _loadtxt_float(text: str) -> float:
    """float() restricted to the spellings numpy's C reader accepts: it
    rejects digit-group underscores and non-ASCII digits."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def read_feature_csv(path, delimiter: str = ",") -> FeatureCsv:
    """Read a feature CSV into a raw FeatureMatrix.

    The header row is detected by attempting to parse the first row as
    numbers. A header column named ``label`` (case-insensitive) is
    extracted as ground truth and excluded from the features. The values
    are parsed in one pass by numpy's C reader; a ragged or non-numeric
    row raises DataError with its 1-based line number.
    """
    with open(path, newline="", encoding=CSV_ENCODING) as fh:
        rows = _csv_rows(fh, delimiter)
        first_line, first_row = next(rows, (None, None))
        if first_row is None:
            raise DataError("empty file")
        first = [t.strip() for t in first_row]
        names = None if all(map(_is_number, first)) else first
        if names is not None and next(rows, None) is None:
            raise DataError("no data rows", line=first_line)
    label_idx = next(
        (i for i, name in enumerate(names or ()) if name.lower() == "label"), None
    )
    width = len(first_row)
    skip = first_line if names is not None else first_line - 1

    labels = converters = None
    if label_idx is not None:
        labels = []

        def take_label(text):
            labels.append(text.strip())
            return 0.0

        converters = {label_idx: take_label}
    try:
        # No usecols: with it, loadtxt accepts rows that carry extra fields.
        values = np.loadtxt(
            path, delimiter=delimiter, skiprows=skip, comments=None,
            quotechar='"', ndmin=2, converters=converters, encoding=CSV_ENCODING,
        )
    except ValueError as exc:
        raise _first_bad_row(path, delimiter, skip, width, label_idx, exc) from exc
    if values.shape[1] != width:
        raise _first_bad_row(path, delimiter, skip, width, label_idx, None)
    if label_idx is not None:
        values = np.delete(values, label_idx, axis=1)
    values.setflags(write=False)
    return FeatureCsv(matrix=FeatureMatrix(values), truth_labels=labels)


def _first_bad_row(path, delimiter, skip, width, label_idx, cause) -> DataError:
    """The error for the first row past line ``skip`` that is ragged or
    holds a value the C reader rejects. Rows are split by ``csv`` and
    numbered as the header scan numbers them, blank lines included
    (loadtxt's own row numbers skip blank lines)."""
    with open(path, newline="", encoding=CSV_ENCODING) as fh:
        for lineno, row in _csv_rows(fh, delimiter):
            if lineno <= skip:
                continue
            if len(row) != width:
                return DataError(f"expected {width} fields, got {len(row)}", line=lineno)
            try:
                for i, text in enumerate(row):
                    if i != label_idx:
                        _loadtxt_float(text)
            except ValueError as exc:
                return DataError(f"non-numeric value ({exc})", line=lineno)
    return DataError(f"unreadable values ({cause})")
