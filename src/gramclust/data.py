"""Feature matrices, preprocessing, and the normalized left Gram matrix.

The similarity on which everything downstream operates is the N x N matrix
G = X X^T / P computed from a column-standardized N x P feature matrix X.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AllColumnsConstantError, DataError, NonFiniteInputError

# Columns whose sample standard deviation falls below this are treated as
# constant and dropped.
CONSTANT_SD_TOL = 1e-12

SYMMETRY_TOL = 1e-12

# Doubles per column block of the standardization kernel, so that its
# temporaries are N x block, not N x P.
_BLOCK_DOUBLES = 1 << 18


def _block_width(n: int) -> int:
    return max(1, _BLOCK_DOUBLES // n)


def _frozen(values, dtype=np.float64) -> np.ndarray:
    """``values`` as a read-only, C-contiguous array of ``dtype``.

    An ndarray that already is one is adopted as is when it owns its data,
    or when it is a view that starts at the first byte of a read-only
    array that does (the CSV reader hands over the leading rows of its
    compacted buffer); a writable array, any other view, another dtype or
    a list is copied. The copy is what keeps a caller's later writes out
    of the value types, so only an owner that has frozen its array hands
    it over without one.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == dtype
        and values.flags.c_contiguous
        and not values.flags.writeable
    ):
        if values.flags.owndata:
            return values
        base = values.base
        if (
            type(base) is np.ndarray
            and base.flags.owndata
            and not base.flags.writeable
            and base.ctypes.data == values.ctypes.data
        ):
            return values
    a = np.array(values, dtype=dtype, order="C")
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

    ``values`` is read-only. A float64, C-contiguous ndarray that is
    already read-only is adopted without a copy when it owns its data or
    is a view that starts at the first byte of a read-only array that
    does; anything else (a writable array, any other view, a list) is
    copied first, so later writes to the caller's array do not reach the
    matrix. A caller that froze an array but keeps a writable view of it
    can still change the values, as ``fm.values.setflags(write=True)``
    always could on an owned array. The checks run either way.

    Attributes
    ----------
    values : ndarray, shape (N, P)
    """

    values: np.ndarray

    def __post_init__(self):
        a = _as_matrix(self.values)
        n, p = a.shape
        if n < 2:
            raise ValueError(f"need at least 2 objects, got N={n}")
        if p < 1:
            raise ValueError("need at least 1 feature")
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

    ``values`` is read-only and follows FeatureMatrix's rule: a frozen
    float64 C-contiguous array that owns its data, or a leading view of a
    frozen owner, is adopted, anything else copied.
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


def _standardized_blocks(a: np.ndarray, log_if_positive: bool, out=None):
    """Yield the standardized columns of ``a``, or of ``log(a)`` when
    ``log_if_positive`` and every value is positive, one column block at a
    time: centred, columns whose sd falls below CONSTANT_SD_TOL dropped,
    the rest scaled by the sds of the centred values. A column whose mean
    or sd overflows raises NonFiniteInputError; callers silence numpy's
    overflow warnings, so that error is all a user sees. A column's values
    depend on that column alone, so the blocks side by side are the
    standardized matrix. They are written side by side into an N x P
    ``out``, whose first kept columns then hold that matrix; without
    ``out``, every block reuses one buffer and is valid until the next."""
    log = log_if_positive and a.min() > 0.0
    (n, p), kept = a.shape, 0
    w, shared = _block_width(n), out is None
    if shared:
        out = np.empty((n, min(p, w)))
    for j in range(0, p, w):
        at = 0 if shared else kept
        b = out[:, at : at + min(w, p - j)]
        if log:
            np.log(a[:, j : j + b.shape[1]], out=b)
        else:
            b[...] = a[:, j : j + b.shape[1]]
        b -= b.mean(axis=0)
        sd = np.sqrt(np.einsum("ij,ij->j", b, b) / (n - 1))
        bad = ~np.isfinite(sd)
        if bad.any():
            raise NonFiniteInputError(
                f"feature column {j + int(bad.argmax()) + 1} is too large to standardize"
            )
        keep = sd >= CONSTANT_SD_TOL
        if not keep.all():
            sd = sd[keep]
            b[:, : sd.size] = b[:, keep]
            b = b[:, : sd.size]
        b /= sd
        kept += sd.size
        yield b
    if not kept:
        raise AllColumnsConstantError("every column has zero sample sd")


def _standardized(x: FeatureMatrix, log_if_positive: bool) -> FeatureMatrix:
    """The standardized blocks written into one owned buffer, which is
    frozen so the FeatureMatrix adopts it; only a constant-column drop
    copies its kept columns."""
    out = np.empty(x.values.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        kept = sum(b.shape[1] for b in _standardized_blocks(x.values, log_if_positive, out))
    out.setflags(write=False)
    return FeatureMatrix(out if kept == out.shape[1] else out[:, :kept])


def standardize_columns(x: FeatureMatrix) -> FeatureMatrix:
    """Scale every column to mean 0 and sample sd 1 (denominator N-1).

    Constant columns (sample sd below 1e-12) are dropped. Idempotent
    within 1e-10.
    """
    return _standardized(x, log_if_positive=False)


def preprocess_dataset(x: FeatureMatrix) -> FeatureMatrix:
    """Apply the benchmark preprocessing to a raw feature matrix.

    If every entry is strictly positive, take the natural log elementwise;
    then standardize the columns as standardize_columns does, dropping
    constant columns. The result is standardized.
    """
    return _standardized(x, log_if_positive=True)


def standardized_gram(x: FeatureMatrix, log_if_positive: bool) -> GramMatrix:
    """The Gram matrix of ``x`` standardized, without holding the
    standardized matrix: ``gram_values`` of ``preprocess_dataset(x)`` under
    ``log_if_positive``, else of ``standardize_columns(x)``, within
    rounding. Each standardized column block adds ``B B^T``; the sum is
    divided by the kept column count and symmetrized as gram_values does.
    """
    n = x.n_objects
    g, kept = np.zeros((n, n)), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for b in _standardized_blocks(x.values, log_if_positive):
            g += b @ b.T
            kept += b.shape[1]
    g /= kept
    g = (g + g.T) / 2.0
    g.setflags(write=False)
    return GramMatrix(g)


def gram_values(values: np.ndarray) -> np.ndarray:
    """Raw kernel: V V^T / P, symmetrized to guard downstream invariants.
    A (..., N, P) stack gives (..., N, N): the batched product runs the
    2-D call's BLAS routine on each slice, so each G is bit-identical to
    its own call."""
    v = np.asarray(values, dtype=np.float64)
    g = v @ v.swapaxes(-1, -2) / v.shape[-1]
    return (g + g.swapaxes(-1, -2)) / 2.0


def gram(x: FeatureMatrix) -> GramMatrix:
    """G = X X^T / P of ``x`` column-standardized as standardize_columns
    does, by cluster's kernel without the log step. A raw input is
    standardized, not rejected; a standardized one moves by under 1e-10.
    """
    return standardized_gram(x, log_if_positive=False)


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
    limit the reader gives up. Below that limit csv returns the rest of
    the file as the quoted field, so a row that reached the end of the
    file before its row ended raises DataError too.
    """
    ended = []

    def lines():
        yield from fh
        ended.append(True)

    reader = csv.reader(lines(), delimiter=delimiter)
    while True:
        line = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"malformed CSV ({exc})", line=line) from exc
        if ended:
            raise DataError("malformed CSV (unclosed quote)", line=line)
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


def _layout(path, delimiter: str):
    """(first line, width, lines to skip, label index) of a feature CSV,
    from its first non-blank row, which is a header unless every field
    reads as a number. Only these four numbers outlive the scan, not the
    header's names."""
    with open(path, newline="", encoding=CSV_ENCODING) as fh:
        first_line, first_row = next(_csv_rows(fh, delimiter), (None, None))
    if first_row is None:
        raise DataError("empty file")
    if all(map(_is_number, first_row)):
        return first_line, len(first_row), first_line - 1, None
    labelled = [i for i, name in enumerate(first_row) if name.strip().lower() == "label"]
    if len(labelled) > 1:
        raise DataError(
            f"two label columns, {labelled[0] + 1} and {labelled[1] + 1}", line=first_line
        )
    # loadtxt's skiprows counts lines, and a quoted name may hold line
    # breaks (\n, \r or \r\n), so the values start below the header's last
    # line. The names are counted joined by a separator that is no break, so
    # a \r ending one name and a \n starting the next stay two breaks.
    joined = ",".join(first_row)
    breaks = joined.count("\n") + joined.count("\r") - joined.count("\r\n")
    return first_line, len(first_row), first_line + breaks, labelled[0] if labelled else None


def read_feature_csv(path, delimiter: str = ",") -> FeatureCsv:
    """Read a feature CSV into a raw FeatureMatrix.

    The header row is detected by attempting to parse the first row as
    numbers. A header column named ``label`` (case-insensitive) is
    extracted as ground truth and excluded from the features; a second
    one is an error. The values are parsed in one pass by numpy's C
    reader, starting below the header's last line; a ragged or
    non-numeric row, a header with no row below it and a quote left open
    to the end of the file raise DataError with a 1-based line number.
    """
    first_line, width, skip, label_idx = _layout(path, delimiter)
    labels = converters = None
    if label_idx is not None:
        labels = []

        def take_label(text):
            labels.append(text.strip())
            return 0.0

        converters = {label_idx: take_label}
    try:
        with warnings.catch_warnings():
            # a header with nothing below it is reported as no data rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # No usecols: with it, loadtxt accepts rows that carry extra fields.
            values = np.loadtxt(
                path, delimiter=delimiter, skiprows=skip, comments=None,
                quotechar='"', ndmin=2, converters=converters, encoding=CSV_ENCODING,
            )
    except ValueError as exc:
        raise _first_bad_row(path, delimiter, skip, width, label_idx, exc) from exc
    if values.shape[0] == 0:
        raise DataError("no data rows", line=first_line)
    if values.shape[1] != width:
        raise _first_bad_row(path, delimiter, skip, width, label_idx, None)
    if label_idx is not None:
        # Drop the label column inside the reader's own buffer: row i's kept
        # fields move to flat offset i*(w-1), which ends before row i+1
        # starts, so no row is overwritten before it has moved.
        n, kept, flat = values.shape[0], width - 1, values.reshape(-1)
        for i, row in enumerate(values):
            at = i * kept
            flat[at : at + label_idx] = row[:label_idx]
            flat[at + label_idx : at + kept] = row[label_idx + 1 :]
        values.setflags(write=False)
        values = values.reshape(-1)[: n * kept].reshape(n, kept)
    else:
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
