"""Clustering agreement via Adjusted Mutual Information.

AMI = (MI - E[MI]) / (avg(H(U), H(V)) - E[MI]) with natural-log entropies
and the exact expectation of MI under the fixed-marginals permutation
(hypergeometric) model. Count arrays are put in a canonical sorted order
before any floating-point accumulation, which makes the score bit-exactly
symmetric and invariant to relabeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError
from .hierarchy import ClusterAssignment

NORM_MEAN = "mean"
NORM_MAX = "max"

# Denominators smaller than this are treated as the degenerate
# both-partitions-trivial case.
_DEGENERATE_DENOM = 1e-15


@dataclass(frozen=True)
class ContingencyTable:
    """R x C joint counts of two labelings over the same n objects."""

    counts: np.ndarray
    n: int

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64).copy()
        if c.ndim != 2:
            raise ValueError("counts must be 2-D")
        if c.min() < 0:
            raise ValueError("counts must be nonnegative")
        if int(c.sum()) != self.n:
            raise ValueError("counts must sum to n")
        if (c.sum(axis=1) == 0).any() or (c.sum(axis=0) == 0).any():
            raise ValueError("marginals must be positive (drop empty clusters)")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def row_marginals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def col_marginals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


def _coerce(labels) -> ClusterAssignment:
    if isinstance(labels, ClusterAssignment):
        return labels.canonicalized()
    return ClusterAssignment.from_raw(labels)


def contingency(u, v) -> ContingencyTable:
    """Joint counts over canonicalized labels."""
    ua, va = _coerce(u), _coerce(v)
    if ua.n_objects != va.n_objects:
        raise LengthMismatchError(
            f"label vectors differ in length: {ua.n_objects} vs {va.n_objects}"
        )
    counts = np.zeros((ua.k, va.k), dtype=np.int64)
    np.add.at(counts, (ua.labels - 1, va.labels - 1), 1)
    return ContingencyTable(counts=counts, n=ua.n_objects)


def _entropy_sorted(counts: np.ndarray, n: int) -> float:
    """Entropy from a count vector, accumulated in descending count order
    so the result does not depend on the labels' orientation."""
    c = np.sort(np.asarray(counts, dtype=np.float64).ravel())[::-1]
    c = c[c > 0]
    p = c / n
    return float(-(p * np.log(p)).sum())


def expected_mutual_info(row_marginals, col_marginals, n: int) -> float:
    """Exact E[MI] under the fixed-marginals permutation model.

    Closed-form hypergeometric sum; deterministic summation order over
    canonically sorted marginals (n at most a few hundred keeps this
    cheap, so no sampling is involved).
    """
    # Imported here, not at module level: scipy.special would add about
    # 0.2 s to `import gramclust.cli` (2-core VM), which the simulate
    # command never needs.
    from scipy.special import gammaln

    a = tuple(sorted((int(x) for x in np.ravel(row_marginals)), reverse=True))
    b = tuple(sorted((int(x) for x in np.ravel(col_marginals)), reverse=True))
    if sum(a) != n or sum(b) != n:
        raise ValueError("marginals must sum to n")
    if (len(a), a) > (len(b), b):
        a, b = b, a
    logfact = gammaln(np.arange(n + 1, dtype=np.float64) + 1.0)
    emi = 0.0
    for ai in a:
        for bj in b:
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            if hi < lo:
                continue
            nij = np.arange(lo, hi + 1)
            logp = (
                logfact[ai] + logfact[bj] + logfact[n - ai] + logfact[n - bj]
                - logfact[n] - logfact[nij] - logfact[ai - nij]
                - logfact[bj - nij] - logfact[n - ai - bj + nij]
            )
            terms = np.exp(logp) * (nij / n) * np.log(n * nij / (float(ai) * bj))
            emi += float(terms.sum())
    return emi


def ami(u, v, normalization: str = NORM_MEAN) -> float:
    """Adjusted Mutual Information between two labelings.

    ``normalization`` picks the denominator entropy aggregate: "mean"
    (arithmetic, the default) or "max". When the denominator vanishes
    (both partitions trivial) the score is 1.0 for identical partitions
    and 0.0 otherwise.
    """
    if normalization not in (NORM_MEAN, NORM_MAX):
        raise ValueError(f"unknown normalization {normalization!r}")
    ua, va = _coerce(u), _coerce(v)
    if ua.n_objects != va.n_objects:
        raise LengthMismatchError(
            f"label vectors differ in length: {ua.n_objects} vs {va.n_objects}"
        )
    if ua.n_objects < 2:
        raise ValueError("need at least 2 objects")
    table = contingency(ua, va)
    # Entropies over sorted counts make MI(u, u) equal H(u) bit-exactly,
    # hence ami(u, u) == 1.0 exactly.
    hu = _entropy_sorted(table.row_marginals(), table.n)
    hv = _entropy_sorted(table.col_marginals(), table.n)
    mi = (hu + hv) - _entropy_sorted(table.counts, table.n)
    emi = expected_mutual_info(table.row_marginals(), table.col_marginals(), table.n)
    if normalization == NORM_MEAN:
        denom = (hu + hv) / 2.0 - emi
    else:
        denom = max(hu, hv) - emi
    if abs(denom) < _DEGENERATE_DENOM:
        return 1.0 if np.array_equal(ua.labels, va.labels) else 0.0
    return (mi - emi) / denom
