"""Augmented forms of the Gram matrix and their expected structure.

G's diagonal is appended as an extra column and each vacated slot (i,i) is
filled with the average of column i over the other members of object i's
cluster. Rows then share their expectation whenever the objects share a
cluster, which is what makes mixture fitting on the rows sound. The matrix
that seeds the K sweep is the same transform under the one-cluster
partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import GramMatrix
from .errors import DimensionMismatchError, SingleClusterError
from .hierarchy import ClusterAssignment

if TYPE_CHECKING:  # pragma: no cover
    from .synth import MixtureSpec


@dataclass(frozen=True)
class AugmentedGram:
    """N x (N+1) rearrangement of a Gram matrix.

    Column N+1 holds the diagonal of the source G exactly; slot (i,i)
    holds the average of column i over object i's cluster-mates.
    """

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=np.float64).copy()
        n = a.shape[0]
        if a.ndim != 2 or a.shape[1] != n + 1:
            raise ValueError(f"augmented matrix must be N x (N+1), got {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "values", a)

    @property
    def n_objects(self) -> int:
        return self.values.shape[0]


def cluster_augment_values(g: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Array kernel of the transform.

    Slot (i,i) becomes the mean of g[j,i] over j != i with the same label
    (the column direction matters only for asymmetric test sentinels;
    GramMatrix inputs are symmetric, making row and column readings
    identical). A singleton falls back to the full off-diagonal column
    mean so the operation stays total during the K sweep.
    """
    g = np.asarray(g, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    n = g.shape[0]
    m = np.concatenate([g, np.diag(g)[:, None]], axis=1)
    _, inverse, counts = np.unique(lab, return_inverse=True, return_counts=True)
    for c in np.flatnonzero(counts > 1):
        idx = np.flatnonzero(inverse == c)
        s = idx.size
        # Row r of this contiguous (s, s-1) array holds column r of the
        # cluster block minus its diagonal entry, in row order, so each row
        # sum is bit-identical to the 1-D masked column sum.
        off = g[idx][:, idx].T.reshape(-1)[1:].reshape(s - 1, s + 1)[:, :-1]
        m[idx, idx] = off.reshape(s, s - 1).sum(axis=1) / (s - 1)
    # Row r of the (|S|, n-1) array is column single[r] without its
    # diagonal entry, in row order: the same sum as the 1-D column.
    single = np.flatnonzero(counts[inverse] == 1)
    cols = g.T[single]
    keep = np.ones(cols.shape, dtype=bool)
    keep[np.arange(single.size), single] = False
    m[single, single] = cols[keep].reshape(single.size, n - 1).sum(axis=1) / (n - 1)
    return m


def augment_with_clusters(g: GramMatrix, labels: ClusterAssignment) -> AugmentedGram:
    """The transform of ``g`` under a given assignment."""
    if labels.n_objects != g.n_objects:
        raise DimensionMismatchError(
            f"labels length {labels.n_objects} != N={g.n_objects}"
        )
    return AugmentedGram(cluster_augment_values(g.values, labels.labels))


def augment(g: GramMatrix) -> AugmentedGram:
    """The transform under the one-cluster partition: each slot is the
    off-diagonal mean of its column."""
    return augment_with_clusters(
        g, ClusterAssignment(np.ones(g.n_objects, dtype=np.int64), 1)
    )


@dataclass(frozen=True)
class RowExpectations:
    """Expected value of the cluster-aware matrix under a generator.

    pairwise[a,b] is the expected Gram entry for objects from clusters a
    and b (mean_a . mean_b / P, including a == b); diagonal[a] adds the
    average variance (the same-object expectation). cluster_rows[a] is the
    full (N+1)-vector a cluster-a row converges to; row_means[i] is
    cluster_rows[labels[i]].
    """

    row_means: np.ndarray
    pairwise: np.ndarray
    diagonal: np.ndarray
    cluster_rows: np.ndarray

    def __post_init__(self):
        for name in ("row_means", "pairwise", "diagonal", "cluster_rows"):
            a = np.asarray(getattr(self, name), dtype=np.float64).copy()
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if np.max(np.abs(self.pairwise - self.pairwise.T)) > 0:
            raise ValueError("pairwise expectations must be symmetric")

    @property
    def k0(self) -> int:
        return self.pairwise.shape[0]


def expected_rows(spec: "MixtureSpec", labels: ClusterAssignment) -> RowExpectations:
    """Expected cluster-aware matrix for a known mixture and assignment."""
    mu = np.asarray(spec.means, dtype=np.float64)
    var = np.asarray(spec.variances, dtype=np.float64)
    if mu.shape != var.shape:
        raise DimensionMismatchError(
            f"means shape {mu.shape} != variances shape {var.shape}"
        )
    k0, p = mu.shape
    lab = labels.labels
    if lab.max() > k0:
        raise DimensionMismatchError("assignment uses a cluster the spec lacks")

    pairwise = mu @ mu.T / p
    diagonal = np.diag(pairwise) + var.sum(axis=1) / p

    # cluster_rows[a] lays pairwise[a, label_j] against the assignment and
    # closes with diagonal[a]; the j == i slot of an object's own row
    # carries pairwise[a, a], matching the same-cluster column average in
    # the transform.
    cluster_rows = np.concatenate(
        [pairwise[:, lab - 1], diagonal[:, None]], axis=1
    )
    row_means = cluster_rows[lab - 1]
    return RowExpectations(
        row_means=row_means,
        pairwise=pairwise,
        diagonal=diagonal,
        cluster_rows=cluster_rows,
    )


@dataclass(frozen=True)
class SeparabilityReport:
    """Smallest Euclidean gap between expected cluster rows."""

    min_gap: float
    pair: tuple


def separability_diagnostic(expectations: RowExpectations) -> SeparabilityReport:
    """Min over cluster pairs of the expected-row gap.

    Purely diagnostic: identifiability requires the gap to stay bounded
    away from zero, but no numeric threshold is mandated.
    """
    k0 = expectations.k0
    if k0 < 2:
        raise SingleClusterError("separability needs at least two clusters")
    best = None
    pair = None
    for a in range(k0):
        for b in range(a + 1, k0):
            gap = float(np.linalg.norm(
                expectations.cluster_rows[a] - expectations.cluster_rows[b]
            ))
            if best is None or gap < best:
                best = gap
                pair = (a + 1, b + 1)
    return SeparabilityReport(min_gap=best, pair=pair)
