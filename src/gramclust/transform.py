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

from .data import GramMatrix, _frozen
from .errors import DimensionMismatchError, SingleClusterError
from .hierarchy import ClusterAssignment

if TYPE_CHECKING:  # pragma: no cover
    from .synth import MixtureSpec


@dataclass(frozen=True)
class AugmentedGram:
    """N x (N+1) rearrangement of a Gram matrix.

    Column N+1 holds the diagonal of the source G exactly; slot (i,i)
    holds the average of column i over object i's cluster-mates.
    ``values`` is read-only and follows FeatureMatrix's rule: a frozen
    float64 C-contiguous array that owns its data, or a leading view of a
    frozen owner, is adopted, anything else copied.
    """

    values: np.ndarray

    def __post_init__(self):
        a = _frozen(self.values)
        n = a.shape[0]
        if a.ndim != 2 or a.shape[1] != n + 1:
            raise ValueError(f"augmented matrix must be N x (N+1), got {a.shape}")
        object.__setattr__(self, "values", a)

    @property
    def n_objects(self) -> int:
        return self.values.shape[0]


def _with_diagonal(g: np.ndarray) -> np.ndarray:
    """A new N x (N+1) array: ``g`` with its diagonal appended as the last
    column. Slots (i,i) still hold g's diagonal until they are written."""
    return np.concatenate([g, np.diag(g)[:, None]], axis=1)


def _cluster_slots(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The slot values (i,i), in order, for the members ``idx`` (sorted
    row indices) of one cluster: the mean of g[j,i] over the other
    members j, or over every j != i for a singleton.

    A slot depends only on g and on its own cluster, so one cluster's
    values hold under every partition that contains the cluster.
    """
    s = idx.size
    if s == 1:
        i = idx[0]
        return np.delete(g[:, i], i).sum(keepdims=True) / (g.shape[0] - 1)
    # Row r of this contiguous (s, s-1) array holds column r of the
    # cluster block minus its diagonal entry, in row order, so each row
    # sum is bit-identical to the 1-D masked column sum.
    off = g[idx][:, idx].T.reshape(-1)[1:].reshape(s - 1, s + 1)[:, :-1]
    return off.reshape(s, s - 1).sum(axis=1) / (s - 1)


def cluster_augment_values(g: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Array kernel of the transform.

    Slot (i,i) becomes the mean of g[j,i] over j != i with the same label
    (the column direction matters only for asymmetric test sentinels;
    GramMatrix inputs are symmetric, making row and column readings
    identical). A singleton falls back to the full off-diagonal column
    mean so the transform stays total. Only direct callers of the public
    transform reach that fallback: the sweep builds the one-cluster matrix,
    and cem_fit builds this one only when every cluster has more than 2
    members.
    """
    g = np.asarray(g, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)
    m = _with_diagonal(g)
    _, counts = np.unique(lab, return_counts=True)
    order = np.argsort(lab, kind="stable")
    for idx in np.split(order, np.cumsum(counts)[:-1]):
        m[idx, idx] = _cluster_slots(g, idx)
    return m


def augment_with_clusters(g: GramMatrix, labels: ClusterAssignment) -> AugmentedGram:
    """The transform of ``g`` under a given assignment."""
    if labels.n_objects != g.n_objects:
        raise DimensionMismatchError(
            f"labels length {labels.n_objects} != N={g.n_objects}"
        )
    m = cluster_augment_values(g.values, labels.labels)
    m.setflags(write=False)
    return AugmentedGram(m)


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
            object.__setattr__(self, name, _frozen(getattr(self, name)))
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
    k0 = mu.shape[0]
    lab = labels.labels
    if lab.max() > k0:
        raise DimensionMismatchError("assignment uses a cluster the spec lacks")

    table = _expectation_table(mu, var)
    return RowExpectations(
        row_means=_laid_out(table, lab - 1, lab),
        pairwise=table[:, :k0],
        diagonal=table[:, k0],
        cluster_rows=_laid_out(table, np.arange(k0), lab),
    )


def _expectation_table(mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """K0 x (K0+1): the pairwise expectations mu_a . mu_b / P, closed by
    the diagonal column (pairwise[a, a] plus the average variance)."""
    p = mu.shape[1]
    pairwise = mu @ mu.T / p
    diagonal = np.diag(pairwise) + var.sum(axis=1) / p
    return np.column_stack([pairwise, diagonal])


def _laid_out(table: np.ndarray, clusters: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Expected rows for clusters ``clusters`` (0-based), one gather: row
    a lays table[a, label_j] against the assignment and closes with the
    diagonal column. The j == i slot of an object's own row carries
    pairwise[a, a], matching the same-cluster column average in the
    transform."""
    return table[np.ix_(clusters, np.append(lab - 1, table.shape[0]))]


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
