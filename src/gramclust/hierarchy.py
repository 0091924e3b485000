"""Agglomerative Ward clustering used to initialize the mixture fits.

Rows of the transformed Gram matrix are points in R^{N+1}; the merge cost
is the increase in total within-cluster sum of squares. Ties are broken
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KOutOfRangeError

# Relative slack for the monotone-merge-cost invariant (Ward is reducible,
# so violations can only come from floating-point noise).
_MONOTONE_RTOL = 1e-9

# Rows per block of Ward's distance products: at N = 400 a block's
# N-column product is 0.2 MB, so no N x N array is ever held.
_WARD_BLOCK_ROWS = 64


def canonicalize_labels(labels) -> tuple[np.ndarray, int]:
    """Relabel to 1..k in order of first occurrence; returns (labels, k)."""
    seq = np.asarray(labels).ravel()
    _, first, inverse = np.unique(seq, return_index=True, return_inverse=True)
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[np.argsort(first)] = np.arange(1, first.shape[0] + 1)
    return rank[inverse], first.shape[0]


@dataclass(frozen=True)
class ClusterAssignment:
    """Length-N vector of cluster identifiers in 1..k.

    ``from_raw`` canonicalizes arbitrary labels (cluster 1 is the cluster
    of object 1, indices in order of first occurrence, none empty) which
    makes assignments comparable across runs. Direct construction only
    checks the 1..k range, so an index in 1..k may label no object.
    """

    labels: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.labels, dtype=np.int64).copy()
        if a.ndim != 1:
            raise ValueError("labels must be a 1-D vector")
        if self.k < 1:
            raise ValueError("k must be positive")
        if a.size and (a.min() < 1 or a.max() > self.k):
            raise ValueError(f"labels must lie in [1, {self.k}]")
        a.setflags(write=False)
        object.__setattr__(self, "labels", a)

    @classmethod
    def from_raw(cls, labels) -> "ClusterAssignment":
        canon, k = canonicalize_labels(labels)
        return cls(canon, k)

    @property
    def n_objects(self) -> int:
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class Dendrogram:
    """Full Ward merge tree.

    ``merges`` has one row per step: (id_a, id_b, cost, new_size). Original
    points are ids 0..n-1; the cluster created by step t gets id n+t. Costs
    are within-cluster sum-of-squares increases and are nondecreasing.
    """

    merges: np.ndarray
    n_points: int

    def __post_init__(self):
        m = np.asarray(self.merges, dtype=np.float64).reshape(-1, 4).copy()
        if m.shape[0] != self.n_points - 1:
            raise ValueError("a full tree over n points has n-1 merges")
        costs = m[:, 2]
        if costs.size and np.min(costs) < 0:
            raise ValueError("negative merge cost")
        tol = _MONOTONE_RTOL * np.maximum(1.0, np.abs(costs[:-1]))
        if (costs[1:] < costs[:-1] - tol).any():
            raise ValueError("merge costs are not nondecreasing")
        m.setflags(write=False)
        object.__setattr__(self, "merges", m)


def ward_linkage(points) -> Dendrogram:
    """Agglomerative Ward tree over the rows of ``points``.

    Merge cost is the within-cluster sum-of-squares increase, d^2/2 for
    scipy's Ward distance d. The rows' pairwise Euclidean distances come
    from matrix products over blocks of rows, d^2 = |a|^2 + |b|^2 - 2 a.b
    clamped at 0 (O(N^2 D) flops at BLAS speed for D columns; O(N^2)
    memory for the condensed distances plus one block), and scipy merges
    them by the nearest-neighbour chain in O(N^2). Ties are ties in these
    computed distances: distances equal in exact arithmetic may split by
    rounding, and the costs' last bits depend on the BLAS thread count.
    Exact ties merge in scipy's order, deterministic for a given row order.
    """
    # Imported here, not at module level: scipy.cluster would add about
    # 0.1-0.2 s and 12 MB to `import gramclust.cli` (2-core VM), which the
    # eval and simulate commands never need.
    from scipy.cluster.hierarchy import linkage

    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D array with at least 2 rows")
    n = x.shape[0]
    sq = np.einsum("ij,ij->i", x, x)
    # Condensed order: row i's distances to j > i start at n*i - i*(i+1)/2.
    y = np.empty(n * (n - 1) // 2)
    for i0 in range(0, n - 1, _WARD_BLOCK_ROWS):
        i1 = min(i0 + _WARD_BLOCK_ROWS, n - 1)
        d2 = x[i0:i1] @ x[i0:].T
        d2 *= -2.0
        d2 += sq[i0:i1, None]
        d2 += sq[i0:]
        np.maximum(d2, 0.0, out=d2)
        upper = np.arange(n - i0) > np.arange(i1 - i0)[:, None]
        y[n * i0 - i0 * (i0 + 1) // 2: n * i1 - i1 * (i1 + 1) // 2] = np.sqrt(d2[upper])
    z = linkage(y, method="ward")
    z[:, 2] = z[:, 2] ** 2 / 2.0
    return Dendrogram(merges=z, n_points=n)


def cut_tree(d: Dendrogram, k: int) -> ClusterAssignment:
    """Partition into k clusters by undoing the last k-1 merges."""
    n = d.n_points
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k} outside [1, {n}]")
    parent = np.arange(2 * n - 1, dtype=np.int64)
    done = d.merges[: n - k, :2].astype(np.int64)
    parent[done] = n + np.arange(n - k, dtype=np.int64)[:, None]
    # Pointer jumping: each pass doubles how far every entry points up.
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            break
        parent = up
    return ClusterAssignment.from_raw(parent[:n])
