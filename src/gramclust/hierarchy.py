"""Agglomerative Ward clustering used to initialize the mixture fits.

Rows of the transformed Gram matrix are points in R^{N+1}; the merge cost
is the increase in total within-cluster sum of squares. Ties are broken
by the rule ``ward_linkage`` states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KOutOfRangeError

# Relative slack for the monotone-merge-cost invariant (Ward is reducible,
# so violations can only come from floating-point noise).
_MONOTONE_RTOL = 1e-9


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
    Ward's distance d. The rows' squared distances come from one matrix
    product, d^2 = |a|^2 + |b|^2 - 2 a.b clamped at 0 (O(N^2 D) flops at
    BLAS speed for D columns), into one N x N array, and the
    nearest-neighbour chain (Muellner, arXiv:1109.2378) merges them in
    O(N^2) time and O(N^2) memory, updating that array by Ward's
    Lance-Williams formula in squared form.

    Tie rule: each chain step goes from the tip to its nearest live
    cluster, the lowest index among equal distances, except that the
    tip's predecessor in the chain wins any tie it is part of; a merged
    cluster takes the higher of its two slots; the merges are then
    stably sorted by cost and numbered by union-find, as scipy's
    ``linkage`` numbers them. Ties are ties in the computed squared
    distances: distances equal in exact arithmetic may split by
    rounding, and the costs' last bits depend on the BLAS thread count.
    """
    x = np.ascontiguousarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D array with at least 2 rows")
    n = x.shape[0]
    sq = np.einsum("ij,ij->i", x, x)
    # Every squared distance the chain meets is at most 2 sum(sq), and
    # every term of its updates at most 4 n sum(sq): an inf or nan in d
    # would stall the chain.
    if not np.isfinite(8.0 * n * sq.sum()):
        raise ValueError(
            "points must be finite, and small enough for Ward's updates not to overflow"
        )
    # numpy computes x @ x.T as one triangle and mirrors it, so d is
    # exactly symmetric, which the chain also needs to end.
    d = x @ x.T
    d *= -2.0
    d += np.add.outer(sq, sq)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, np.inf)
    slots, costs = _nn_chain(d)
    return Dendrogram(merges=_number_merges(slots, costs, n), n_points=n)


def _nn_chain(d):
    """Merge the clusters of the squared Ward distances ``d`` in place.

    Returns each merge's (low, high) slots and squared distance, in the
    order the chain makes them. A merged cluster lives in its high slot;
    its low slot's column becomes +inf, so no row picks it again, and
    that slot's row is never read again.
    """
    n = d.shape[0]
    rows = list(d)  # views, made once
    size = np.ones(n)  # a dead slot keeps its last size: its column is +inf
    sizes = [1.0] * n  # as Python floats, 0.0 once a slot is dead
    new = np.empty(n)
    tmp = np.empty(n)
    # 0-d views, which numpy combines with a row faster than Python floats
    scalars = np.empty(4)
    s_a, s_b, s_ab, s_d = (scalars[i, ...] for i in range(4))
    slots, costs = [], []
    chain = []
    first = 0
    for _ in range(n - 1):
        if not chain:
            while not sizes[first]:
                first += 1
            chain.append(first)
        while True:
            a = chain[-1]
            row = rows[a]
            b = int(row.argmin())
            if len(chain) > 1 and row[chain[-2]] <= row[b]:
                b = chain[-2]
                break
            chain.append(b)
        del chain[-2:]
        dab = float(row[b])
        if a > b:
            a, b = b, a
        na, nb = sizes[a], sizes[b]
        da, db = rows[a], rows[b]
        slots.append((a, b))
        costs.append(dab)
        # ((s+na) da + (s+nb) db - s dab) / (s+na+nb) for every slot of
        # size s; +inf in da or db (slots a, b and dead ones) stays +inf.
        # The ufuncs take their output positionally, which is faster.
        scalars[:] = na, nb, na + nb, dab
        np.add(size, s_a, new)
        new *= da
        np.add(size, s_b, tmp)
        tmp *= db
        new += tmp
        np.multiply(size, s_d, tmp)
        new -= tmp
        np.add(size, s_ab, tmp)
        new /= tmp
        db[:] = new
        d[:, b] = new
        d[:, a] = np.inf
        sizes[a] = 0.0
        sizes[b] = size[b] = na + nb
    return slots, costs


def _number_merges(slots, costs, n):
    """The (id_a, id_b, cost, size) rows of a tree, stably sorted by cost.

    Union-find over the merged slots gives each merge the ids of the two
    clusters it joins, the lower first, as scipy numbers its trees.
    """
    parent = list(range(2 * n - 1))
    count = [1] * n + [0] * (n - 1)
    order = np.argsort(costs, kind="mergesort")
    ids = []
    for new_id, i in enumerate(order.tolist(), n):
        a, b = slots[i]
        root_a, root_b = a, b
        while parent[root_a] != root_a:
            root_a = parent[root_a]
        while parent[root_b] != root_b:
            root_b = parent[root_b]
        # a and b point straight at the new root, so the next find from
        # a merged slot takes one step
        parent[a] = parent[b] = parent[root_a] = parent[root_b] = new_id
        count[new_id] = count[root_a] + count[root_b]
        ids.append((root_a, root_b))
    z = np.empty((n - 1, 4))
    z[:, :2] = np.sort(ids, axis=1)
    z[:, 2] = np.take(costs, order) / 2.0
    z[:, 3] = count[n:]
    return z


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
