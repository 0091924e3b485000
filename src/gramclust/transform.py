"""Augmented forms of the Gram matrix.

G's diagonal is appended as an extra column and each vacated slot (i,i) is
filled with the average of column i over the other members of object i's
cluster. Rows then share their expectation whenever the objects share a
cluster, which is what makes mixture fitting on the rows sound. The matrix
that seeds the K sweep is the same transform under the one-cluster
partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import GramMatrix, _frozen
from .errors import DimensionMismatchError
from .hierarchy import ClusterAssignment


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
