"""Classification-EM fitting of a Gaussian quasi-mixture to the rows of
an augmented Gram matrix.

The loop alternates a hard M-step (component weights, means, covariances
from the current assignment, all with denominator n_k) and a hard E-step
(argmax of weighted log-density) on a fixed input matrix. Scoring (the
quasi log-likelihood and its BIC) happens afterwards on the cluster-aware
matrix rebuilt from the final assignment.

Every per-cluster quantity depends only on the cluster's members: its
statistics are reductions over its own rows, in row order, and a
component's log-joint entry for a row is one contiguous sum over that row.
A ClusterMemo shares that work between the fits of one K sweep, keyed by
membership, without changing a bit of any result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data import GramMatrix
from .errors import EmptyClusterError
from .hierarchy import ClusterAssignment, canonicalize_labels
from .transform import AugmentedGram, augment_with_clusters

VARIANCE_FLOOR = 1e-8

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MixtureParams:
    """Weights, means and diagonal covariances of a K-component Gaussian
    mixture.

    ``covariances`` is (K, D) of per-coordinate variances. ``floored``
    flags components whose raw scatter hit the variance floor in some
    coordinate: their density is floor-determined rather than
    data-determined, so a fit whose final parameters carry the flag is
    scored as degenerate. Pair clusters always trip it on a cluster-aware
    matrix because the rebuilt diagonal slot of each member duplicates the
    other member's entry exactly.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    floored: Optional[np.ndarray] = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        mu = np.asarray(self.means, dtype=np.float64).copy()
        cov = np.asarray(self.covariances, dtype=np.float64).copy()
        k, d = mu.shape
        if w.shape != (k,):
            raise ValueError("weights must be a K-vector")
        if np.min(w) < 0 or abs(w.sum() - 1.0) >= 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if cov.shape != (k, d):
            raise ValueError("diagonal covariances must be (K, D)")
        if np.min(cov) < VARIANCE_FLOOR:
            raise ValueError("diagonal variance below the floor")
        if self.floored is None:
            fl = np.zeros(k, dtype=bool)
        else:
            fl = np.asarray(self.floored, dtype=bool).copy()
        if fl.shape != (k,):
            raise ValueError("floored must be a K-vector")
        for name, arr in (
            ("weights", w), ("means", mu), ("covariances", cov), ("floored", fl)
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


@dataclass(frozen=True)
class FitResult:
    """Outcome and score of one classification-EM fit at a fixed K.

    ``loglik`` is the full mixture quasi log-likelihood evaluated on the
    cluster-aware matrix rebuilt from the final assignment, and ``bic`` its
    BIC; degenerate fits carry bic = -inf and are excluded from the K
    sweep. ``floor_events`` counts M-steps where some variance hit the
    floor.
    """

    labels: ClusterAssignment
    params: MixtureParams
    loglik: float
    bic: float
    iterations: int
    converged: bool
    degenerate: bool
    floor_events: int = 0

    def __post_init__(self):
        if self.degenerate and self.bic != float("-inf"):
            raise ValueError("degenerate fits must carry bic = -inf")

    @property
    def k(self) -> int:
        """The number of components, K."""
        return self.labels.k


def num_params(k: int, n: int) -> int:
    """Free parameters of a K-component mixture over rows in R^(n+1):
    K-1 weights, K means and K diagonal variance vectors."""
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    d = n + 1
    return (k - 1) + k * d + k * d


def bic(loglik: float, nu: int, n: int) -> float:
    """2 * loglik - nu * ln(n); larger is better."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 2.0 * loglik - nu * float(np.log(n))


class ClusterMemo:
    """Per-cluster work shared by the fits of one K sweep.

    Keys are cluster memberships: the bytes of a cluster's sorted row
    indices. ``*_stats`` map a cluster to its mean and raw scatter;
    ``*_columns`` map a component to its log-joint column over all N rows
    and the row owners it was scored under. The ``sweep_`` tables hold
    work on the sweep's fixed matrix, whose rows never change owner. The
    ``aware_`` tables hold work on the cluster-aware matrices, whose row i
    depends only on the members of i's own cluster: so a cluster's
    statistics there depend only on its members, and a component's entry
    for row i only on its members and on the cluster that owns row i.
    Entries are read-only once stored, so fits on several threads may
    share one memo. A memo is valid for one Gram matrix and its sweep
    matrix.
    """

    def __init__(self):
        self.sweep_stats: dict = {}
        self.sweep_columns: dict = {}
        self.aware_stats: dict = {}
        self.aware_columns: dict = {}
        self._owners: dict = {}
        self._ids = itertools.count()

    def owner_id(self, key: bytes) -> int:
        """An ID unique to the cluster ``key``. The next count is drawn
        before setdefault runs, so two clusters never share an ID."""
        return self._owners.setdefault(key, next(self._ids))


def _members(labels: np.ndarray, k: int) -> tuple[list, list]:
    """Sorted row indices of clusters 1..k, and their memo keys."""
    sizes = np.bincount(labels, minlength=k + 1)[1:]
    if (sizes == 0).any():
        empty = int(np.flatnonzero(sizes == 0)[0]) + 1
        raise EmptyClusterError(f"cluster {empty} is empty")
    rows = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
    return rows, [r.tobytes() for r in rows]


def _cluster_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and raw scatter (denominator n_k) of a cluster's rows, taken in
    row order; ``rows`` is a scratch copy and is overwritten."""
    size = rows.shape[0]
    mean = np.add.reduce(rows, axis=0)
    mean /= size
    rows -= mean
    rows *= rows
    raw = np.add.reduce(rows, axis=0)
    raw /= size
    mean.setflags(write=False)
    raw.setflags(write=False)
    return mean, raw


def _mstep(x: np.ndarray, rows: list, keys: list, stats: dict) -> MixtureParams:
    """The M-step on clusters given by their rows, reusing ``stats``."""
    n, d = x.shape
    k = len(rows)
    means = np.empty((k, d))
    raw = np.empty((k, d))
    for j, (idx, key) in enumerate(zip(rows, keys)):
        entry = stats.get(key)
        if entry is None:
            entry = stats.setdefault(key, _cluster_stats(x[idx]))
        means[j], raw[j] = entry
    sizes = np.array([idx.size for idx in rows])
    floored = (raw < VARIANCE_FLOOR).any(axis=1)
    return MixtureParams(sizes / n, means, np.maximum(raw, VARIANCE_FLOOR), floored=floored)


def _log_joint(
    x: np.ndarray,
    params: MixtureParams,
    keys: Optional[list] = None,
    columns: Optional[dict] = None,
    owners: Optional[np.ndarray] = None,
) -> np.ndarray:
    """(N, K) matrix of log w_k plus each component's log density.

    Components are scored one at a time in one reused (N, D) buffer, each
    row summing its D terms in one contiguous reduction. The result is the
    transpose of a C-ordered (K, N) array; sums over its components (as in
    mixture_loglik) take their order, and so their bits, from that layout.

    ``columns`` holds earlier columns under the components' ``keys``. A
    stored column is reused whole when ``owners`` is None; otherwise only
    the rows whose owner differs from the one it was scored under are
    scored again.
    """
    n, d = x.shape
    keys = range(params.k) if keys is None else keys
    columns = {} if columns is None else columns
    mu, v = params.means, params.covariances
    norm = d * _LOG_2PI + np.log(v).sum(axis=1)
    log_w = np.log(params.weights)
    diff = np.empty((n, d))
    joint = np.empty((params.k, n))
    for c, key in enumerate(keys):
        entry = columns.get(key)
        if entry is None:
            stale, part = slice(None), x
        else:
            joint[c] = entry[0]
            if owners is None:
                continue
            stale = np.flatnonzero(entry[1] != owners)
            if stale.size == 0:
                continue
            part = x[stale]
        buf = diff[: part.shape[0]]
        np.subtract(part, mu[c], out=buf)
        buf *= buf
        buf /= v[c]
        scored = buf.sum(axis=1)
        scored += norm[c]
        scored *= -0.5
        scored += log_w[c]
        joint[c, stale] = scored
        stored = joint[c].copy()
        stored.setflags(write=False)
        columns[key] = (stored, owners)
    return joint.T


def _hard_labels(joint: np.ndarray) -> np.ndarray:
    """Each row's argmax component, 1-based; ties go to the smallest."""
    return np.argmax(joint, axis=1).astype(np.int64) + 1


def _total_loglik(joint: np.ndarray) -> float:
    """Sum over rows of the log-sum-exp over components."""
    from scipy.special import logsumexp

    return float(logsumexp(joint, axis=1).sum())


def mstep(x: np.ndarray, labels: np.ndarray, k: int) -> MixtureParams:
    """Hard M-step on the rows of ``x`` for labels in 1..k: weights n_k/N,
    within-cluster means and diagonal variances (denominator n_k), floored
    at 1e-8.

    Each cluster is reduced over its own rows, in row order.
    """
    return _mstep(x, *_members(labels, k), {})


def estep(x: np.ndarray, params: MixtureParams) -> np.ndarray:
    """Hard E-step: label each row of ``x`` with its argmax component.

    Ties go to the smallest component index. Labels keep the component
    indexing of ``params`` (canonicalization happens once, at the end of
    cem_fit); a component may come back empty.
    """
    return _hard_labels(_log_joint(x, params))


def mixture_loglik(x: np.ndarray, params: MixtureParams) -> float:
    """Full mixture quasi log-likelihood via log-sum-exp over components."""
    return _total_loglik(_log_joint(np.asarray(x, dtype=np.float64), params))


def _reorder_to_canonical(
    raw_labels: np.ndarray, params: MixtureParams
) -> tuple[ClusterAssignment, MixtureParams]:
    """Canonicalize labels and permute components to match."""
    canon, k = canonicalize_labels(raw_labels)
    order = np.empty(k, dtype=np.int64)
    order[canon - 1] = raw_labels - 1
    assignment = ClusterAssignment(canon, k)
    params = replace(
        params,
        weights=params.weights[order],
        means=params.means[order],
        covariances=params.covariances[order],
        floored=params.floored[order],
    )
    return assignment, params


def cem_fit(
    g: GramMatrix,
    m: AugmentedGram,
    init: ClusterAssignment,
    max_iter: int = 100,
    memo: Optional[ClusterMemo] = None,
) -> FitResult:
    """Run classification EM from ``init`` at its K and score the result
    by BIC.

    The loop runs on the fixed matrix ``m`` until the assignment stops
    changing or ``max_iter`` sweeps elapse. The final assignment then
    rebuilds the cluster-aware matrix from ``g``, a last M-step on it
    yields the reported parameters, ``loglik`` is the mixture quasi
    log-likelihood of its rows and ``bic`` scores it with num_params(k, N)
    free parameters. An E-step that empties a component aborts the fit as
    degenerate, as does a collapsed final component.

    ``memo`` shares per-cluster work with the other fits on the same ``g``
    and ``m``; the result is the same with or without it.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if init.n_objects != m.n_objects:
        raise ValueError("init length does not match M")
    if (init.sizes() == 0).any():
        raise EmptyClusterError("init must have k non-empty clusters")

    memo = ClusterMemo() if memo is None else memo
    k = init.k
    x = m.values
    labels = init.labels.copy()
    floor_events = 0
    iterations = 0
    converged = False
    emptied = False
    for _ in range(max_iter):
        rows, keys = _members(labels, k)
        params = _mstep(x, rows, keys, memo.sweep_stats)
        iterations += 1
        if params.floored.any():
            floor_events += 1
        new = _hard_labels(_log_joint(x, params, keys, memo.sweep_columns))
        if (np.bincount(new, minlength=k + 1)[1:] == 0).any():
            emptied = True
            break
        if np.array_equal(new, labels):
            converged = True
            break
        labels = new

    if emptied:
        loglik = float("-inf")
        degenerate = True
    else:
        aug = augment_with_clusters(g, ClusterAssignment(labels, k)).values
        rows, keys = _members(labels, k)
        owners = np.empty(m.n_objects, dtype=np.int64)
        for idx, key in zip(rows, keys):
            owners[idx] = memo.owner_id(key)
        owners.setflags(write=False)
        params = _mstep(aug, rows, keys, memo.aware_stats)
        loglik = _total_loglik(_log_joint(aug, params, keys, memo.aware_columns, owners))
        degenerate = bool(params.floored.any())
    n = m.n_objects
    score = float("-inf") if degenerate else bic(loglik, num_params(k, n), n)
    assignment, params = _reorder_to_canonical(labels, params)
    return FitResult(
        labels=assignment,
        params=params,
        loglik=loglik,
        bic=score,
        iterations=iterations,
        converged=converged,
        degenerate=degenerate,
        floor_events=floor_events,
    )
