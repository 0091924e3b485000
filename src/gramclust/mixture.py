"""Classification-EM fitting of a Gaussian quasi-mixture to the rows of
an augmented Gram matrix.

The loop alternates a hard M-step (component weights, means, covariances
from the current assignment, all with denominator n_k) and a hard E-step
(argmax of weighted log-density) on a fixed input matrix. A final
assignment with a cluster of at most 2 members is degenerate from its
sizes alone; otherwise a last M-step on its cluster-aware matrix decides
whether the fit is degenerate, and only a fit that is not gets
parameters and a score (the quasi log-likelihood and its BIC).

Every per-cluster statistic depends only on the cluster's members: it is
a reduction over its own rows, in row order. A ClusterMemo shares that
work between the fits of one K sweep, keyed by membership, without
changing a bit of any result. The log-joint of all components is two
matrix products on the column-centred rows, so its last bits can depend
on how many threads the BLAS runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import GramMatrix, _frozen
from .errors import EmptyClusterError
from .hierarchy import ClusterAssignment
from .transform import AugmentedGram, augment_with_clusters

VARIANCE_FLOOR = 1e-8

_LOG_2PI = math.log(2.0 * math.pi)

# Why a fit is degenerate: an E-step emptied a component, a final cluster
# has at most 2 members (its variance floors by construction), or the
# floor bound otherwise.
DEGENERATE_REASONS = ("emptied", "small_cluster", "floored")


@dataclass(frozen=True)
class MixtureParams:
    """Weights, means and diagonal covariances of a K-component Gaussian
    mixture.

    ``covariances`` is (K, D) of per-coordinate variances.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w, mu, cov = map(_frozen, (self.weights, self.means, self.covariances))
        k, d = mu.shape
        if w.shape != (k,):
            raise ValueError("weights must be a K-vector")
        if np.min(w) < 0 or abs(w.sum() - 1.0) >= 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if cov.shape != (k, d):
            raise ValueError("diagonal covariances must be (K, D)")
        if np.min(cov) < VARIANCE_FLOOR:
            raise ValueError("diagonal variance below the floor")
        for name, arr in (("weights", w), ("means", mu), ("covariances", cov)):
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.means.shape[0]


@dataclass(frozen=True)
class FitResult:
    """Outcome and score of one classification-EM fit at a fixed K.

    ``loglik`` is the full mixture quasi log-likelihood evaluated on the
    cluster-aware matrix of the final assignment, ``bic`` its BIC and
    ``params`` the mixture it was scored with. A fit is degenerate when
    ``degenerate_reason`` (one of DEGENERATE_REASONS) is set. Degenerate
    fits are not scored: they carry no params and loglik = bic = -inf,
    and are excluded from the K sweep. ``floor_events`` counts M-steps
    where some variance hit the floor.
    """

    labels: ClusterAssignment
    params: Optional[MixtureParams]
    loglik: float
    bic: float
    iterations: int
    converged: bool
    degenerate_reason: Optional[str]
    floor_events: int = 0

    def __post_init__(self):
        if self.degenerate_reason not in (None, *DEGENERATE_REASONS):
            raise ValueError(f"unknown degenerate_reason {self.degenerate_reason!r}")
        if self.degenerate and self.bic != float("-inf"):
            raise ValueError("degenerate fits must carry bic = -inf")
        if self.degenerate != (self.params is None):
            raise ValueError("params is None exactly when the fit is degenerate")

    @property
    def degenerate(self) -> bool:
        return self.degenerate_reason is not None

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


@dataclass(eq=False)
class _Component:
    """One cluster's component on one matrix: its M-step and its scores.

    ``var`` is the floored variance and ``floored`` whether the floor
    bound; ``norm`` is D log 2 pi + sum log var. Arrays are read-only.
    """

    mean: np.ndarray
    var: np.ndarray
    floored: bool
    log_w: float
    norm: float = field(init=False)

    def __post_init__(self):
        self.mean.setflags(write=False)
        self.var.setflags(write=False)
        self.norm = self.mean.shape[0] * _LOG_2PI + np.log(self.var).sum()


@dataclass
class ClusterMemo:
    """Per-cluster work shared by the fits of one K sweep.

    Both tables map a cluster's membership (the bytes of its sorted row
    indices) to its _Component. ``sweep`` holds components on the sweep's
    fixed matrix. ``aware`` holds them on the cluster-aware matrices,
    whose row i depends only on the members of i's own cluster, so a
    cluster's statistics there depend only on its members, whatever the
    rest of the partition. ``centred`` is the sweep matrix's _centred
    form, which every E-step scores. A memo is valid for one Gram matrix
    and its sweep matrix.
    """

    sweep: dict = field(default_factory=dict)
    aware: dict = field(default_factory=dict)
    centred: Optional[tuple] = None


def _members(labels: np.ndarray, k: int) -> tuple[list, list]:
    """Sorted row indices of clusters 1..k, and their memo keys."""
    sizes = np.bincount(labels, minlength=k + 1)[1:]
    if (sizes == 0).any():
        empty = int(np.flatnonzero(sizes == 0)[0]) + 1
        raise EmptyClusterError(f"cluster {empty} is empty")
    rows = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
    return rows, [r.tobytes() for r in rows]


def _mstep(x: np.ndarray, rows: list, keys: list, table: dict) -> list:
    """The M-step on clusters given by their rows, one component each,
    taken from ``table`` when its key is there. A new cluster's mean and
    raw scatter (denominator n_k) are reductions over its own rows, in
    row order."""
    log_w = np.log(np.array([idx.size for idx in rows]) / x.shape[0])
    comps = []
    for idx, key, lw in zip(rows, keys, log_w):
        comp = table.get(key)
        if comp is None:
            part = x[idx]
            mean = np.add.reduce(part, axis=0)
            mean /= idx.size
            part -= mean
            part *= part
            raw = np.add.reduce(part, axis=0)
            raw /= idx.size
            floored = bool((raw < VARIANCE_FLOOR).any())
            comp = table[key] = _Component(mean, np.maximum(raw, VARIANCE_FLOOR), floored, lw)
        comps.append(comp)
    return comps


def _params(comps: list, rows: list, n: int) -> MixtureParams:
    """The MixtureParams of components with the given members, in order."""
    return MixtureParams(
        np.array([idx.size for idx in rows]) / n, [c.mean for c in comps],
        [c.var for c in comps],
    )


def _centred(x: np.ndarray) -> tuple:
    """(c, xc, xc*xc) of ``x``: its column means c and its rows less c."""
    c = x.mean(axis=0)
    xc = x - c
    return c, xc, xc * xc


def _log_joint(x: np.ndarray, comps: list, centred: Optional[tuple] = None) -> np.ndarray:
    """(N, K) matrix of log w_k plus each component's log density.

    Every component is scored at once on the rows centred by their column
    means c (``centred`` is _centred(x), computed here when None): with
    M' = M - c, the quadratic form is
    q = (xc*xc) @ (1/V).T - 2 xc @ (M'/V).T + sum(M'^2/V),
    and the entry is -q/2 + log w - norm/2.
    """
    c, xc, xc2 = _centred(x) if centred is None else centred
    inv = 1.0 / np.array([comp.var for comp in comps])
    shift = np.array([comp.mean for comp in comps]) - c
    scaled = shift * inv
    q = xc2 @ inv.T
    q -= 2.0 * (xc @ scaled.T)
    q += (shift * scaled).sum(axis=1)
    q += [comp.norm for comp in comps]
    q *= -0.5
    q += [comp.log_w for comp in comps]
    return q


def _hard_labels(joint: np.ndarray) -> np.ndarray:
    """Each row's argmax component, 1-based; ties go to the smallest."""
    return np.argmax(joint, axis=1).astype(np.int64) + 1


def _total_loglik(joint: np.ndarray) -> float:
    """Sum over rows of the log-sum-exp over components, for a finite
    ``joint``.

    The form is scipy.special.logsumexp's, so the bits are too: the terms
    equal to the row maximum are taken out of the sum, the others shifted
    by the maximum, and the row's value is log1p(sum / ties) + log(ties)
    plus the maximum, where ties counts the terms at the maximum.
    """
    top = joint.max(axis=1, keepdims=True)
    at_top = joint == top
    ties = at_top.sum(axis=1, keepdims=True, dtype=np.float64)
    terms = np.exp(joint - top)
    terms[at_top] = 0.0
    rest = terms.sum(axis=1, keepdims=True) / ties
    return float((np.log1p(rest) + np.log(ties) + top).ravel().sum())


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
    changing or ``max_iter`` sweeps elapse. The fit is degenerate when an
    E-step empties a component, when a final cluster has at most 2
    members (its variance on the cluster-aware matrix floors by
    construction), or when a variance floors in a last M-step on the
    cluster-aware matrix of the final assignment. A degenerate fit
    carries no parameters and is not scored. Otherwise that M-step yields
    the reported parameters, ``loglik`` is the mixture quasi
    log-likelihood of the cluster-aware rows and ``bic`` scores it with
    num_params(k, N) free parameters.

    ``memo`` shares per-cluster work with the other fits on the same ``g``
    and ``m``; the result is the same with or without it.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if init.n_objects != m.n_objects:
        raise ValueError("init length does not match M")

    memo = ClusterMemo() if memo is None else memo
    k = init.k
    x = m.values
    if memo.centred is None:
        memo.centred = _centred(x)
    labels = init.labels.copy()
    floor_events = 0
    iterations = 0
    converged = False
    emptied = False
    for _ in range(max_iter):
        rows, keys = _members(labels, k)
        comps = _mstep(x, rows, keys, memo.sweep)
        iterations += 1
        floor_events += any(c.floored for c in comps)
        new = _hard_labels(_log_joint(x, comps, memo.centred))
        if (np.bincount(new, minlength=k + 1)[1:] == 0).any():
            emptied = True
            break
        if np.array_equal(new, labels):
            converged = True
            break
        labels = new

    n = m.n_objects
    assignment = ClusterAssignment.from_raw(labels)
    loglik = score = float("-inf")
    params = None
    if emptied:
        reason = "emptied"
    else:
        rows, keys = _members(labels, k)
        if min(idx.size for idx in rows) <= 2:
            # a singleton has zero variance everywhere; in a pair {i, j},
            # slot (i, i) equals g[j, i], row j's entry in column i
            reason = "small_cluster"
        else:
            aug = augment_with_clusters(g, assignment).values
            comps = _mstep(aug, rows, keys, memo.aware)
            reason = "floored" if any(c.floored for c in comps) else None
    if reason is None:
        loglik = _total_loglik(_log_joint(aug, comps))
        score = bic(loglik, num_params(k, n), n)
        # canonical component order: clusters by their first member
        order = np.argsort([idx[0] for idx in rows])
        params = _params([comps[j] for j in order], [rows[j] for j in order], n)
    return FitResult(
        labels=assignment,
        params=params,
        loglik=loglik,
        bic=score,
        iterations=iterations,
        converged=converged,
        degenerate_reason=reason,
        floor_events=floor_events,
    )
