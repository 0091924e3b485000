"""Classification-EM fitting of a Gaussian quasi-mixture to the rows of
an augmented Gram matrix.

The loop alternates a hard M-step (component weights, means, covariances
from the current assignment, all with denominator n_k) and a hard E-step
(argmax of weighted log-density) on a fixed input matrix. Scoring happens
afterwards on the cluster-aware matrix rebuilt from the final assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data import GramMatrix
from .errors import EmptyClusterError, SingularCovarianceError
from .hierarchy import ClusterAssignment, canonicalize_labels
from .transform import AugmentedGram, augment_with_clusters

VARIANCE_FLOOR = 1e-8

_LOG_2PI = math.log(2.0 * math.pi)

# Cap on the difference buffer of _log_joint (512 KB, cache-sized). At
# N = 60 up to 17 components share one pass; at N = 400 a block is 163
# rows of one component, and the (K, N, D) tensor (77 MB at K = 20) is
# never built.
_BLOCK_DOUBLES = 1 << 16


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
        for name, arr in (("weights", w), ("means", mu), ("covariances", cov)):
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
    """Outcome of one classification-EM fit at a fixed K.

    ``loglik`` is the full mixture quasi log-likelihood evaluated on the
    cluster-aware matrix rebuilt from the final assignment; ``bic`` is
    filled in by model selection (-inf sentinel for degenerate fits, which
    are excluded from the K sweep). ``floor_events`` counts M-steps where
    some variance hit the floor.
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


def component_density_log(row, mean, cov) -> float:
    """log of the diagonal Gaussian density at ``row`` with normalizing
    dimension D = len(row), computed in log space."""
    x = np.asarray(row, dtype=np.float64)
    mu = np.asarray(mean, dtype=np.float64)
    d = x.shape[0]
    diff = x - mu
    v = np.asarray(cov, dtype=np.float64)
    if np.min(v) <= 0:
        raise SingularCovarianceError("nonpositive diagonal variance")
    logdet = float(np.log(v).sum())
    if not math.isfinite(logdet):
        raise SingularCovarianceError("diagonal log-determinant not finite")
    quad = float((diff * diff / v).sum())
    return -0.5 * (d * _LOG_2PI + logdet + quad)


def _log_joint(x: np.ndarray, params: MixtureParams) -> np.ndarray:
    """(N, K) matrix of log w_k plus each component's log density.

    The squared scaled differences are formed in one reused buffer of at
    most _BLOCK_DOUBLES values: a block of whole components where one
    component fits, else a block of rows of one component. Each row still
    sums its D terms in one contiguous reduction. The result is the
    transpose of a C-ordered (K, N) array; sums over its components (as in
    mixture_loglik) take their order, and so their bits, from that layout.
    """
    n, d = x.shape
    k = params.k
    mu, v = params.means, params.covariances
    rows = max(1, min(n, _BLOCK_DOUBLES // d))
    comps = max(1, _BLOCK_DOUBLES // (rows * d))
    buf = np.empty(min(k, comps) * rows * d)
    quad = np.empty((k, n))
    for c0 in range(0, k, comps):
        c1 = min(k, c0 + comps)
        for r0 in range(0, n, rows):
            r1 = min(n, r0 + rows)
            diff = buf[: (c1 - c0) * (r1 - r0) * d].reshape(c1 - c0, r1 - r0, d)
            np.subtract(x[None, r0:r1], mu[c0:c1, None], out=diff)
            np.multiply(diff, diff, out=diff)
            np.divide(diff, v[c0:c1, None], out=diff)
            quad[c0:c1, r0:r1] = diff.sum(axis=-1)
    quad += (d * _LOG_2PI + np.log(v).sum(axis=1))[:, None]
    quad *= -0.5
    quad += np.log(params.weights)[:, None]
    return quad.T


def mstep(x: np.ndarray, labels: np.ndarray, k: int) -> MixtureParams:
    """Hard M-step on the rows of ``x`` for labels in 1..k: weights n_k/N,
    within-cluster means and diagonal variances (denominator n_k), floored
    at 1e-8.

    The rows are sorted by label once (stably, so each cluster keeps its
    row order) and every cluster is reduced over its contiguous slice.
    """
    n, d = x.shape
    sizes = np.bincount(labels, minlength=k + 1)[1:]
    if (sizes == 0).any():
        empty = int(np.flatnonzero(sizes == 0)[0]) + 1
        raise EmptyClusterError(f"cluster {empty} is empty")
    xs = x[np.argsort(labels, kind="stable")]
    means = np.empty((k, d))
    raw = np.empty((k, d))
    start = 0
    for j, size in enumerate(sizes.tolist()):
        rows = xs[start : start + size]
        start += size
        np.add.reduce(rows, axis=0, out=means[j])
        means[j] /= size
        rows -= means[j]
        rows *= rows
        np.add.reduce(rows, axis=0, out=raw[j])
    raw /= sizes[:, None]
    floored = (raw < VARIANCE_FLOOR).any(axis=1)
    return MixtureParams(sizes / n, means, np.maximum(raw, VARIANCE_FLOOR), floored=floored)


def estep(x: np.ndarray, params: MixtureParams) -> np.ndarray:
    """Hard E-step: label each row of ``x`` with its argmax component.

    Ties go to the smallest component index. Labels keep the component
    indexing of ``params`` (canonicalization happens once, at the end of
    cem_fit); a component may come back empty.
    """
    return np.argmax(_log_joint(x, params), axis=1).astype(np.int64) + 1


def classification_loglik(
    x: np.ndarray, params: MixtureParams, labels: np.ndarray
) -> float:
    """Sum of log w_k + log-density of each row under its assigned
    component (the quantity each CEM sweep cannot decrease, floor aside)."""
    joint = _log_joint(np.asarray(x, dtype=np.float64), params)
    idx = np.asarray(labels, dtype=np.int64) - 1
    return float(joint[np.arange(joint.shape[0]), idx].sum())


def mixture_loglik(x: np.ndarray, params: MixtureParams) -> float:
    """Full mixture quasi log-likelihood via log-sum-exp.

    Per row this is the arithmetic of scipy.special.logsumexp (scipy 1.17),
    bit for bit: the m entries tied at the row maximum leave the sum, and
    the row scores log1p(sum(exp(rest - max)) / m) + log(m) + max. Every
    entry of the joint matrix is finite here.
    """
    joint = _log_joint(np.asarray(x, dtype=np.float64), params)
    top = joint.max(axis=1, keepdims=True)
    at_top = joint == top
    ties = at_top.sum(axis=1, keepdims=True)
    rest = np.exp(joint - top)
    rest[at_top] = 0.0
    s = rest.sum(axis=1, keepdims=True) / ties
    return float((np.log1p(s) + np.log(ties) + top).sum())


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
        floored=None if params.floored is None else params.floored[order],
    )
    return assignment, params


def cem_fit(
    g: GramMatrix,
    m: AugmentedGram,
    k: int,
    init: ClusterAssignment,
    max_iter: int = 100,
) -> FitResult:
    """Run classification EM at a fixed K and score the result.

    The loop runs on the fixed matrix ``m`` until the assignment stops
    changing or ``max_iter`` sweeps elapse. The final assignment then
    rebuilds the cluster-aware matrix from ``g``, a last M-step on it
    yields the reported parameters, and ``loglik`` is the mixture quasi
    log-likelihood of its rows. An E-step that empties a component aborts
    the fit as degenerate, as does a collapsed final component.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if init.k != k:
        raise ValueError(f"init declares k={init.k}, expected {k}")
    if init.n_objects != m.n_objects:
        raise ValueError("init length does not match M")
    if (init.sizes() == 0).any():
        raise EmptyClusterError("init must have k non-empty clusters")

    x = m.values
    labels = init.labels.copy()
    floor_events = 0
    iterations = 0
    converged = False
    for _ in range(max_iter):
        params = mstep(x, labels, k)
        iterations += 1
        if params.floored is not None and params.floored.any():
            floor_events += 1
        new = estep(x, params)
        if (np.bincount(new, minlength=k + 1)[1:] == 0).any():
            assignment, params = _reorder_to_canonical(labels, params)
            return FitResult(
                labels=assignment,
                params=params,
                loglik=float("-inf"),
                bic=float("-inf"),
                iterations=iterations,
                converged=False,
                degenerate=True,
                floor_events=floor_events,
            )
        if np.array_equal(new, labels):
            converged = True
            break
        labels = new

    aug_c = augment_with_clusters(g, ClusterAssignment(labels, k))
    final_params = mstep(aug_c.values, labels, k)
    loglik = mixture_loglik(aug_c.values, final_params)
    collapsed = bool(final_params.floored is not None and final_params.floored.any())
    assignment, final_params = _reorder_to_canonical(labels, final_params)
    return FitResult(
        labels=assignment,
        params=final_params,
        loglik=loglik,
        bic=float("-inf") if collapsed else float("nan"),
        iterations=iterations,
        converged=converged,
        degenerate=collapsed,
        floor_events=floor_events,
    )
