"""BIC model selection and the end-to-end clustering driver.

For each candidate K the driver initializes from the Ward tree over the
rows of the augmented Gram matrix, runs classification EM, and scores
2 * loglik - nu * ln(N) on the cluster-aware matrix; the K with the
largest finite score wins, ties going to the smaller K.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import FeatureMatrix, gram, preprocess_dataset, standardize_columns
from .errors import AllFitsDegenerateError
from .hierarchy import ClusterAssignment, cut_tree, ward_linkage
from .mixture import FitResult, cem_fit
from .transform import augment

PREPROCESS_STANDARDIZE = "standardize"
PREPROCESS_PAPER = "paper"

DEFAULT_KMAX = 20
DEFAULT_MAX_ITER = 100


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


@dataclass(frozen=True)
class KFitRecord:
    k: int
    bic: float
    converged: bool
    degenerate: bool


@dataclass(frozen=True)
class ClusterOutput:
    """Result of the full K sweep."""

    k_hat: int
    labels: ClusterAssignment
    bic_trace: tuple
    fits: tuple
    timings: dict

    def __post_init__(self):
        ks = [rec.k for rec in self.bic_trace]
        if ks != list(range(1, len(ks) + 1)):
            raise ValueError("bic_trace must cover K = 1..Kmax exactly once")
        finite = [rec for rec in self.bic_trace if np.isfinite(rec.bic)]
        if not finite:
            raise ValueError("no finite BIC in trace")
        best = max(finite, key=lambda rec: (rec.bic, -rec.k))
        if self.k_hat != best.k:
            raise ValueError("k_hat does not maximize the finite BIC trace")


def _prepare(x: FeatureMatrix, preprocess: str) -> FeatureMatrix:
    if preprocess not in (PREPROCESS_STANDARDIZE, PREPROCESS_PAPER):
        raise ValueError(f"unknown preprocess mode {preprocess!r}")
    if x.standardized:
        return x
    if preprocess == PREPROCESS_PAPER:
        x = preprocess_dataset(x)
    return standardize_columns(x)


def cluster_features(
    x: FeatureMatrix,
    kmax: int = DEFAULT_KMAX,
    max_iter: int = DEFAULT_MAX_ITER,
    preprocess: str = PREPROCESS_PAPER,
    threads: int = 1,
) -> ClusterOutput:
    """Cluster the rows of a feature matrix, estimating K by BIC.

    Pipeline: (optional preprocessing +) standardization, Gram matrix and
    its one-cluster augmentation, then for K = 1..kmax a Ward-tree cut
    initializes classification EM (K = 1 needs neither). Per-K fits are
    independent and may run on ``threads`` workers; the sweep result is
    deterministic regardless of execution order. ``kmax`` is clamped to N
    with a warning.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    timings: dict = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    x = _prepare(x, preprocess)
    timings["preprocess"] = time.perf_counter() - t0

    n = x.n_objects
    if kmax > n:
        warnings.warn(f"kmax={kmax} exceeds N={n}; clamped to N", stacklevel=2)
        kmax = n

    t0 = time.perf_counter()
    g = gram(x)
    m = augment(g)
    timings["gram"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dendrogram = ward_linkage(m.values) if kmax >= 2 else None
    timings["ward"] = time.perf_counter() - t0

    def fit_k(k: int) -> tuple[FitResult, float]:
        t = time.perf_counter()
        if k == 1:
            init = ClusterAssignment(np.ones(n, dtype=np.int64), 1)
        else:
            init = cut_tree(dendrogram, k)
        fit = cem_fit(g, m, k, init, max_iter=max_iter)
        if not fit.degenerate:
            fit = replace(fit, bic=bic(fit.loglik, num_params(k, n), n))
        return fit, time.perf_counter() - t

    ks = list(range(1, kmax + 1))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(fit_k, ks))
    else:
        results = [fit_k(k) for k in ks]
    fits = tuple(r[0] for r in results)
    timings["fit_per_k"] = [r[1] for r in results]

    t0 = time.perf_counter()
    trace = tuple(
        KFitRecord(k=k, bic=f.bic, converged=f.converged, degenerate=f.degenerate)
        for k, f in zip(ks, fits)
    )
    k_hat = None
    best = float("-inf")
    for rec in trace:
        if not rec.degenerate and np.isfinite(rec.bic) and rec.bic > best:
            best = rec.bic
            k_hat = rec.k
    if k_hat is None:
        # K=1 cannot produce an empty cluster and only collapses when all
        # rows coincide, which standardization already rules out.
        raise AllFitsDegenerateError("every K produced a degenerate fit")
    timings["select"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total

    return ClusterOutput(
        k_hat=k_hat,
        labels=fits[k_hat - 1].labels,
        bic_trace=trace,
        fits=fits,
        timings=timings,
    )
