"""BIC model selection and the end-to-end clustering driver.

For each candidate K the driver initializes from the Ward tree over the
rows of the augmented Gram matrix and runs classification EM, which
scores its fit by BIC on the cluster-aware matrix; the K with the largest
finite score wins, ties going to the smaller K. The per-K fits run in
order of K and share one ClusterMemo: the Ward cuts are nested, so most
clusters of one fit were already fitted and scored at a smaller K.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, gram, preprocess_dataset, standardize_columns
from .errors import AllFitsDegenerateError
from .hierarchy import ClusterAssignment, cut_tree, ward_linkage
from .mixture import ClusterMemo, cem_fit
from .transform import augment

PREPROCESS_STANDARDIZE = "standardize"
PREPROCESS_PAPER = "paper"

DEFAULT_KMAX = 20
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True)
class ClusterOutput:
    """Result of the full K sweep: ``fits[k - 1]`` is the fit at K = k."""

    fits: tuple
    timings: dict

    def __post_init__(self):
        if [f.k for f in self.fits] != list(range(1, len(self.fits) + 1)):
            raise ValueError("fits must cover K = 1..Kmax exactly once")
        if not any(np.isfinite(f.bic) for f in self.fits):
            # K=1 cannot produce an empty cluster and only collapses when all
            # rows coincide, which standardization already rules out.
            raise AllFitsDegenerateError("every K produced a degenerate fit")

    @property
    def k_hat(self) -> int:
        """The K with the largest finite BIC; ties go to the smaller K."""
        finite = [f for f in self.fits if np.isfinite(f.bic)]
        return max(finite, key=lambda f: (f.bic, -f.k)).k

    @property
    def labels(self) -> ClusterAssignment:
        """The labels of the fit at k_hat."""
        return self.fits[self.k_hat - 1].labels


def _prepare(x: FeatureMatrix, preprocess: str) -> FeatureMatrix:
    """``x`` standardized: by preprocess_dataset (log if every value is
    positive, then standardize) under ``paper``, else standardize_columns."""
    if preprocess not in (PREPROCESS_STANDARDIZE, PREPROCESS_PAPER):
        raise ValueError(f"unknown preprocess mode {preprocess!r}")
    if x.standardized:
        return x
    if preprocess == PREPROCESS_PAPER:
        return preprocess_dataset(x)
    return standardize_columns(x)


def cluster_features(
    x: FeatureMatrix,
    kmax: int = DEFAULT_KMAX,
    max_iter: int = DEFAULT_MAX_ITER,
    preprocess: str = PREPROCESS_PAPER,
) -> ClusterOutput:
    """Cluster the rows of a feature matrix, estimating K by BIC.

    Pipeline: (optional preprocessing +) standardization, Gram matrix and
    its one-cluster augmentation, then for K = 1..kmax a Ward-tree cut
    initializes classification EM. The fits run in order of K and share
    one memo of per-cluster work: each is bit-identical to a fit on its
    own, but its time in ``timings["fit_per_k"]`` depends on what the fits
    before it left in the memo. ``kmax`` is clamped to N with a warning.
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
    del x  # only the caller's matrix lives on into the sweep
    m = augment(g)
    timings["gram"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    dendrogram = ward_linkage(m.values)
    timings["ward"] = time.perf_counter() - t0

    memo = ClusterMemo()
    fits = []
    timings["fit_per_k"] = []
    for k in range(1, kmax + 1):
        t0 = time.perf_counter()
        init = cut_tree(dendrogram, k)
        fits.append(cem_fit(g, m, init, max_iter=max_iter, memo=memo))
        timings["fit_per_k"].append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    out = ClusterOutput(fits=tuple(fits), timings=timings)
    timings["select"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_total
    return out
