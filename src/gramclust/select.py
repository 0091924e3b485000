"""BIC model selection and the end-to-end clustering driver.

For each candidate K the driver initializes from the Ward tree over the
rows of the augmented Gram matrix and runs classification EM, which
scores its fit by BIC on the cluster-aware matrix; the K with the largest
finite score wins, ties going to the smaller K. The per-K fits run in
order of K and share one ClusterMemo: the Ward cuts are nested, so most
clusters of one fit were already fitted at a smaller K.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

# gram, preprocess_dataset and standardize_columns are not called here;
# perfbench's tracer wraps them under these names
from .data import (  # noqa: F401
    FeatureMatrix,
    gram,
    preprocess_dataset,
    standardize_columns,
    standardized_gram,
)
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
            # with N = 2 every cluster is small, so every fit is degenerate;
            # with more objects K=1 has one cluster of N > 2 members and
            # cannot empty it
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


def cluster_features(
    x: FeatureMatrix,
    kmax: int = DEFAULT_KMAX,
    max_iter: int = DEFAULT_MAX_ITER,
    preprocess: str = PREPROCESS_PAPER,
) -> ClusterOutput:
    """Cluster the rows of a feature matrix, estimating K by BIC.

    Pipeline: (optional log +) standardization and the Gram matrix in one
    pass over column blocks, its one-cluster augmentation, then for
    K = 1..kmax a Ward-tree cut initializes classification EM. The fits
    run in order of K and share one memo of per-cluster work: each is
    bit-identical to a fit on its own, but its time in
    ``timings["fit_per_k"]`` depends on what the fits before it left in
    the memo. ``kmax`` is clamped to N with a warning.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if preprocess not in (PREPROCESS_STANDARDIZE, PREPROCESS_PAPER):
        raise ValueError(f"unknown preprocess mode {preprocess!r}")
    timings: dict = {}
    t_total = time.perf_counter()

    t0 = time.perf_counter()
    # under paper, the log is taken when every value is positive
    g = standardized_gram(x, log_if_positive=preprocess == PREPROCESS_PAPER)
    timings["preprocess"] = time.perf_counter() - t0

    n = g.n_objects
    if kmax > n:
        warnings.warn(f"kmax={kmax} exceeds N={n}; clamped to N", stacklevel=2)
        kmax = n

    t0 = time.perf_counter()
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
