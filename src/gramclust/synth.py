"""Synthetic mixtures with known truth, closed-form deviation bounds, and
the Monte-Carlo harnesses that verify them.

The generator draws cluster labels from the mixing weights and then
conditionally independent Gaussian features per coordinate. The deviation
bound on the cluster-aware matrix is evaluated in closed form from the
generator's dispersion summaries; harness checks run on raw (never
standardized) data because the bound applies to the raw generator model,
and they condition on assignments where every cluster has at least two
members so the restricted same-cluster average is always defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import FeatureMatrix, gram_values
from .hierarchy import ClusterAssignment
from .transform import cluster_augment_values, expected_rows

_REJECTION_CAP = 10_000


@dataclass(frozen=True)
class MixtureSpec:
    """Ground-truth generator: K0 clusters with diagonal covariances.

    ``variances`` holds per-feature variances (features are independent
    given the cluster). Reproducibility comes from a counter-based Philox
    stream keyed on ``seed``.
    """

    k0: int
    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    seed: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        mu = np.atleast_2d(np.asarray(self.means, dtype=np.float64)).copy()
        var = np.atleast_2d(np.asarray(self.variances, dtype=np.float64)).copy()
        if self.k0 < 1:
            raise ValueError("k0 must be positive")
        for name, arr in (("weights", w), ("means", mu), ("variances", var)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if w.shape != (self.k0,):
            raise ValueError("weights must have length k0")
        if w.min() < 0 or abs(w.sum() - 1.0) >= 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if mu.shape[0] != self.k0 or var.shape != mu.shape:
            raise ValueError("means and variances must both be (k0, P)")
        if var.min() < 0:
            raise ValueError("variances must be nonnegative")
        for name, arr in (("weights", w), ("means", mu), ("variances", var)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.means.shape[1]


def stream(seed) -> np.random.Generator:
    """Counter-based generator keyed on an int or a SeedSequence, so draws
    are independent of stream order."""
    return np.random.Generator(np.random.Philox(seed))


def replicate_streams(root: np.random.SeedSequence, count: int) -> list:
    """Independent per-replicate substreams spawned from ``root``."""
    return [stream(child) for child in root.spawn(count)]


def gen_mixture(
    spec: MixtureSpec,
    n: int,
    rng: Optional[np.random.Generator] = None,
    labels: Optional[np.ndarray] = None,
) -> tuple[FeatureMatrix, ClusterAssignment]:
    """Draw n objects: labels i.i.d. from the weights (unless supplied),
    then x[i, p] ~ Normal(mean[label, p], variance[label, p])."""
    if n < 2:
        raise ValueError("need n >= 2")
    if rng is None:
        rng = stream(spec.seed)
    if labels is None:
        lab = rng.choice(spec.k0, size=n, p=spec.weights).astype(np.int64) + 1
    else:
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (n,):
            raise ValueError("labels must have length n")
    # One buffer: the noise is scaled and shifted in place and then frozen,
    # so the FeatureMatrix adopts it.
    x = rng.standard_normal((n, spec.p))
    x *= np.sqrt(spec.variances)[lab - 1]
    x += spec.means[lab - 1]
    x.setflags(write=False)
    return FeatureMatrix(x), ClusterAssignment(lab, spec.k0)


def _draw_labels_min_size(
    spec: MixtureSpec, n: int, rng: np.random.Generator, min_size: int
) -> np.ndarray:
    """Rejection-sample labels until every cluster has >= min_size members."""
    for _ in range(_REJECTION_CAP):
        lab = rng.choice(spec.k0, size=n, p=spec.weights).astype(np.int64) + 1
        if np.bincount(lab, minlength=spec.k0 + 1)[1:].min() >= min_size:
            return lab
    raise ValueError(
        f"could not draw an assignment with cluster sizes >= {min_size}"
    )


@dataclass(frozen=True)
class BoundInputs:
    """Dispersion summaries feeding the closed-form deviation bound.

    ``cov_l1_sqrt`` is the square root of the largest entrywise 1-norm of
    a cluster's feature covariance; ``sqdev_l1_sqrt`` the same for the
    covariance of the squared deviations. ``mean_sup`` and ``sd_sup``
    bound the feature means and standard deviations.
    """

    cov_l1_sqrt: float
    sqdev_l1_sqrt: float
    mean_sup: float
    sd_sup: float
    n: int
    p: int

    @classmethod
    def from_spec(cls, spec: MixtureSpec, n: int) -> "BoundInputs":
        # For diagonal covariances the entrywise 1-norm is the variance sum;
        # the squared-deviation covariance of a Gaussian is diagonal with
        # entries Var(y^2) = 2 sigma^4.
        cov_l1 = spec.variances.sum(axis=1)
        sqdev_l1 = (2.0 * spec.variances**2).sum(axis=1)
        return cls(
            cov_l1_sqrt=float(np.sqrt(cov_l1.max())),
            sqdev_l1_sqrt=float(np.sqrt(sqdev_l1.max())),
            mean_sup=float(np.abs(spec.means).max()),
            sd_sup=float(np.sqrt(spec.variances.max())),
            n=n,
            p=spec.p,
        )

    @property
    def cov_ratio(self) -> float:
        """cov_l1_sqrt / P (must vanish as P grows for a useful bound)."""
        return self.cov_l1_sqrt / self.p

    @property
    def sqdev_ratio(self) -> float:
        return self.sqdev_l1_sqrt / self.p


def _row_bracket(b: BoundInputs) -> float:
    """P^2 times the bound on one row's expected squared deviation."""
    return (
        (b.n - 1) * b.cov_l1_sqrt**2 * (2.0 * b.mean_sup + b.sd_sup) ** 2
        + (b.sqdev_l1_sqrt + 2.0 * b.cov_l1_sqrt * b.mean_sup) ** 2
    )


def deviation_bound(b: BoundInputs) -> float:
    """Closed-form bound on the expected Frobenius distance between the
    cluster-aware matrix and its expectation (not squared)."""
    return math.sqrt(b.n * _row_bracket(b)) / b.p


def row_deviation_bound(b: BoundInputs) -> float:
    """Bound on the expected squared deviation of a single row."""
    return _row_bracket(b) / b.p**2


@dataclass(frozen=True)
class ConcentrationPoint:
    """Monte-Carlo summary of the squared matrix deviation at one P."""

    p: int
    n: int
    reps: int
    mse_mean: float
    mse_se: float
    bound: float
    bound_sq: float
    row_mse_max: float
    row_bound: float
    cov_ratio: float
    sqdev_ratio: float


def empirical_concentration(
    spec: MixtureSpec, n: int, reps: int, rngs: Optional[list] = None
) -> ConcentrationPoint:
    """Monte-Carlo mean of the squared deviation of the cluster-aware
    matrix from its expectation, next to the closed-form bound.

    Standardization is deliberately skipped: the bound is about the raw
    generator model. Assignments are conditioned on min cluster size 2.
    """
    if reps < 30:
        raise ValueError("need reps >= 30")
    if rngs is None:
        rngs = replicate_streams(np.random.SeedSequence(spec.seed), reps)
    sq = np.empty(reps)
    row_sq = np.empty((reps, n))
    for r in range(reps):
        rng = rngs[r]
        lab = _draw_labels_min_size(spec, n, rng, 2)
        fm, truth = gen_mixture(spec, n, rng=rng, labels=lab)
        gv = gram_values(fm.values)
        aug = cluster_augment_values(gv, truth.labels)
        expectations = expected_rows(spec, truth)
        diff = aug - expectations.row_means
        per_row = (diff * diff).sum(axis=1)
        row_sq[r] = per_row
        sq[r] = per_row.sum()
    b = BoundInputs.from_spec(spec, n)
    return ConcentrationPoint(
        p=spec.p,
        n=n,
        reps=reps,
        mse_mean=float(sq.mean()),
        mse_se=float(sq.std(ddof=1) / math.sqrt(reps)),
        bound=deviation_bound(b),
        bound_sq=deviation_bound(b) ** 2,
        row_mse_max=float(row_sq.mean(axis=0).max()),
        row_bound=row_deviation_bound(b),
        cov_ratio=b.cov_ratio,
        sqdev_ratio=b.sqdev_ratio,
    )


@dataclass(frozen=True)
class ExpectationReport:
    """Entrywise Monte-Carlo check of the expected row structure.

    Deviations are standardized by the Monte-Carlo standard error; with
    N(N+1) entries a max below 4 leaves little multiple-comparison slack,
    so treat values just above 4 as noise before suspecting code.
    """

    n: int
    p: int
    reps: int
    max_dev_aug: float
    max_dev_gram: float
    cluster_sizes: tuple


def expectation_check(spec: MixtureSpec, n: int, reps: int) -> ExpectationReport:
    """Compare Monte-Carlo means of the cluster-aware matrix (fixed true
    assignment) and of the off-diagonal Gram entries against their
    predicted expectations."""
    if reps < 100:
        raise ValueError("need reps >= 100")
    root = np.random.SeedSequence(spec.seed)
    label_seq, rep_root = root.spawn(2)
    lab = _draw_labels_min_size(spec, n, stream(label_seq), 2)
    truth = ClusterAssignment(lab, spec.k0)
    expectations = expected_rows(spec, truth)
    rngs = replicate_streams(rep_root, reps)

    aug_acc = np.zeros((reps, n, n + 1))
    gram_acc = np.zeros((reps, n, n))
    for r in range(reps):
        fm, _ = gen_mixture(spec, n, rng=rngs[r], labels=lab)
        gv = gram_values(fm.values)
        gram_acc[r] = gv
        aug_acc[r] = cluster_augment_values(gv, lab)

    def _max_std_dev(samples: np.ndarray, expected: np.ndarray) -> float:
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
        diff = np.abs(mean - expected)
        dev = np.where(
            se > 0,
            diff / np.where(se > 0, se, 1.0),
            np.where(diff == 0, 0.0, np.inf),
        )
        return float(dev.max())

    off = ~np.eye(n, dtype=bool)
    expected_gram = expectations.pairwise[np.ix_(lab - 1, lab - 1)]
    sizes = tuple(int(s) for s in np.bincount(lab, minlength=spec.k0 + 1)[1:])
    return ExpectationReport(
        n=n,
        p=spec.p,
        reps=reps,
        max_dev_aug=_max_std_dev(aug_acc, expectations.row_means),
        max_dev_gram=_max_std_dev(gram_acc[:, off], expected_gram[off]),
        cluster_sizes=sizes,
    )


# ---------------------------------------------------------------------------
# Grid sweeps: one spec family instantiated at several feature counts
# ---------------------------------------------------------------------------


def _whole(name: str, value) -> int:
    """``value`` as an int; 4.0 passes, and 4.7, "4" and NaN raise."""
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class SimulationPlan:
    """Parametric family of mixtures over a grid of feature counts.

    Per-cluster mean/variance patterns are tiled (cyclically repeated) to
    length P for each grid point, so one plan describes every P.
    """

    k0: int
    weights: tuple
    mean_patterns: tuple
    variance_patterns: tuple
    n: int
    reps: int
    p_grid: tuple
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationPlan":
        return cls(
            k0=_whole("k0", d["k0"]),
            weights=tuple(float(w) for w in d["weights"]),
            mean_patterns=tuple(tuple(float(v) for v in p) for p in d["mean_patterns"]),
            variance_patterns=tuple(
                tuple(float(v) for v in p) for p in d["variance_patterns"]
            ),
            n=_whole("n", d["n"]),
            reps=_whole("reps", d["reps"]),
            p_grid=tuple(_whole("p_grid", p) for p in d["p_grid"]),
            seed=_whole("seed", d.get("seed", 0)),
        )


def build_spec(plan: SimulationPlan, p: int) -> MixtureSpec:
    """Instantiate the plan's mixture at feature count p."""
    means = np.stack([np.resize(np.asarray(pat, float), p) for pat in plan.mean_patterns])
    variances = np.stack(
        [np.resize(np.asarray(pat, float), p) for pat in plan.variance_patterns]
    )
    return MixtureSpec(
        k0=plan.k0,
        weights=np.asarray(plan.weights),
        means=means,
        variances=variances,
        seed=plan.seed,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    points: tuple
    slope: Optional[float]


def concentration_sweep(plan: SimulationPlan) -> ConcentrationReport:
    """Run the concentration harness at every grid P and fit the log-log
    slope of mean squared deviation against P."""
    children = np.random.SeedSequence(plan.seed).spawn(len(plan.p_grid))
    points = []
    for idx, p in enumerate(plan.p_grid):
        spec = build_spec(plan, p)
        rngs = replicate_streams(children[idx], plan.reps)
        points.append(empirical_concentration(spec, plan.n, plan.reps, rngs=rngs))
    xs = [math.log(pt.p) for pt in points if pt.mse_mean > 0]
    ys = [math.log(pt.mse_mean) for pt in points if pt.mse_mean > 0]
    slope = None
    if len(xs) >= 2:
        slope = float(np.polyfit(xs, ys, 1)[0])
    return ConcentrationReport(points=tuple(points), slope=slope)
