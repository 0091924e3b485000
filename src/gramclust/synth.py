"""Synthetic mixtures with known truth, their expected cluster-aware rows,
closed-form deviation bounds, and the Monte-Carlo harnesses that verify
them.

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

from .data import FeatureMatrix, _frozen, gram_values
from .errors import DimensionMismatchError, SingleClusterError
from .hierarchy import ClusterAssignment
from .transform import cluster_augment_values

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
        w = _frozen(self.weights)
        mu, var = (np.atleast_2d(_frozen(a)) for a in (self.means, self.variances))
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
    then x[i, p] ~ Normal(mean[label, p], variance[label, p]).

    The noise is scaled and shifted one row at a time, in place, so the
    draw is the only N x P array. That costs two ufunc calls per row:
    a tiny P with a very large N, outside the P >> N regime, pays Python
    overhead per row."""
    if n < 2:
        raise ValueError("need n >= 2")
    if rng is None:
        rng = stream(spec.seed)
    if labels is None:
        lab = _draw_labels(spec, n, rng)
    else:
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != (n,):
            raise ValueError("labels must have length n")
    x = rng.standard_normal((n, spec.p))
    sd = np.sqrt(spec.variances)
    for row, k in zip(x, lab - 1):
        row *= sd[k]
        row += spec.means[k]
    x.setflags(write=False)
    return FeatureMatrix(x), ClusterAssignment(lab, spec.k0)


def _draw_labels(
    spec: MixtureSpec, n: int, rng: np.random.Generator, min_size: int = 0
) -> np.ndarray:
    """Labels i.i.d. from the weights, redrawn until every cluster has >=
    min_size members (a min_size of 0 keeps the first draw)."""
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
class RowExpectations:
    """Expected value of the cluster-aware matrix under a generator.

    pairwise[a,b] is the expected Gram entry for objects from clusters a
    and b (mean_a . mean_b / P, including a == b); diagonal[a] adds the
    average variance (the same-object expectation). cluster_rows[a] is the
    full (N+1)-vector a cluster-a row converges to; row_means[i] is
    cluster_rows[labels[i]].
    """

    row_means: np.ndarray
    pairwise: np.ndarray
    diagonal: np.ndarray
    cluster_rows: np.ndarray

    def __post_init__(self):
        for name in ("row_means", "pairwise", "diagonal", "cluster_rows"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if np.max(np.abs(self.pairwise - self.pairwise.T)) > 0:
            raise ValueError("pairwise expectations must be symmetric")

    @property
    def k0(self) -> int:
        return self.pairwise.shape[0]


def expected_rows(spec: MixtureSpec, labels: ClusterAssignment) -> RowExpectations:
    """Expected cluster-aware matrix for a known mixture and assignment."""
    k0, lab = spec.k0, labels.labels
    if lab.max() > k0:
        raise DimensionMismatchError("assignment uses a cluster the spec lacks")
    table = _expectation_table(spec.means, spec.variances)
    return RowExpectations(
        row_means=_laid_out(table, lab - 1, lab),
        pairwise=table[:, :k0],
        diagonal=table[:, k0],
        cluster_rows=_laid_out(table, np.arange(k0), lab),
    )


def _expectation_table(mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """K0 x (K0+1): the pairwise expectations mu_a . mu_b / P, closed by
    the diagonal column (pairwise[a, a] plus the average variance)."""
    p = mu.shape[1]
    pairwise = mu @ mu.T / p
    diagonal = np.diag(pairwise) + var.sum(axis=1) / p
    return np.column_stack([pairwise, diagonal])


def _laid_out(table: np.ndarray, clusters: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Expected rows for clusters ``clusters`` (0-based), one gather: row
    a lays table[a, label_j] against the assignment and closes with the
    diagonal column. The j == i slot of an object's own row carries
    pairwise[a, a], matching the same-cluster column average in the
    transform. Stacks of ``clusters`` and ``lab``, (..., R) and (..., N),
    give a stack of rows, (..., R, N+1)."""
    closing = np.full(lab.shape[:-1] + (1,), table.shape[0])
    cols = np.concatenate([lab - 1, closing], axis=-1)
    return table[clusters[..., :, None], cols[..., None, :]]


@dataclass(frozen=True)
class SeparabilityReport:
    """Smallest Euclidean gap between expected cluster rows."""

    min_gap: float
    pair: tuple


def separability_diagnostic(expectations: RowExpectations) -> SeparabilityReport:
    """Min over cluster pairs of the expected-row gap.

    Purely diagnostic: identifiability requires the gap to stay bounded
    away from zero, but no numeric threshold is mandated.
    """
    k0 = expectations.k0
    if k0 < 2:
        raise SingleClusterError("separability needs at least two clusters")
    best = None
    pair = None
    for a in range(k0):
        for b in range(a + 1, k0):
            gap = float(np.linalg.norm(
                expectations.cluster_rows[a] - expectations.cluster_rows[b]
            ))
            if best is None or gap < best:
                best = gap
                pair = (a + 1, b + 1)
    return SeparabilityReport(min_gap=best, pair=pair)


# A chunk of stacked replicates holds about this many bytes in its widest
# array, the noise factor or the N x (N+1) rows. On the benchmark plan
# 2**18 and 2**19 were the fastest of 2**14 to 2**21 (9 and 19 replicates
# a chunk); the smaller keeps a plan with a 1000-column narrow block at one
# replicate a chunk, where a fixed chunk of 10 raised the peak 11 times.
_CHUNK_BYTES = 2**18


class _GramLaw:
    """What a draw of G = X X^T / P for n objects needs from a spec, found
    once per spec. Columns whose mean and variance agree in every cluster
    form a group. The groups of more than n columns are drawn compressed:
    their sds are ``wide_sds``, their widths' square roots ``wide_roots``
    and their Bartlett degrees of freedom ``wide_df``. The narrower groups'
    columns are drawn as one block: their sds are ``block_sds`` and each
    group's first column in the block is in ``cuts``. ``means`` is K0 x
    groups, wide groups first, and ``table`` is the expectation table.
    ``chunk`` is how many replicates the harnesses stack, sized by bytes
    from the noise factor's width."""

    def __init__(self, spec: MixtureSpec, n: int):
        # Sorted columns, cut where one differs from the last: the groups
        # of np.unique(axis=1), in its order, about 30 times faster.
        cols = np.vstack([spec.means, spec.variances])
        cols = cols[:, np.lexsort(cols[::-1])]
        starts = np.flatnonzero(np.append(True, (cols[:, 1:] != cols[:, :-1]).any(axis=0)))
        widths = np.diff(np.append(starts, spec.p))
        wide = widths > n
        self.table = _expectation_table(spec.means, spec.variances)
        self.means = cols[: spec.k0, np.append(starts[wide], starts[~wide])]
        self.wide_sds = np.sqrt(cols[spec.k0 :, starts[wide]])
        self.wide_roots = np.sqrt(widths[wide])
        self.wide_df = widths[wide, None] - 1 - np.arange(n)
        self.block_sds = np.sqrt(cols[spec.k0 :, np.repeat(~wide, widths)])
        self.cuts = np.cumsum(widths[~wide]) - widths[~wide]
        self.p = spec.p
        self.diagonal = np.diag_indices(n)
        self.lower = np.tril_indices(n, -1)
        width = self.wide_roots.size * (n + 1) + self.block_sds.shape[1]
        self.chunk = max(1, _CHUNK_BYTES // (8 * n * max(width, n + 1)))

    def draw(self, rng: np.random.Generator) -> tuple:
        """One replicate's random arrays, in stream order: z, the
        chi-squares and the Bartlett normals of the wide groups, and the
        narrow block's standard normals."""
        groups, n = self.wide_df.shape
        return (
            rng.standard_normal((groups, n)),
            rng.chisquare(self.wide_df),
            rng.standard_normal((groups, n * (n - 1) // 2)),
            rng.standard_normal((n, self.block_sds.shape[1])),
        )

    def sample(self, draws: list, labs: np.ndarray) -> np.ndarray:
        """The (R, n, n) stack of G for R replicates: their ``draw``s and
        their (R, n) labels. Each G is the one its replicate alone gives,
        bit for bit: the steps act on each slice as on a single G.

        G comes from its exact law, with no N x P draw. A group's block is
        X_g = D E + m 1^T, where D and m hold each row's sd and mean and E
        is N x P_g standard normal, so
        X_g X_g^T = D E E^T D + D E 1 m^T + m 1^T E^T D + P_g m m^T.
        Rotating E's columns by an orthogonal matrix whose first column is
        1/sqrt(P_g) gives E 1 = sqrt(P_g) z and E E^T = z z^T + W, with
        z ~ N(0, I) and W ~ Wishart(N, P_g - 1, I) independent; Bartlett's
        lower-triangular factor A (W = A A^T) needs P_g - 1 >= N, and the
        narrower groups draw D E itself. The noise factors D [A, z] and D E
        are stacked into one Gram product, and the mean terms P_g m m^T sum
        to the expectation table's pairwise block, so a noiseless spec gives
        that block exactly."""
        z, chi, normals, block = (np.stack(arrays) for arrays in zip(*draws))
        c = labs - 1
        reps, n = c.shape
        groups = self.wide_roots.size
        d = self.wide_sds[c].swapaxes(-1, -2)
        a = np.zeros((reps, groups, n, n + 1))
        a[..., n] = z
        a[..., self.diagonal[0], self.diagonal[1]] = np.sqrt(chi)
        a[..., self.lower[0], self.lower[1]] = normals
        a *= d[..., None]
        block *= self.block_sds[c]
        f = np.concatenate(
            [a.transpose(0, 2, 1, 3).reshape(reps, n, groups * (n + 1)), block], axis=-1
        )
        sums = [(d * (self.wide_roots[:, None] * z)).swapaxes(-1, -2)]
        if self.cuts.size:
            sums.append(np.add.reduceat(block, self.cuts, axis=-1))
        cross = np.concatenate(sums, axis=-1) @ self.means[c].swapaxes(-1, -2)
        return (
            gram_values(f) * (f.shape[-1] / self.p)
            + (cross + cross.swapaxes(-1, -2)) / self.p
            + self.table[c[:, :, None], c[:, None, :]]
        )


def _rounding(expected: np.ndarray, n: int) -> np.ndarray:
    """How far an average of up to n copies of ``expected`` may round from
    it: a noiseless entry of a replicate lies within this of its
    expectation."""
    return n * np.finfo(float).eps * np.abs(expected)


def _max_std_dev(samples: np.ndarray, expected: np.ndarray, n: int) -> float:
    """Largest |Monte-Carlo mean - expected| over the entries, in standard
    errors. An entry that no replicate moves is noiseless: it counts 0
    within rounding of its expectation, else inf."""
    fixed = (samples == samples[0]).all(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(samples.shape[0])
    diff = np.abs(samples.mean(axis=0) - expected)
    missed = np.abs(samples[0] - expected) > _rounding(expected, n)
    dev = np.divide(diff, se, out=np.where(missed, np.inf, 0.0), where=~fixed)
    return float(dev.max())


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
    # The spec-only terms of the draw and of expected_rows, once. Each
    # replicate draws its labels and noise from its own stream, in turn;
    # the rest runs on a chunk's stack of replicates.
    law = _GramLaw(spec, n)
    row_sq = np.empty((reps, n))
    for start in range(0, reps, law.chunk):
        labs, draws = [], []
        for rng in rngs[start : start + law.chunk]:
            labs.append(_draw_labels(spec, n, rng, 2))
            draws.append(law.draw(rng))
        labs = np.array(labs)
        g = law.sample(draws, labs)
        expected = _laid_out(law.table, labs - 1, labs)
        diff = np.stack([cluster_augment_values(*pair) for pair in zip(g, labs)]) - expected
        diff[np.abs(diff) <= _rounding(expected, n)] = 0.0
        row_sq[start : start + len(labs)] = (diff * diff).sum(axis=-1)
    sq = row_sq.sum(axis=1)
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
    predicted expectations. Off slot (i,i), the first N columns of the
    cluster-aware matrix are the Gram matrix and the expected rows their
    expectations, so each replicate is held once, in one store, and only
    the off-slot gather outlives it."""
    if reps < 100:
        raise ValueError("need reps >= 100")
    label_seq, rep_root = np.random.SeedSequence(spec.seed).spawn(2)
    lab = _draw_labels(spec, n, stream(label_seq), 2)
    law = _GramLaw(spec, n)
    expected = _laid_out(law.table, lab - 1, lab)

    rngs = replicate_streams(rep_root, reps)
    aug = np.empty((reps, n, n + 1))
    for start in range(0, reps, law.chunk):
        draws = [law.draw(rng) for rng in rngs[start : start + law.chunk]]
        labs = np.broadcast_to(lab, (len(draws), n))
        aug[start : start + len(draws)] = cluster_augment_values(law.sample(draws, labs), lab)
    max_dev_aug = _max_std_dev(aug, expected, n)
    off = ~np.eye(n, dtype=bool)
    gram = aug[:, :, :n][:, off]
    del aug
    return ExpectationReport(
        n=n,
        p=spec.p,
        reps=reps,
        max_dev_aug=max_dev_aug,
        max_dev_gram=_max_std_dev(gram, expected[:, :n][off], n),
        cluster_sizes=tuple(int(s) for s in np.bincount(lab, minlength=spec.k0 + 1)[1:]),
    )


# ---------------------------------------------------------------------------
# Grid sweeps: one spec family instantiated at several feature counts
# ---------------------------------------------------------------------------


def _whole(name: str, value) -> int:
    """``value`` as an int; 4, 4.0 and their numpy types pass, and True,
    4.7, "4" and NaN raise."""
    if not isinstance(value, bool) and (
        isinstance(value, (int, np.integer))
        or (isinstance(value, (float, np.floating)) and float(value).is_integer())
    ):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def _listed(name: str, value):
    """``value`` itself, unless it is a string: one is not read as a list
    of its characters."""
    if isinstance(value, str):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def _floats(name: str, values) -> tuple:
    """``values`` as a tuple of floats; ints, floats and their numpy types
    pass, and a string in place of the list, True or "4" raise."""
    out = []
    for v in _listed(name, values):
        if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must hold numbers, got {v!r}")
        out.append(float(v))
    return tuple(out)


@dataclass(frozen=True)
class SimulationPlan:
    """Parametric family of mixtures over a grid of feature counts.

    Per-cluster mean/variance patterns are tiled (cyclically repeated) to
    length P for each grid point, so one plan describes every P. The
    constructor coerces and checks every field, raising ValueError or TypeError.
    """

    k0: int
    weights: tuple
    mean_patterns: tuple
    variance_patterns: tuple
    n: int
    reps: int
    p_grid: tuple
    seed: int = 0

    def __post_init__(self):
        for name in ("k0", "n", "reps", "seed"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.k0 < 1:
            raise ValueError("k0 must be >= 1")
        if self.n < 2 * self.k0:
            raise ValueError("every cluster needs 2 members, so n must be >= 2 * k0")
        if self.reps < 30:
            raise ValueError("reps must be >= 30")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        object.__setattr__(
            self, "p_grid", tuple(_whole("p_grid", p) for p in _listed("p_grid", self.p_grid))
        )
        if not self.p_grid or min(self.p_grid) < 1 or len(set(self.p_grid)) < len(self.p_grid):
            raise ValueError("p_grid must be a non-empty list of distinct values >= 1")
        object.__setattr__(self, "weights", _floats("weights", self.weights))
        for name in ("mean_patterns", "variance_patterns"):
            patterns = tuple(_floats(name, pat) for pat in _listed(name, getattr(self, name)))
            if len(patterns) != self.k0 or not all(patterns):
                raise ValueError(f"{name} must hold one non-empty pattern per cluster")
            object.__setattr__(self, name, patterns)
        # Tiled to the longest pattern, the spec holds every entry, so
        # MixtureSpec checks the weights and each entry once.
        build_spec(self, max(map(len, self.mean_patterns + self.variance_patterns)))
        if min(self.weights) <= 0:
            raise ValueError("every cluster needs 2 members, so every weight must be > 0")
        # The bound grows with P; where it overflows, the report would hold
        # Infinity and NaN, or the sweep would raise OverflowError.
        p = max(self.p_grid)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                bound = deviation_bound(BoundInputs.from_spec(build_spec(self, p), self.n))
            except OverflowError:
                bound = math.inf
        if not math.isfinite(bound):
            raise ValueError(f"numbers too large: the deviation bound at p = {p} overflows")


def build_spec(plan: SimulationPlan, p: int) -> MixtureSpec:
    """Instantiate the plan's mixture at feature count p."""
    means, variances = (
        np.stack([np.tile(np.asarray(pat, float), -(-p // len(pat)))[:p] for pat in patterns])
        for patterns in (plan.mean_patterns, plan.variance_patterns)
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
