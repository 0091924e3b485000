"""Tests for parameter counting, BIC, and the K-sweep driver."""

from dataclasses import replace
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramclust import (
    FeatureMatrix, GramMatrix, MixtureSpec, ami, augment, bic, cem_fit, cluster_features,
    contingency, cut_tree, gen_mixture, num_params, preprocess_dataset,
    standardize_columns,
)
from gramclust.data import CONSTANT_SD_TOL, _block_width, gram_values, standardized_gram
from gramclust.errors import AllColumnsConstantError, AllFitsDegenerateError
from gramclust.hierarchy import ward_linkage
from gramclust.select import ClusterOutput
from tests.conftest import assert_same_fit, two_cluster_spec


def null_spec(p: int, seed: int) -> MixtureSpec:
    return MixtureSpec(k0=1, weights=[1.0], means=np.zeros((1, p)),
                       variances=np.ones((1, p)), seed=seed)


def reference_prepare(values: np.ndarray, preprocess: str) -> np.ndarray:
    """Oracle for preprocess_dataset (``paper``), standardize_columns
    (``standardize``) and the preprocessing in ``cluster_features``: a
    chain of separate steps. Under ``paper``: the log if every value is
    positive, a constant-column drop, median centring and sd scaling;
    then, in both modes, a constant-column drop and the
    standardization, which undoes the median and sd step."""

    def drop_constant(a):
        return a[:, a.std(axis=0, ddof=1) >= CONSTANT_SD_TOL]

    a = np.array(values, dtype=np.float64)
    if preprocess == "paper":
        if np.all(a > 0.0):
            a = np.log(a)
        a = drop_constant(a)
        a = (a - np.median(a, axis=0)) / a.std(axis=0, ddof=1)
    a = drop_constant(a)
    return (a - a.mean(axis=0)) / a.std(axis=0, ddof=1)


def prepare_input(kind: str, n: int, seed: int) -> np.ndarray:
    """Two shifted groups of rows, as raw values of the given ``kind``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 300))
    x[: n // 2] += 1.0
    if kind == "nonpositive":
        return -np.exp(x)
    values = x if kind == "mixed-constant" else np.exp(x)
    if kind == "zero-and-positive":
        values[0, 1] = 0.0
    if kind.endswith("constant"):
        values[:, [0, 7, 150]] = [2.5, 0.125, 3.0]
    return values


# the public form of each preprocess mode
PREPARE = {"paper": preprocess_dataset, "standardize": standardize_columns}


def check_against_reference(values: np.ndarray, preprocess: str) -> None:
    """The mode's public function within 1e-13 of reference_prepare, and
    the column-block kernel within 1e-12 of the reference's Gram matrix."""
    fm = FeatureMatrix(values)
    ref = reference_prepare(values, preprocess)
    x = PREPARE[preprocess](fm)
    assert np.max(np.abs(x.values.mean(axis=0))) < 1e-10
    assert np.max(np.abs(x.values.std(axis=0, ddof=1) - 1.0)) < 1e-8
    assert x.values.shape == ref.shape
    assert np.max(np.abs(x.values - ref)) < 1e-13
    g = standardized_gram(fm, log_if_positive=preprocess == "paper").values
    assert np.max(np.abs(g - gram_values(ref))) < 1e-12


class TestPrepare:
    KINDS = ("nonpositive", "zero-and-positive", "positive", "positive-constant",
             "mixed-constant")

    @pytest.mark.parametrize("preprocess", ["paper", "standardize"])
    def test_dropped_columns_counted(self, preprocess):
        x = PREPARE[preprocess](FeatureMatrix(prepare_input("positive-constant", 20, 0)))
        assert x.n_features == 297

    @pytest.mark.parametrize("preprocess", ["paper", "standardize"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [3, 12, 60, 200])
    def test_matches_reference_chain(self, n, kind, preprocess):
        values = prepare_input(kind, n, seed=n)
        check_against_reference(values, preprocess)

        fm = FeatureMatrix(values)
        ref = reference_prepare(values, preprocess)
        kmax = min(n, 8)
        out = cluster_features(fm, kmax=kmax, preprocess=preprocess)
        want = reference_sweep(ref, kmax)
        assert out.k_hat == want.k_hat
        np.testing.assert_array_equal(out.labels.labels, want.labels.labels)
        for f, w in zip(out.fits, want.fits, strict=True):
            np.testing.assert_array_equal(f.labels.labels, w.labels.labels)
            if np.isfinite(w.bic):
                assert abs(f.bic - w.bic) <= 1e-12 * abs(w.bic)
            else:
                assert f.bic == w.bic


def reference_sweep(ref: np.ndarray, kmax: int) -> ClusterOutput:
    """The K sweep of cluster_features from G on, with G = gram_values(ref)
    instead of the column-block kernel's G, and each fit without the
    sweep's shared memo."""
    g = GramMatrix(gram_values(ref))
    m = augment(g)
    dendrogram = ward_linkage(m.values)
    fits = (cem_fit(g, m, cut_tree(dendrogram, k)) for k in range(1, kmax + 1))
    return ClusterOutput(tuple(fits), {})


def block_input(n: int, p: int, seed: int) -> np.ndarray:
    """Log-normal values. With two objects, each column's second value is
    its first times 2 to 4: a column whose two values nearly coincide is
    ill-conditioned, and any float64 chain, the reference's included,
    standardizes it with a relative error of about eps / |a - b|."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(size=(n, p))
    if n == 2:
        values[1] = values[0] * rng.uniform(2.0, 4.0, p)
    return values


class TestStandardizedGram:
    """The column-block kernel and the public functions built on its block
    step, against the reference chain, at the block edges."""

    @pytest.mark.parametrize("preprocess", ["paper", "standardize"])
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "one_block", "one_more"])
    @pytest.mark.parametrize("n", [2, 400])
    def test_block_edges(self, n, extra, preprocess):
        p = _block_width(n) + extra
        check_against_reference(block_input(n, p, seed=n + extra), preprocess)

    @pytest.mark.parametrize("preprocess", ["paper", "standardize"])
    @pytest.mark.parametrize("n", [2, 400])
    def test_constant_columns_across_blocks(self, n, preprocess):
        # a run of constant columns across the first boundary, and a last
        # block that is constant throughout
        w = _block_width(n)
        values = block_input(n, 2 * w + 5, seed=n)
        values[:, [w - 2, w - 1, w, w + 1, *range(2 * w, 2 * w + 5)]] = 1.5
        check_against_reference(values, preprocess)

    @pytest.mark.parametrize("preprocess", ["paper", "standardize"])
    def test_all_constant_rejected(self, preprocess):
        fm = FeatureMatrix(np.full((400, _block_width(400) + 1), 2.0))
        with pytest.raises(AllColumnsConstantError):
            standardized_gram(fm, log_if_positive=preprocess == "paper")
        with pytest.raises(AllColumnsConstantError):
            PREPARE[preprocess](fm)
        with pytest.raises(AllColumnsConstantError):
            cluster_features(fm, kmax=2, preprocess=preprocess)

    def test_log_branch_follows_whole_matrix_min(self):
        n = 400
        values = block_input(n, _block_width(n) + 1, seed=7)
        check_against_reference(values, "paper")
        # one zero in the last block turns the log off for every block
        values[3, -1] = 0.0
        check_against_reference(values, "paper")
        np.testing.assert_array_equal(
            standardized_gram(FeatureMatrix(values), log_if_positive=True).values,
            standardized_gram(FeatureMatrix(values), log_if_positive=False).values,
        )


class TestNumParams:
    def test_diagonal_k1(self):
        assert num_params(1, 4) == 10

    def test_diagonal_k2(self):
        assert num_params(2, 4) == 21


class TestBic:
    def test_zero_loglik(self):
        assert bic(0.0, 10, 100) == pytest.approx(-46.05170185988092, abs=1e-11)

    def test_zero_penalty(self):
        assert bic(-7.25, 0, 50) == -14.5

    def test_derived_case(self):
        assert bic(-50.0, 21, 40) == pytest.approx(-177.46646853639265, abs=1e-11)


class TestClusterOutputInvariants:
    @pytest.fixture(scope="class")
    def fits(self):
        spec = two_cluster_spec(6.0, 300, seed=4)
        fm, _ = gen_mixture(spec, 12)
        return cluster_features(fm, kmax=4, preprocess="standardize").fits

    def _rescored(self, fits, bics):
        return tuple(
            replace(f, bic=b, degenerate_reason=None if np.isfinite(b) else "floored")
            for f, b in zip(fits, bics)
        )

    def test_tie_goes_to_smaller_k(self, fits):
        out = ClusterOutput(self._rescored(fits, [0.0, 5.0, 5.0, -np.inf]), {})
        assert out.k_hat == 2
        assert out.labels is fits[1].labels
        out = ClusterOutput(self._rescored(fits, [-np.inf, 1.0, -np.inf, 1.0]), {})
        assert out.k_hat == 2
        out = ClusterOutput(self._rescored(fits, [-np.inf, -np.inf, -np.inf, 2.5]), {})
        assert out.k_hat == 4

    def test_trace_must_cover_range(self, fits):
        with pytest.raises(ValueError, match="exactly once"):
            ClusterOutput(fits[1:], {})
        with pytest.raises(ValueError, match="exactly once"):
            ClusterOutput((fits[0], fits[1], fits[1]), {})

    def test_all_degenerate_raises(self, fits):
        with pytest.raises(AllFitsDegenerateError):
            ClusterOutput(self._rescored(fits, [-np.inf] * len(fits)), {})


class TestGmcluster:
    def test_recovers_separated_pair(self):
        spec = two_cluster_spec(6.0, 2000, seed=20_000)
        fm, truth = gen_mixture(spec, 40)
        out = cluster_features(fm, kmax=20, preprocess="standardize")
        assert out.k_hat == 2
        assert ami(truth, out.labels) == 1.0
        assert [f.k for f in out.fits] == list(range(1, 21))

    def test_kmax_one(self):
        spec = two_cluster_spec(6.0, 500, seed=3)
        fm, _ = gen_mixture(spec, 12)
        out = cluster_features(fm, kmax=1, preprocess="standardize")
        assert out.k_hat == 1
        np.testing.assert_array_equal(out.labels.labels, np.ones(12))

    def test_kmax_clamped_with_warning(self):
        spec = two_cluster_spec(6.0, 300, seed=4)
        fm, _ = gen_mixture(spec, 8)
        with pytest.warns(UserWarning, match="clamped"):
            out = cluster_features(fm, kmax=30, preprocess="standardize")
        assert len(out.fits) == 8

    def test_single_cluster_noise_selects_one(self):
        # frozen Monte-Carlo regression: these 15 seeds all pick K = 1
        from gramclust import MixtureSpec

        wins = 0
        for s in range(15):
            spec = MixtureSpec(k0=1, weights=[1.0], means=np.zeros((1, 500)),
                               variances=np.ones((1, 500)), seed=1000 + s)
            fm, _ = gen_mixture(spec, 30)
            wins += cluster_features(fm, kmax=8, preprocess="standardize").k_hat == 1
        assert wins == 15

    def test_moderate_separation_characterization(self):
        # near the 10x gap bound the diagonal quasi-likelihood occasionally
        # prefers a sub-split; frozen: 9 of these 10 seeds recover exactly
        spec0 = two_cluster_spec(2.5, 2000)
        wins = 0
        for s in range(10):
            spec = two_cluster_spec(2.5, 2000, seed=20_000 + s)
            fm, truth = gen_mixture(spec, 40)
            out = cluster_features(fm, kmax=20, preprocess="standardize")
            wins += out.k_hat == 2 and ami(truth, out.labels) == 1.0
        assert wins == 9

    def test_selected_fit_never_degenerate(self):
        spec = two_cluster_spec(6.0, 800, seed=9)
        fm, _ = gen_mixture(spec, 20)
        out = cluster_features(fm, kmax=12, preprocess="standardize")
        chosen = out.fits[out.k_hat - 1]
        assert not chosen.degenerate
        assert np.isfinite(chosen.bic)

    def test_paper_preprocess_path(self):
        spec = two_cluster_spec(4.0, 600, seed=10)
        fm, truth = gen_mixture(spec, 24)
        out = cluster_features(fm, kmax=8, preprocess="paper")
        assert out.k_hat == 2
        assert ami(truth, out.labels) == 1.0

    def test_paper_preprocess_log_path(self):
        # strictly positive (lognormal-style) data exercises the log step
        from gramclust import FeatureMatrix

        spec = two_cluster_spec(3.0, 500, seed=14)
        fm, truth = gen_mixture(spec, 24)
        positive = FeatureMatrix(np.exp(fm.values / 3.0))
        out = cluster_features(positive, kmax=8, preprocess="paper")
        assert out.k_hat == 2
        assert ami(truth, out.labels) == 1.0

    def test_three_cluster_recovery(self):
        from gramclust import MixtureSpec

        p = 1500
        means = np.vstack([
            5.0 * np.ones(p),
            -5.0 * np.ones(p),
            np.where(np.arange(p) % 2 == 0, 5.0, -5.0),
        ])
        wins = 0
        for s in range(5):
            spec = MixtureSpec(k0=3, weights=[0.4, 0.35, 0.25], means=means,
                               variances=np.ones((3, p)), seed=40_000 + s)
            fm, truth = gen_mixture(spec, 45)
            out = cluster_features(fm, kmax=12, preprocess="standardize")
            wins += out.k_hat == 3 and ami(truth, out.labels) == 1.0
        assert wins == 5


class TestSharedMemo:
    """The sweep's shared memo changes no bit of any fit."""

    @pytest.mark.parametrize("spec, n, multi_iteration", [
        (null_spec(2000, seed=91), 400, True),
        (two_cluster_spec(1.5, 500, seed=92), 120, False),
    ])
    def test_sweep_matches_fits_without_memo(self, spec, n, multi_iteration):
        fm, _ = gen_mixture(spec, n)
        out = cluster_features(fm, kmax=20, preprocess="paper")
        g = standardized_gram(fm, log_if_positive=True)
        m = augment(g)
        dendrogram = ward_linkage(m.values)
        for k, fit in enumerate(out.fits, start=1):
            assert_same_fit(fit, cem_fit(g, m, cut_tree(dendrogram, k)))
        if multi_iteration:
            assert max(f.iterations for f in out.fits) > 1


def same_partition(u, v) -> bool:
    """Two labelings split the objects the same way: their contingency
    table pairs each cluster of one with exactly one cluster of the other."""
    counts = contingency(u, v)
    return counts.shape[0] == counts.shape[1] == np.count_nonzero(counts)


class TestPermutationProperties:
    """End to end, the partition follows the objects and ignores the order
    of the features. Permuted inputs round differently, so partitions are
    compared, not labels or bits."""

    @staticmethod
    def draw(n, p, k0, amplitude, preprocess, seed):
        rng = np.random.default_rng(seed)
        means = amplitude * rng.choice([-1.0, 1.0], size=(k0, p))
        spec = MixtureSpec(k0=k0, weights=np.full(k0, 1.0 / k0), means=means,
                           variances=np.ones((k0, p)), seed=seed)
        x = gen_mixture(spec, n)[0].values
        # positive values take the log branch under paper
        return (np.exp(x / amplitude) if preprocess == "paper" else x), rng

    inputs = dict(
        n=st.integers(8, 40), p=st.integers(50, 800), k0=st.integers(1, 3),
        amplitude=st.floats(1.5, 4.0),
        preprocess=st.sampled_from(["standardize", "paper"]),
        seed=st.integers(0, 2**32 - 1),
    )

    @staticmethod
    def labels(x, preprocess):
        out = cluster_features(FeatureMatrix(x), kmax=8, preprocess=preprocess)
        return out.labels.labels

    @settings(max_examples=25, deadline=None)
    @given(**inputs)
    def test_row_permutation_permutes_partition(self, preprocess, **case):
        x, rng = self.draw(preprocess=preprocess, **case)
        perm = rng.permutation(x.shape[0])
        moved = self.labels(x[perm], preprocess)
        assert same_partition(moved, self.labels(x, preprocess)[perm])

    @settings(max_examples=25, deadline=None)
    @given(**inputs)
    def test_column_permutation_keeps_partition(self, preprocess, **case):
        x, rng = self.draw(preprocess=preprocess, **case)
        perm = rng.permutation(x.shape[1])
        moved = self.labels(x[:, perm], preprocess)
        assert same_partition(moved, self.labels(x, preprocess))


class Cell(NamedTuple):
    """One cell of the recovery frontier: draws spec(seed) of n objects."""

    spec: Callable
    exact: int  # frozen: seeds of 4 with k_hat == K0 and AMI 1
    r: Optional[float] = None
    n: int = 200
    labels: Optional[np.ndarray] = None
    preprocess: str = "standardize"


def antipodal(a: float, f: float, exact: int, p: int = 2000, n: int = 200) -> Cell:
    """K0 = 2: means +a and -a on the first f P columns, 0 elsewhere, and
    unit noise. ``r`` is the variance of G's between-cluster row shift
    over that of its independent term, after column standardization; the
    diagonal model cannot express the shift and splits along it as r
    grows."""
    def spec(seed):
        means = np.zeros((2, p))
        means[0, : int(f * p)], means[1, : int(f * p)] = a, -a
        return MixtureSpec(k0=2, weights=[0.5, 0.5], means=means,
                           variances=np.ones((2, p)), seed=seed)
    return Cell(spec, exact, r=a * a * f / (f + (1.0 - f) * (1.0 + a * a) ** 2), n=n)


def gaussian_spec(weights, a: float, f: float, p: int = 2000) -> Callable:
    """Means a * N(0, 1) on the first f P columns and 0 elsewhere."""
    k0 = len(weights)

    def spec(seed):
        means = np.zeros((k0, p))
        means[:, : int(f * p)] = a * np.random.default_rng(seed).standard_normal(
            (k0, int(f * p)))
        return MixtureSpec(k0=k0, weights=weights, means=means,
                           variances=np.ones((k0, p)), seed=seed)
    return spec


ALIZADEH_SIZES = (42, 9, 11)

# The Alizadeh-shaped cell is shaped like the Alizadeh-v2 lymphoma data
# (N = 62, P = 2095, classes of 42, 9 and 11, log-normal values, sparse
# informative genes); it stands in for criterion 8, whose data is not
# bundled, and reproduces nothing of it. The cells after it repeat five
# N = 200 cells at N = 40 and N = 400: the over-split grows with N.
FRONTIER = {
    "K0=2 a=6 f=0.05": antipodal(6.0, 0.05, exact=4),
    "K0=2 a=0.3 f=1": antipodal(0.3, 1.0, exact=4),
    "K0=2 a=2 f=0.5": antipodal(2.0, 0.5, exact=3),
    "K0=2 a=1 f=0.5": antipodal(1.0, 0.5, exact=0),
    "K0=2 a=0.6 f=1": antipodal(0.6, 1.0, exact=0),
    "K0=2 a=1 f=1": antipodal(1.0, 1.0, exact=0),
    "K0=2 a=6 f=1": antipodal(6.0, 1.0, exact=0),
    "K0=3 gaussian a=3 f=1": Cell(gaussian_spec([1 / 3] * 3, 3.0, 1.0), exact=1),
    "K0=3 gaussian a=3 f=0.1": Cell(gaussian_spec([1 / 3] * 3, 3.0, 0.1), exact=4),
    "K0=1 null": Cell(lambda seed: null_spec(2000, seed), exact=4, r=0.0),
    "Alizadeh-shaped a=1 f=0.1": Cell(
        gaussian_spec(np.array(ALIZADEH_SIZES) / 62, 1.0, 0.1, p=2095), exact=3, n=62,
        labels=np.repeat([1, 2, 3], ALIZADEH_SIZES), preprocess="paper"),
    "K0=2 a=1 f=1 N=40": antipodal(1.0, 1.0, exact=3, n=40),
    "K0=2 a=6 f=1 N=40": antipodal(6.0, 1.0, exact=4, n=40),
    "K0=2 a=2 f=0.5 N=40": antipodal(2.0, 0.5, exact=4, n=40),
    "K0=3 gaussian a=3 f=1 N=40": Cell(gaussian_spec([1 / 3] * 3, 3.0, 1.0), exact=4, n=40),
    "K0=3 gaussian a=3 f=0.1 N=40": Cell(gaussian_spec([1 / 3] * 3, 3.0, 0.1), exact=4, n=40),
    "K0=2 a=1 f=1 N=400": antipodal(1.0, 1.0, exact=0, n=400),
    "K0=2 a=6 f=1 N=400": antipodal(6.0, 1.0, exact=0, n=400),
    "K0=2 a=2 f=0.5 N=400": antipodal(2.0, 0.5, exact=0, n=400),
    "K0=3 gaussian a=3 f=1 N=400": Cell(gaussian_spec([1 / 3] * 3, 3.0, 1.0), exact=0, n=400),
    "K0=3 gaussian a=3 f=0.1 N=400": Cell(gaussian_spec([1 / 3] * 3, 3.0, 0.1), exact=4, n=400),
}


def test_recovery_frontier():
    # a scoring change that moves a frozen count logs the grid before and
    # after
    rows, exact = [], {}
    for name, cell in FRONTIER.items():
        k_hats = []
        exact[name] = 0
        for seed in range(5000, 5004):
            fm, truth = gen_mixture(cell.spec(seed), cell.n, labels=cell.labels)
            if cell.preprocess == "paper":
                fm = FeatureMatrix(np.exp(fm.values))
            out = cluster_features(fm, preprocess=cell.preprocess)
            k_hats.append(out.k_hat)
            exact[name] += out.k_hat == truth.k and ami(truth, out.labels) == 1.0
        r_text = "-" if cell.r is None else f"{cell.r:.3g}"
        rows.append(f"{r_text:>7}  {name:<30} k_hat {k_hats}  exact {exact[name]}/4")
    print("\n      r  cell" + "".join("\n" + row for row in rows))
    assert exact == {name: cell.exact for name, cell in FRONTIER.items()}
