"""Tests for parameter counting, BIC, and the K-sweep driver."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramclust import (
    FeatureMatrix, MixtureSpec, ami, augment, bic, cem_fit, cluster_features,
    contingency, cut_tree, gen_mixture, gram, num_params,
)
from gramclust.data import CONSTANT_SD_TOL
from gramclust.errors import AllFitsDegenerateError
from gramclust.hierarchy import ward_linkage
from gramclust.select import ClusterOutput, _prepare
from tests.conftest import assert_same_fit, two_cluster_spec


def null_spec(p: int, seed: int) -> MixtureSpec:
    return MixtureSpec(k0=1, weights=[1.0], means=np.zeros((1, p)),
                       variances=np.ones((1, p)), seed=seed)


def reference_prepare(values: np.ndarray, preprocess: str) -> tuple[np.ndarray, int]:
    """Oracle for ``_prepare``: the preprocessing as a chain of separate
    steps, and the number of columns it drops. Under ``paper``: the log if
    every value is positive, a constant-column drop, median centring and
    sd scaling; then, in both modes, a constant-column drop and the
    standardization, which undoes the median and sd step."""

    def drop_constant(a):
        keep = a.std(axis=0, ddof=1) >= CONSTANT_SD_TOL
        return a[:, keep], int((~keep).sum())

    a = np.array(values, dtype=np.float64)
    dropped = 0
    if preprocess == "paper":
        if np.all(a > 0.0):
            a = np.log(a)
        a, dropped = drop_constant(a)
        a = (a - np.median(a, axis=0)) / a.std(axis=0, ddof=1)
    a, more = drop_constant(a)
    return (a - a.mean(axis=0)) / a.std(axis=0, ddof=1), dropped + more


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


class TestPrepare:
    KINDS = ("nonpositive", "zero-and-positive", "positive", "positive-constant",
             "mixed-constant")

    @pytest.mark.parametrize("preprocess", ["paper", "standardize"])
    def test_dropped_columns_counted(self, preprocess):
        x = _prepare(FeatureMatrix(prepare_input("positive-constant", 20, 0)), preprocess)
        assert x.n_dropped_columns == 3
        assert x.n_features == 297

    @pytest.mark.parametrize("preprocess", ["paper", "standardize"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [3, 12, 60, 200])
    def test_matches_reference_chain(self, n, kind, preprocess):
        values = prepare_input(kind, n, seed=n)
        fm = FeatureMatrix(values)
        x = _prepare(fm, preprocess)
        ref, dropped = reference_prepare(values, preprocess)
        assert x.standardized
        assert x.log_applied == (preprocess == "paper" and kind.startswith("positive"))
        assert x.n_dropped_columns == dropped
        assert x.values.shape == ref.shape
        assert np.max(np.abs(x.values - ref)) < 1e-13

        kmax = min(n, 8)
        out = cluster_features(fm, kmax=kmax, preprocess=preprocess)
        want = cluster_features(FeatureMatrix(ref, standardized=True), kmax=kmax)
        assert out.k_hat == want.k_hat
        np.testing.assert_array_equal(out.labels.labels, want.labels.labels)
        for f, w in zip(out.fits, want.fits, strict=True):
            np.testing.assert_array_equal(f.labels.labels, w.labels.labels)
            if np.isfinite(w.bic):
                assert abs(f.bic - w.bic) <= 1e-12 * abs(w.bic)
            else:
                assert f.bic == w.bic


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
            replace(f, bic=b, degenerate=not np.isfinite(b)) for f, b in zip(fits, bics)
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
        g = gram(_prepare(fm, "paper"))
        m = augment(g)
        dendrogram = ward_linkage(m.values)
        for k, fit in enumerate(out.fits, start=1):
            assert_same_fit(fit, cem_fit(g, m, cut_tree(dendrogram, k)))
        if multi_iteration:
            assert max(f.iterations for f in out.fits) > 1


def same_partition(u, v) -> bool:
    """Two labelings split the objects the same way: their contingency
    table pairs each cluster of one with exactly one cluster of the other."""
    counts = contingency(u, v).counts
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
