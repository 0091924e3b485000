"""Tests for parameter counting, BIC, and the K-sweep driver."""

import numpy as np
import pytest

from gramclust import ClusterAssignment, ami, bic, gen_mixture, cluster_features, num_params
from gramclust.select import ClusterOutput, KFitRecord
from tests.conftest import two_cluster_spec


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
    def _trace(self, bics):
        return tuple(
            KFitRecord(k=i + 1, bic=b, converged=True, degenerate=not np.isfinite(b))
            for i, b in enumerate(bics)
        )

    def test_tie_goes_to_smaller_k(self):
        labels = ClusterAssignment(np.array([1, 1, 2]), 2)
        trace = self._trace([0.0, 5.0, 5.0])
        ClusterOutput(k_hat=2, labels=labels, bic_trace=trace, fits=(), timings={})
        with pytest.raises(ValueError):
            ClusterOutput(k_hat=3, labels=labels, bic_trace=trace, fits=(), timings={})

    def test_trace_must_cover_range(self):
        labels = ClusterAssignment(np.array([1, 1]), 1)
        bad = (KFitRecord(k=2, bic=1.0, converged=True, degenerate=False),)
        with pytest.raises(ValueError):
            ClusterOutput(k_hat=2, labels=labels, bic_trace=bad, fits=(), timings={})


class TestGmcluster:
    def test_recovers_separated_pair(self):
        spec = two_cluster_spec(6.0, 2000, seed=20_000)
        fm, truth = gen_mixture(spec, 40)
        out = cluster_features(fm, kmax=20, preprocess="standardize")
        assert out.k_hat == 2
        assert ami(truth, out.labels) == 1.0
        assert len(out.bic_trace) == 20

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
        assert len(out.bic_trace) == 8

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

    def test_threads_do_not_change_result(self):
        spec = two_cluster_spec(6.0, 1000, seed=8)
        fm, _ = gen_mixture(spec, 24)
        a = cluster_features(fm, kmax=10, preprocess="standardize", threads=1)
        b = cluster_features(fm, kmax=10, preprocess="standardize", threads=4)
        assert a.k_hat == b.k_hat
        assert np.array_equal(a.labels.labels, b.labels.labels)
        assert [r.bic for r in a.bic_trace] == [r.bic for r in b.bic_trace]

    def test_selected_fit_never_degenerate(self):
        spec = two_cluster_spec(6.0, 800, seed=9)
        fm, _ = gen_mixture(spec, 20)
        out = cluster_features(fm, kmax=12, preprocess="standardize")
        chosen = out.bic_trace[out.k_hat - 1]
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
