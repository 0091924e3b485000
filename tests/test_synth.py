"""Tests for the synthetic generator, closed-form bounds, and harnesses."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramclust import (
    BoundInputs,
    MixtureSpec,
    SimulationPlan,
    deviation_bound,
    empirical_concentration,
    expectation_check,
    gen_mixture,
)
from gramclust.synth import build_spec, concentration_sweep, row_deviation_bound
from tests.conftest import two_cluster_spec


class TestGenMixture:
    def test_zero_variance_hits_means(self):
        spec = MixtureSpec(
            k0=2, weights=[0.5, 0.5],
            means=np.vstack([np.ones(6), -np.ones(6)]),
            variances=np.zeros((2, 6)),
            seed=3,
        )
        fm, truth = gen_mixture(spec, 8)
        np.testing.assert_array_equal(fm.values, spec.means[truth.labels - 1])

    def test_single_cluster_labels(self):
        spec = MixtureSpec(k0=1, weights=[1.0], means=np.zeros((1, 4)),
                           variances=np.ones((1, 4)), seed=0)
        _, truth = gen_mixture(spec, 5)
        np.testing.assert_array_equal(truth.labels, np.ones(5))

    def test_weights_respected(self):
        spec = two_cluster_spec(1.0, 3, seed=12)
        _, truth = gen_mixture(spec, 10_000)
        frac = float((truth.labels == 1).mean())
        assert abs(frac - 0.5) <= 0.02  # ~3 sigma for a fair binomial

    def test_seed_reproducibility(self):
        spec = two_cluster_spec(1.0, 20, seed=42)
        fm1, t1 = gen_mixture(spec, 12)
        fm2, t2 = gen_mixture(spec, 12)
        assert np.array_equal(fm1.values, fm2.values)
        assert np.array_equal(t1.labels, t2.labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureSpec(k0=2, weights=[0.6, 0.6], means=np.zeros((2, 3)),
                        variances=np.ones((2, 3)))
        with pytest.raises(ValueError):
            MixtureSpec(k0=2, weights=[0.5, 0.5], means=np.zeros((2, 3)),
                        variances=-np.ones((2, 3)))
        with pytest.raises(ValueError):
            MixtureSpec(k0=2, weights=[0.5, 0.5], means=np.zeros((2, 3)),
                        variances=np.ones((2, 4)))


class TestDeviationBound:
    def test_unit_variance_closed_forms(self):
        p = 1000
        spec = two_cluster_spec(1.0, p)
        b = BoundInputs.from_spec(spec, 10)
        assert b.cov_l1_sqrt == pytest.approx(math.sqrt(p), rel=1e-15)
        assert b.sqdev_l1_sqrt == pytest.approx(math.sqrt(2 * p), rel=1e-15)
        assert b.mean_sup == 1.0
        assert b.sd_sup == 1.0

    def test_noiseless_bound_zero(self):
        b = BoundInputs(cov_l1_sqrt=0.0, sqdev_l1_sqrt=0.0, mean_sup=1.0, sd_sup=0.0,
                        n=2, p=50)
        assert deviation_bound(b) == 0.0

    def test_frozen_regression_constant(self):
        # unit-variance features, mu_sup = sigma_sup = 1, N = 10, P = 1000
        b = BoundInputs(
            cov_l1_sqrt=math.sqrt(1000.0), sqdev_l1_sqrt=math.sqrt(2000.0),
            mean_sup=1.0, sd_sup=1.0, n=10, p=1000,
        )
        assert deviation_bound(b) == pytest.approx(0.9625843040975288, abs=1e-13)

    def test_doubling_p_scales_by_inverse_sqrt2(self):
        def bound_at(p):
            return deviation_bound(BoundInputs(
                cov_l1_sqrt=math.sqrt(p), sqdev_l1_sqrt=math.sqrt(2 * p),
                mean_sup=1.0, sd_sup=1.0, n=10, p=p,
            ))

        assert bound_at(2000) / bound_at(1000) == pytest.approx(
            1 / math.sqrt(2), rel=1e-12
        )

    def test_row_bound_consistent_with_matrix_bound(self):
        b = BoundInputs(cov_l1_sqrt=30.0, sqdev_l1_sqrt=40.0, mean_sup=1.5, sd_sup=1.2,
                        n=8, p=900)
        assert deviation_bound(b) ** 2 == pytest.approx(
            b.n * row_deviation_bound(b), rel=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.0, 50.0), st.floats(0.0, 50.0),
        st.floats(0.0, 5.0), st.floats(0.0, 5.0),
        st.integers(2, 40),
        st.floats(0.01, 20.0), st.floats(0.01, 20.0),
        st.floats(0.01, 2.0), st.floats(0.01, 2.0),
        st.integers(1, 10),
    )
    def test_monotone_in_every_input(self, tau, kappa, mu, sig, n,
                                     dtau, dkappa, dmu, dsig, dn):
        base = BoundInputs(cov_l1_sqrt=tau, sqdev_l1_sqrt=kappa, mean_sup=mu, sd_sup=sig,
                           n=n, p=500)
        b0 = deviation_bound(base)
        for field, dv in (("cov_l1_sqrt", dtau), ("sqdev_l1_sqrt", dkappa),
                          ("mean_sup", dmu), ("sd_sup", dsig), ("n", dn)):
            bumped = dataclasses.replace(
                base, **{field: getattr(base, field) + dv}
            )
            assert deviation_bound(bumped) >= b0 - 1e-12


class TestConcentrationHarness:
    def test_noiseless_mse_zero(self):
        spec = MixtureSpec(
            k0=2, weights=[0.5, 0.5],
            means=np.vstack([np.ones(40), -np.ones(40)]),
            variances=np.zeros((2, 40)),
            seed=5,
        )
        point = empirical_concentration(spec, 6, 30)
        assert point.mse_mean == 0.0
        assert point.bound_sq >= 0.0

    def test_reports_assumption_ratios(self):
        spec = two_cluster_spec(1.0, 400, seed=9)
        point = empirical_concentration(spec, 6, 30)
        assert point.cov_ratio == pytest.approx(math.sqrt(400) / 400)
        assert point.sqdev_ratio == pytest.approx(math.sqrt(800) / 400)

    def test_deterministic(self):
        spec = two_cluster_spec(1.0, 100, seed=17)
        p1 = empirical_concentration(spec, 6, 30)
        p2 = empirical_concentration(spec, 6, 30)
        assert p1 == p2

    def test_rejects_small_reps(self):
        spec = two_cluster_spec(1.0, 50, seed=1)
        with pytest.raises(ValueError):
            empirical_concentration(spec, 6, 10)

    def test_bound_and_row_bound_hold(self):
        spec = two_cluster_spec(1.0, 300, seed=31)
        point = empirical_concentration(spec, 8, 60)
        assert point.mse_mean <= point.bound_sq
        assert point.row_mse_max <= point.row_bound


class TestExpectationCheck:
    def test_noiseless_exact(self):
        spec = MixtureSpec(
            k0=2, weights=[0.5, 0.5],
            means=np.vstack([np.ones(30), -np.ones(30)]),
            variances=np.zeros((2, 30)),
            seed=8,
        )
        report = expectation_check(spec, 6, 100)
        assert report.max_dev_aug == 0.0
        assert report.max_dev_gram == 0.0

    def test_unit_variance_within_four_se(self):
        spec = two_cluster_spec(1.0, 200, seed=123)
        report = expectation_check(spec, 6, 200)
        assert report.max_dev_aug < 4.0
        assert report.max_dev_gram < 4.0
        assert min(report.cluster_sizes) >= 2


class TestSimulationPlan:
    def test_roundtrip_and_tiling(self):
        plan = SimulationPlan(
            k0=2, weights=(0.5, 0.5),
            mean_patterns=((1.0,), (-1.0, 0.0)),
            variance_patterns=((1.0,), (1.0,)),
            n=6, reps=30, p_grid=(20, 40), seed=4,
        )
        assert SimulationPlan.from_dict(dataclasses.asdict(plan)) == plan
        spec = build_spec(plan, 5)
        np.testing.assert_array_equal(spec.means[0], np.ones(5))
        np.testing.assert_array_equal(spec.means[1], [-1.0, 0.0, -1.0, 0.0, -1.0])

    def test_sweep_slope_near_minus_one(self):
        plan = SimulationPlan(
            k0=2, weights=(0.5, 0.5),
            mean_patterns=((1.0,), (-1.0,)),
            variance_patterns=((1.0,), (1.0,)),
            n=8, reps=60, p_grid=(100, 400, 1600), seed=77,
        )
        report = concentration_sweep(plan)
        assert all(pt.mse_mean <= pt.bound_sq for pt in report.points)
        assert -1.2 < report.slope < -0.8
