"""Tests for the synthetic generator, closed-form bounds, and harnesses."""

import dataclasses
import json
import math
import warnings

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
from gramclust.data import gram_values
from gramclust.hierarchy import ClusterAssignment
from gramclust.synth import (
    _GramLaw, _max_std_dev, build_spec, concentration_sweep, expected_rows,
    replicate_streams, row_deviation_bound, stream,
)
from gramclust.transform import cluster_augment_values
from tests.conftest import (
    MISTYPED_PLAN_EDITS,
    NON_FINITE_PLAN_EDITS,
    OVERFLOW_PLAN_EDITS,
    UNUSABLE_PLAN_EDITS,
    simulation_plan,
    traced_peak,
    two_cluster_spec,
)


def three_cluster_spec(p: int, seed: int) -> MixtureSpec:
    """The benchmark's simulate mixture at feature count p: unequal
    weights, and variances that differ between clusters and features."""
    return MixtureSpec(
        k0=3, weights=[0.4, 0.35, 0.25],
        means=np.vstack([3 * np.ones(p), -3 * np.ones(p), np.resize([3.0, -3.0], p)]),
        variances=np.vstack([np.ones(p), 2 * np.ones(p), np.resize([0.5, 1.5], p)]),
        seed=seed,
    )


def mixed_spec(seed: int) -> MixtureSpec:
    """Two clusters whose 203 columns form a group of 200 and a group of
    3: at N = 10 the first is drawn compressed and the second directly."""
    return MixtureSpec(
        k0=2, weights=[0.5, 0.5],
        means=np.vstack([np.r_[np.ones(200), 2 * np.ones(3)],
                         np.r_[-np.ones(200), np.zeros(3)]]),
        variances=np.vstack([np.r_[np.ones(200), 0.5 * np.ones(3)],
                             np.r_[2 * np.ones(200), 3 * np.ones(3)]]),
        seed=seed,
    )


def sample_gram(spec, lab, rng):
    """One draw of G under ``lab``, its law built afresh for the call."""
    return _GramLaw(spec, lab.size).sample(rng, lab)


def labels_min_size_two(spec, n, rng):
    """Reference rejection sampler: redraw until every cluster has 2."""
    while True:
        lab = rng.choice(spec.k0, size=n, p=spec.weights).astype(np.int64) + 1
        if np.bincount(lab, minlength=spec.k0 + 1)[1:].min() >= 2:
            return lab


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

    def test_matches_gather_formula_bit_for_bit(self):
        # the in-place scale and shift computes the same IEEE products and
        # sums as the gathered expression it replaced
        spec = MixtureSpec(k0=3, weights=[0.2, 0.3, 0.5],
                           means=np.arange(15.0).reshape(3, 5) - 7.0,
                           variances=np.linspace(0.1, 3.0, 15).reshape(3, 5), seed=8)
        fm, truth = gen_mixture(spec, 30)
        rng = stream(spec.seed)
        lab = rng.choice(3, size=30, p=spec.weights).astype(np.int64) + 1
        noise = rng.standard_normal((30, 5))
        expected = spec.means[lab - 1] + np.sqrt(spec.variances[lab - 1]) * noise
        np.testing.assert_array_equal(truth.labels, lab)
        assert np.array_equal(fm.values, expected)

    @pytest.mark.parametrize("n, p", [(400, 2000), (60, 20000)])
    def test_holds_one_array(self, n, p):
        # the scale and shift are applied one row at a time, in place; whole
        # gathered arrays peaked at 2.01 X and 2.05 X, the rows at 1.13 X and
        # 1.18 X (FeatureMatrix's finiteness mask is another X / 8)
        spec = three_cluster_spec(p, seed=4)
        gen_mixture(spec, n)  # warm-up, out of the traced peak
        peak = traced_peak(lambda: gen_mixture(spec, n))
        assert peak / (n * p * 8) < 1.3

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
        # NaN slips past every comparison, so each field is checked finite
        for field, value in [("weights", [np.nan, 0.5]),
                             ("means", np.full((2, 3), np.nan)),
                             ("variances", np.full((2, 3), np.inf))]:
            kwargs = dict(weights=[0.5, 0.5], means=np.zeros((2, 3)),
                          variances=np.ones((2, 3)))
            kwargs[field] = value
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                MixtureSpec(k0=2, **kwargs)


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

    @pytest.mark.parametrize("means", [(0.1, -0.3), (0.7, -0.7), (0.3, 0.3)])
    def test_noiseless_rounding_is_not_deviation(self, means):
        # a slot averages identical values, which may round off their
        # expectation; such entries read 9.95 and 12.4 standard errors
        # before, and the concentration harness reported mse_mean 2.8e-34
        # against a bound of 0
        spec = MixtureSpec(k0=2, weights=[0.5, 0.5],
                           means=np.vstack([np.full(50, means[0]), np.full(50, means[1])]),
                           variances=np.zeros((2, 50)), seed=7)
        report = expectation_check(spec, 10, 100)
        assert (report.max_dev_aug, report.max_dev_gram) == (0.0, 0.0)
        point = empirical_concentration(spec, 10, 30)
        assert point.mse_mean == point.bound_sq == 0.0

    def test_fixed_entry_off_its_expectation_is_inf(self):
        # columns: fixed and exact, fixed and one rounding off (0.1 + 0.2
        # is not 0.3), and random with mean 4 and standard error 1/sqrt(2)
        samples = np.tile([1.0, 0.3, 2.0], (5, 1))
        samples[:, 2] += np.arange(5)
        expected = np.array([1.0, 0.1 + 0.2, 4.5])
        assert _max_std_dev(samples, expected, 4) == pytest.approx(0.5 * math.sqrt(2))
        expected[0] = 1.0 + 1e-9
        assert _max_std_dev(samples, expected, 4) == math.inf

    def test_unit_variance_within_four_se(self):
        spec = two_cluster_spec(1.0, 200, seed=123)
        report = expectation_check(spec, 6, 200)
        assert report.max_dev_aug < 4.0
        assert report.max_dev_gram < 4.0
        assert min(report.cluster_sizes) >= 2

    def test_holds_replicates_once(self):
        # peak as a multiple of the replicates' N x (N+1) matrices: a
        # separate store of their Gram matrices peaked at 4.01, one store
        # and then its off-slot gather at 2.02 (std's temporary is a store)
        spec, n, reps = three_cluster_spec(250, seed=5), 60, 200
        expectation_check(spec, n, reps)  # warm-up, out of the traced peak
        peak = traced_peak(lambda: expectation_check(spec, n, reps))
        assert peak / (reps * n * (n + 1) * 8) < 2.5


def skewness(samples: np.ndarray) -> float:
    """Each column's sample skewness, averaged over the columns."""
    c = samples - samples.mean(axis=0)
    return float(((c**3).mean(axis=0) / (c**2).mean(axis=0) ** 1.5).mean())


class TestGramLaw:
    """The exact-law draw against gram_values of gen_mixture's X, 1000
    independent replicates each at N = 10 under fixed labels: per entry of
    G, the two means within 4 standard errors of their difference, the sd
    ratio within 0.85-1.15, and the correlations between entries within
    0.25; over the off-diagonal entries, the mean skewness within 0.1. At
    these seeds the worst cases were 2.8 SE, 0.91-1.09, 0.16 and 0.04."""

    n, reps = 10, 1000

    @pytest.mark.parametrize("spec, seed", [
        (three_cluster_spec(250, seed=1), 11),   # two groups of 125, compressed
        (three_cluster_spec(4000, seed=1), 12),  # two groups of 2000, compressed
        # pure noise in one group of N + 1 columns, the narrowest compressed:
        # a Wishart degree of freedom off by one moves the diagonal's mean
        # by about 5 standard errors
        (MixtureSpec(k0=1, weights=[1.0], means=np.zeros((1, 11)),
                     variances=np.ones((1, 11)), seed=1), 15),
        # the same with mean 1: an off-diagonal entry's skewness, about
        # 0.35, comes from z alone, and a cross term drawn with a z of its
        # own reads about 0
        (MixtureSpec(k0=1, weights=[1.0], means=np.ones((1, 11)),
                     variances=np.ones((1, 11)), seed=1), 16),
        # one group of N columns, the widest direct: Bartlett would need a
        # chi-square with 0 degrees of freedom
        (MixtureSpec(k0=1, weights=[1.0], means=np.ones((1, 10)),
                     variances=np.ones((1, 10)), seed=1), 17),
        (three_cluster_spec(12, seed=1), 13),    # two groups of 6 < N, direct
        (mixed_spec(seed=1), 14),                # one of each
    ])
    def test_matches_gen_mixture(self, spec, seed):
        lab = np.resize(np.arange(1, spec.k0 + 1), self.n)
        old_root, new_root = np.random.SeedSequence(seed).spawn(2)
        old = np.array([
            gram_values(gen_mixture(spec, self.n, rng=rng, labels=lab)[0].values)
            for rng in replicate_streams(old_root, self.reps)
        ])
        new = np.array([sample_gram(spec, lab, rng)
                        for rng in replicate_streams(new_root, self.reps)])
        upper = np.triu_indices(self.n)
        a, b = old[:, upper[0], upper[1]], new[:, upper[0], upper[1]]
        se = np.sqrt((a.var(axis=0, ddof=1) + b.var(axis=0, ddof=1)) / self.reps)
        assert (np.abs(a.mean(axis=0) - b.mean(axis=0)) / se).max() < 4.0
        ratio = b.std(axis=0, ddof=1) / a.std(axis=0, ddof=1)
        assert 0.85 < ratio.min() and ratio.max() < 1.15
        assert np.abs(np.corrcoef(a.T) - np.corrcoef(b.T)).max() < 0.25
        off = np.triu_indices(self.n, 1)
        assert abs(skewness(old[:, off[0], off[1]]) - skewness(new[:, off[0], off[1]])) < 0.1

    def test_noiseless_is_the_expectation(self):
        # the mean terms come from the expectation table, outside any
        # product with the noise, so no bit is lost to rounding
        spec = MixtureSpec(k0=2, weights=[0.5, 0.5],
                           means=np.vstack([np.full(50, 0.1), np.full(50, -0.3)]),
                           variances=np.zeros((2, 50)), seed=2)
        lab = np.array([1, 2, 2, 1, 1])
        expected = expected_rows(spec, ClusterAssignment(lab, 2)).pairwise[
            np.ix_(lab - 1, lab - 1)]
        assert np.array_equal(sample_gram(spec, lab, stream(0)), expected)


class TestHarnessOracle:
    """Both harnesses against a reference loop that builds the draw's law
    and calls expected_rows every replicate: the hoisted column groups and
    expectations must give the same bits."""

    n = 12

    @pytest.mark.parametrize("p", [250, 4000])
    def test_empirical_concentration(self, p):
        spec = three_cluster_spec(p, seed=71)
        reps = 30
        sq, row_sq = np.empty(reps), np.empty((reps, self.n))
        for r, rng in enumerate(replicate_streams(np.random.SeedSequence(spec.seed), reps)):
            lab = labels_min_size_two(spec, self.n, rng)
            aug = cluster_augment_values(sample_gram(spec, lab, rng), lab)
            diff = aug - expected_rows(spec, ClusterAssignment(lab, spec.k0)).row_means
            row_sq[r] = (diff * diff).sum(axis=1)
            sq[r] = row_sq[r].sum()
        point = empirical_concentration(spec, self.n, reps)
        assert point.mse_mean == float(sq.mean())
        assert point.mse_se == float(sq.std(ddof=1) / math.sqrt(reps))
        assert point.row_mse_max == float(row_sq.mean(axis=0).max())

    @pytest.mark.parametrize("p", [250, 4000])
    def test_expectation_check(self, p):
        spec = three_cluster_spec(p, seed=72)
        reps = 100
        label_seq, rep_root = np.random.SeedSequence(spec.seed).spawn(2)
        lab = labels_min_size_two(spec, self.n, stream(label_seq))
        expectations = expected_rows(spec, ClusterAssignment(lab, spec.k0))
        grams = np.array([
            sample_gram(spec, lab, rng) for rng in replicate_streams(rep_root, reps)
        ])
        augs = np.array([cluster_augment_values(g, lab) for g in grams])

        def max_std_dev(samples, expected):
            # every entry is random here, so no standard error is 0
            se = samples.std(axis=0, ddof=1) / math.sqrt(reps)
            return float((np.abs(samples.mean(axis=0) - expected) / se).max())

        off = ~np.eye(self.n, dtype=bool)
        report = expectation_check(spec, self.n, reps)
        assert report.max_dev_aug == max_std_dev(augs, expectations.row_means)
        assert report.max_dev_gram == max_std_dev(
            grams[:, off], expectations.pairwise[np.ix_(lab - 1, lab - 1)][off]
        )


class TestSimulationPlan:
    def test_roundtrip_and_tiling(self):
        plan = SimulationPlan(
            k0=2, weights=(0.5, 0.5),
            mean_patterns=((1.0,), (-1.0, 0.0)),
            variance_patterns=((1.0,), (1.0,)),
            n=6, reps=30, p_grid=(20, 40), seed=4,
        )
        assert SimulationPlan(**json.loads(json.dumps(dataclasses.asdict(plan)))) == plan
        spec = build_spec(plan, 5)
        np.testing.assert_array_equal(spec.means[0], np.ones(5))
        np.testing.assert_array_equal(spec.means[1], [-1.0, 0.0, -1.0, 0.0, -1.0])

    def test_whole_floats_become_ints(self):
        plan = SimulationPlan(**simulation_plan(n=6.0, reps=30.0, p_grid=[50.0], seed=3.0))
        assert (plan.n, plan.reps, plan.p_grid, plan.seed) == (6, 30, (50,), 3)
        assert all(type(v) is int for v in (plan.n, plan.reps, plan.p_grid[0], plan.seed))

    def test_numpy_counts_become_ints(self):
        plan = SimulationPlan(**simulation_plan(
            k0=np.int64(2), n=np.int32(6), reps=np.float32(30.0),
            p_grid=np.array([50, 100]), seed=np.float64(3.0),
        ))
        assert (plan.k0, plan.n, plan.reps, plan.p_grid, plan.seed) == (2, 6, 30, (50, 100), 3)
        assert all(type(v) is int for v in (plan.k0, plan.n, plan.reps, *plan.p_grid, plan.seed))

    @pytest.mark.parametrize("raw", [
        simulation_plan(reps=10),
        *(simulation_plan(**over) for over in NON_FINITE_PLAN_EDITS + UNUSABLE_PLAN_EDITS),
        simulation_plan(k0=0), simulation_plan(p_grid=[]),
        simulation_plan(mean_patterns=[[1.0]]),
        simulation_plan(weights=[0.3, 0.3]), simulation_plan(weights=[0.5, 0.25, 0.25]),
        {key: value for key, value in simulation_plan().items() if key != "n"},
        simulation_plan(seed=np.True_), simulation_plan(p_grid=np.array([50.5, 100.0])),
        *(simulation_plan(**over) for over in MISTYPED_PLAN_EDITS),
        simulation_plan(
            k0=1, weights=[np.True_], mean_patterns=[[1.0]], variance_patterns=[[0.0]]
        ),
    ])
    def test_bad_plan_raises(self, raw):
        with pytest.raises((TypeError, ValueError)):
            SimulationPlan(**raw)

    @pytest.mark.parametrize("over", OVERFLOW_PLAN_EDITS)
    def test_overflowing_plan_raises(self, over):
        # the mean plan raised OverflowError from the sweep; the variance
        # plan ran to a report of Infinity and NaN, with numpy warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="deviation bound at p = 100 overflows"):
                SimulationPlan(**simulation_plan(**over))

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
