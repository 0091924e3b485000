"""Tests for the classification-EM loop and Gaussian density machinery."""

import math

import numpy as np
import pytest

from gramclust import (
    ClusterAssignment,
    GramMatrix,
    bic,
    cem_fit,
    estep,
    gram,
    mstep,
    num_params,
    standardize_columns,
    augment_with_clusters,
)
from gramclust import FeatureMatrix, ami, augment, gen_mixture
from gramclust.errors import EmptyClusterError
from gramclust.hierarchy import cut_tree, ward_linkage
from gramclust.mixture import (
    VARIANCE_FLOOR,
    ClusterMemo,
    MixtureParams,
    _log_joint,
    _reorder_to_canonical,
    mixture_loglik,
)
from tests.conftest import assert_same_fit, two_cluster_spec


def component_density_log(row, mean, cov) -> float:
    """log of the diagonal Gaussian density at ``row`` with normalizing
    dimension D = len(row): oracle for one entry of _log_joint."""
    x = np.asarray(row, dtype=np.float64)
    mu = np.asarray(mean, dtype=np.float64)
    d = x.shape[0]
    diff = x - mu
    v = np.asarray(cov, dtype=np.float64)
    logdet = float(np.log(v).sum())
    quad = float((diff * diff / v).sum())
    return -0.5 * (d * math.log(2.0 * math.pi) + logdet + quad)


def classification_loglik(x, params, labels) -> float:
    """Sum of log w_k + log-density of each row under its assigned
    component (the quantity each CEM sweep cannot decrease, floor aside)."""
    joint = _log_joint(np.asarray(x, dtype=np.float64), params)
    idx = np.asarray(labels, dtype=np.int64) - 1
    return float(joint[np.arange(joint.shape[0]), idx].sum())


def make_m(values):
    from gramclust.transform import AugmentedGram

    return AugmentedGram(np.asarray(values, dtype=float))


class TestDensity:
    def test_at_mean_unit_diag(self):
        row = np.zeros(5)
        val = component_density_log(row, row, np.ones(5))
        assert val == pytest.approx(-4.594692666023363, abs=1e-12)

    def test_unit_offset(self):
        mean = np.zeros(5)
        row = mean.copy()
        row[0] = 1.0
        val = component_density_log(row, mean, np.ones(5))
        assert val == pytest.approx(-5.094692666023363, abs=1e-12)

    def test_anisotropic(self):
        mean = np.zeros(5)
        row = mean.copy()
        row[0] = 2.0
        cov = np.array([4.0, 1.0, 1.0, 1.0, 1.0])
        val = component_density_log(row, mean, cov)
        assert val == pytest.approx(-5.787839846583308, abs=1e-12)


class TestMixtureParams:
    def params(self, floored=None):
        return MixtureParams(
            weights=np.array([0.25, 0.75]),
            means=np.array([[0.0, 1.0], [2.0, 3.0]]),
            covariances=np.ones((2, 2)),
            floored=floored,
        )

    def test_floored_defaults_to_none_floored(self):
        floored = self.params().floored
        assert floored.dtype == bool
        np.testing.assert_array_equal(floored, [False, False])

    @pytest.mark.parametrize("floored", [[True], [[True, False]], [True, False, True]])
    def test_floored_shape_checked(self, floored):
        with pytest.raises(ValueError, match="floored"):
            self.params(floored)

    def test_fields_read_only(self):
        params = self.params([True, False])
        for name in ("weights", "means", "covariances", "floored"):
            with pytest.raises(ValueError):
                getattr(params, name)[0] = 0

    def test_reorder_hand_built(self):
        labels, params = _reorder_to_canonical(np.array([2, 1, 2]), self.params([False, True]))
        np.testing.assert_array_equal(labels.labels, [1, 2, 1])
        np.testing.assert_array_equal(params.floored, [True, False])
        np.testing.assert_array_equal(params.weights, [0.75, 0.25])


class TestMstep:
    def test_single_cluster(self):
        m = make_m(np.random.default_rng(1).normal(size=(5, 6)))
        params = mstep(m.values, np.ones(5, dtype=np.int64), 1)
        assert params.weights[0] == 1.0
        np.testing.assert_allclose(params.means[0], m.values.mean(axis=0))
        np.testing.assert_allclose(
            params.covariances[0],
            np.maximum(m.values.var(axis=0), VARIANCE_FLOOR),
        )

    def test_identical_rows_hit_floor(self):
        row = np.array([1.0, -2.0, 3.0])
        x = np.vstack([row, row, row + 5.0, row + 5.0])
        params = mstep(x, np.array([1, 1, 2, 2]), 2)
        assert np.all(params.covariances == VARIANCE_FLOOR)
        np.testing.assert_array_equal(params.means[0], row)
        assert params.floored.all()

    def test_two_row_cluster(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        params = mstep(x, np.array([1, 1, 2]), 2)
        np.testing.assert_allclose(params.means[0], [1.0, 0.0])
        # population denominator n_k: ((0-1)^2 + (2-1)^2)/2 = 1
        assert params.covariances[0][0] == pytest.approx(1.0)
        assert params.covariances[0][1] == VARIANCE_FLOOR
        np.testing.assert_allclose(params.weights, [2 / 3, 1 / 3])

    def test_empty_cluster_raises(self):
        m = make_m(np.random.default_rng(2).normal(size=(4, 5)))
        with pytest.raises(EmptyClusterError):
            mstep(m.values, np.array([1, 1, 1, 1]), 2)


class TestEstep:
    def test_single_component(self):
        m = make_m(np.random.default_rng(4).normal(size=(5, 6)))
        params = mstep(m.values, np.ones(5, dtype=np.int64), 1)
        out = estep(m.values, params)
        np.testing.assert_array_equal(out, np.ones(5))

    def test_nearest_mean_under_equal_spherical(self):
        params = MixtureParams(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [4.0, 0.0]]),
            covariances=np.ones((2, 2)),
        )
        m = make_m([[2.1, 0.0]])  # closer to mean 2 by epsilon
        # single row: widen to valid M shape is unnecessary here, bypass type
        scores = estep(np.array([[2.1, 0.0]]), params)
        assert scores[0] == 2

    def test_tie_goes_to_smallest_index(self):
        params = MixtureParams(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0, 0.0], [4.0, 0.0]]),
            covariances=np.ones((2, 2)),
        )
        scores = estep(np.array([[2.0, 0.0]]), params)
        assert scores[0] == 1


def prepared_instance(spec, n):
    fm, truth = gen_mixture(spec, n)
    x = standardize_columns(fm)
    g = gram(x)
    return g, augment(g), truth.canonicalized()


class TestCemFit:
    def test_k1_single_gaussian(self):
        spec = two_cluster_spec(1.0, 100, seed=1)
        g, m, _ = prepared_instance(spec, 10)
        init = ClusterAssignment(np.ones(10, dtype=np.int64), 1)
        fit = cem_fit(g, m, init)
        assert fit.converged and fit.iterations == 1
        md = augment_with_clusters(g, fit.labels)
        params = mstep(md.values, fit.labels.labels, fit.labels.k)
        assert fit.loglik == pytest.approx(mixture_loglik(md.values, params))

    def test_truth_init_stable_one_sweep(self, separated_instance):
        spec, fm, truth = separated_instance
        x = standardize_columns(fm)
        g = gram(x)
        m = augment(g)
        fit = cem_fit(g, m, truth.canonicalized())
        assert fit.converged
        assert fit.iterations == 1
        assert ami(truth, fit.labels) == 1.0

    def test_boundary_flip_recovers(self, separated_instance):
        # frozen regression: mislabeling one object flips back in sweep 1,
        # sweep 2 confirms convergence
        spec, fm, truth = separated_instance
        x = standardize_columns(fm)
        g = gram(x)
        m = augment(g)
        init_labels = truth.canonicalized().labels.copy()
        init_labels[0] = 3 - init_labels[0]
        fit = cem_fit(g, m, ClusterAssignment(init_labels, 2))
        assert fit.converged
        assert fit.iterations == 2
        assert ami(truth, fit.labels) == 1.0

    def test_fit_scores_itself(self, separated_instance):
        _, fm, _ = separated_instance
        g = gram(standardize_columns(fm))
        m = augment(g)
        n = m.n_objects
        for k in (1, 2):
            init = cut_tree(ward_linkage(m.values), k)
            fit = cem_fit(g, m, init)
            assert not fit.degenerate
            assert fit.k == k
            assert fit.bic == bic(fit.loglik, num_params(k, n), n)

    def test_deterministic_bitwise(self, separated_instance):
        _, fm, truth = separated_instance
        x = standardize_columns(fm)
        g = gram(x)
        m = augment(g)
        d = ward_linkage(m.values)
        init = cut_tree(d, 2)
        f1 = cem_fit(g, m, init)
        f2 = cem_fit(g, m, init)
        assert np.array_equal(f1.labels.labels, f2.labels.labels)
        assert f1.loglik == f2.loglik
        assert np.array_equal(f1.params.means, f2.params.means)

    def test_init_label_permutation_invariance(self, separated_instance):
        _, fm, truth = separated_instance
        x = standardize_columns(fm)
        g = gram(x)
        m = augment(g)
        init = cut_tree(ward_linkage(m.values), 2)
        swapped = ClusterAssignment(3 - init.labels, 2)
        f1 = cem_fit(g, m, init)
        f2 = cem_fit(g, m, swapped)
        assert np.array_equal(f1.labels.labels, f2.labels.labels)
        # components are permuted back to the canonical label order
        assert np.array_equal(f1.params.weights, f2.params.weights)
        assert np.array_equal(f1.params.means, f2.params.means)

    def test_empty_estep_degenerate(self):
        # identical rows, 2/1 init: both components land on the same mean
        # and floored variances, weights favor component 1, E-step empties
        # component 2 deterministically
        row = np.array([1.0, 2.0, 3.0, 4.0])
        m = make_m(np.vstack([row, row, row]))
        g = GramMatrix(np.zeros((3, 3)))
        fit = cem_fit(g, m, ClusterAssignment(np.array([1, 1, 2]), 2))
        assert fit.degenerate
        assert fit.k == 2
        assert not fit.converged
        assert fit.bic == float("-inf")
        assert fit.loglik == float("-inf")

    def test_collapsed_fit_degenerate(self):
        # duplicated objects: perfect clusters but zero within-cluster
        # scatter, so the quasi-likelihood is meaningless
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=300), rng.normal(size=300)
        x = standardize_columns(FeatureMatrix(np.vstack([a, a, b, b])))
        g = gram(x)
        m = augment(g)
        init = ClusterAssignment(np.array([1, 1, 2, 2]), 2)
        fit = cem_fit(g, m, init)
        assert fit.degenerate
        assert fit.bic == float("-inf")
        assert np.isfinite(fit.loglik)  # reported for transparency

    def test_monotone_classification_loglik(self):
        spec = two_cluster_spec(0.6, 150, seed=21)
        g, m, truth = prepared_instance(spec, 24)
        init = cut_tree(ward_linkage(m.values), 3)
        labels = init.labels.copy()
        prev = None
        for _ in range(60):
            params = mstep(m.values, labels, 3)
            after_m = classification_loglik(m.values, params, labels)
            if prev is not None and not params.floored.any():
                assert after_m >= prev - 1e-9
            new = estep(m.values, params)
            after_e = classification_loglik(m.values, params, new)
            assert after_e >= after_m - 1e-9
            if np.array_equal(new, labels):
                break
            labels = new
            prev = after_e

    def test_mixture_loglik_matches_naive(self):
        spec = two_cluster_spec(1.0, 60, seed=13)
        g, m, truth = prepared_instance(spec, 8)
        params = mstep(m.values, truth.labels, truth.k)
        dens = np.array([
            [
                component_density_log(r, params.means[j], params.covariances[j])
                for j in range(2)
            ]
            for r in m.values
        ])
        naive = float(np.log((params.weights * np.exp(dens)).sum(axis=1)).sum())
        assert mixture_loglik(m.values, params) == pytest.approx(naive, abs=1e-9)

    def test_log_joint_matches_per_row_density(self):
        rng = np.random.default_rng(17)
        # N = 60, K = 20 and N = 400, K = 20: the wide and tall benchmark
        # shapes
        for n, k in [(300, 5), (40, 6), (60, 20), (400, 20)]:
            x = rng.normal(size=(n, n + 1))
            params = MixtureParams(
                weights=np.full(k, 1.0 / k),
                means=rng.normal(size=(k, n + 1)),
                covariances=rng.uniform(0.5, 2.0, size=(k, n + 1)),
            )
            log_w = np.log(params.weights)
            ref = np.array([
                [
                    log_w[j]
                    + component_density_log(r, params.means[j], params.covariances[j])
                    for j in range(k)
                ]
                for r in x
            ])
            joint = _log_joint(x, params)
            assert np.array_equal(joint, ref)
            # the layout that fixes the summation order of mixture_loglik's
            # row sums
            assert joint.T.flags.c_contiguous


def reference_mstep(x, labels, k):
    """Masked per-cluster means and variances: oracle for mstep."""
    d = x.shape[1]
    means, raw = np.empty((k, d)), np.empty((k, d))
    for j in range(k):
        rows = x[labels == j + 1]
        means[j] = rows.mean(axis=0)
        raw[j] = ((rows - means[j]) ** 2).mean(axis=0)
    return means, raw


class TestKernelOracle:
    def test_mstep_matches_masked_means(self):
        rng = np.random.default_rng(23)
        for k in range(1, 21):
            n = int(rng.integers(k + 1, 300))
            x = rng.normal(size=(n, n + 1)) * rng.uniform(0.1, 10.0)
            # every cluster present, geometric (unbalanced) sizes
            labels = np.concatenate([
                np.arange(1, k + 1), np.minimum(k, rng.geometric(0.4, size=n - k))
            ])
            rng.shuffle(labels)
            first = np.flatnonzero(labels == 1)
            x[first] = x[first[0]]  # cluster 1 collapses onto the floor
            params = mstep(x, labels, k)
            means, raw = reference_mstep(x, labels, k)
            assert np.array_equal(params.means, means)
            assert np.array_equal(params.covariances, np.maximum(raw, VARIANCE_FLOOR))
            assert np.array_equal(params.floored, (raw < VARIANCE_FLOOR).any(axis=1))
            assert np.array_equal(params.weights, np.bincount(labels)[1:] / n)

    def test_mixture_loglik_matches_scipy_logsumexp(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(24)
        tied_rows = 0
        for case in range(60):
            k = int(rng.integers(1, 21))
            n = int(rng.integers(k + 1, 120))
            x = rng.normal(size=(n, n + 1))
            means = 0.3 * rng.normal(size=(k, n + 1))
            cov = rng.uniform(0.5, 2.0, size=(k, n + 1))
            w = rng.dirichlet(np.ones(k))
            if case % 3 == 1:
                # a duplicated component: exactly tied row maxima
                means[-1], cov[-1], w[-1] = means[0], cov[0], w[0]
            elif case % 3 == 2:
                # all components equal: every row ties k ways
                means[:], cov[:], w[:] = means[0], cov[0], w[0]
            params = MixtureParams(w / w.sum(), means, cov)
            joint = _log_joint(x, params)
            tied_rows += int(((joint == joint.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
            assert mixture_loglik(x, params) == float(logsumexp(joint, axis=1).sum())
        assert tied_rows > 0
        for _ in range(40):
            # one coordinate, 8-20 components all within a factor e^pi of
            # the row maximum: the order of the row sum shows in the result
            k = int(rng.integers(8, 21))
            x = rng.uniform(size=(int(rng.integers(10, 120)), 1))
            params = MixtureParams(
                np.full(k, 1.0 / k), rng.uniform(size=(k, 1)), np.full((k, 1), 0.5 / np.pi)
            )
            joint = _log_joint(x, params)
            assert mixture_loglik(x, params) == float(logsumexp(joint, axis=1).sum())


class TestClusterMemo:
    def test_stale_rows_rescored(self):
        # rows 3 and 7 move from cluster c to cluster d (and change value);
        # every other row keeps its cluster, so the stored columns of a and
        # b are reused there and rescored at 3 and 7, and d is scored whole
        rng = np.random.default_rng(31)
        n, k = 12, 3
        x1 = rng.normal(size=(n, n + 1))
        x2 = x1.copy()
        x2[[3, 7]] = rng.normal(size=(2, n + 1))
        rows = [np.array([0, 1, 2, 4, 5, 6]), np.array([8, 9, 10, 11]), np.array([3, 7])]
        keys1 = [b"a", b"b", b"c"]
        keys2 = [b"a", b"b", b"d"]
        params = MixtureParams(
            np.full(k, 1.0 / k), rng.normal(size=(k, n + 1)),
            rng.uniform(0.5, 2.0, size=(k, n + 1)),
        )
        columns: dict = {}
        first = _log_joint(x1, params, keys1, columns, rows)
        assert first.tobytes() == _log_joint(x1, params).tobytes()
        again = _log_joint(x2, params, keys2, columns, rows)
        assert again.T.flags.c_contiguous
        assert again.tobytes() == _log_joint(x2, params).tobytes()
        # under an unchanged partition the stored rows are trusted as they are
        kept = _log_joint(x1, params, keys2, columns, rows)
        assert kept.tobytes() == again.tobytes()
        assert all(not col.flags.writeable for col, _ in columns.values())

    def test_shared_memo_matches_fresh(self):
        # non-nested random partitions that keep some clusters of a base
        # partition and redraw the rest; one memo serves every fit
        rng = np.random.default_rng(32)
        p = 400
        means = np.vstack([4.0 * np.ones(p), -4.0 * np.ones(p),
                           np.where(np.arange(p) % 2 == 0, 4.0, -4.0)])
        from gramclust import MixtureSpec

        spec = MixtureSpec(k0=3, weights=[0.4, 0.35, 0.25], means=means,
                           variances=np.ones((3, p)), seed=33)
        fm, truth = gen_mixture(spec, 60)
        g = gram(standardize_columns(fm))
        m = augment(g)
        base = truth.canonicalized().labels
        memo = ClusterMemo()
        fits = []
        for trial in range(24):
            keep = rng.random(3) < 0.5
            labels = base.copy()
            redraw = ~keep[base - 1]
            extra = int(rng.integers(1, 4))
            labels[redraw] = 4 + rng.integers(0, extra, size=int(redraw.sum()))
            init = ClusterAssignment.from_raw(labels)
            max_iter = int(rng.integers(1, 4))
            shared = cem_fit(g, m, init, max_iter=max_iter, memo=memo)
            assert_same_fit(shared, cem_fit(g, m, init, max_iter=max_iter))
            fits.append(shared)
        # some fit reused a component whose stored column was scored under
        # a different partition, so its stale rows were scored again
        stale_reuse = 0
        parts = [
            {frozenset(np.flatnonzero(f.labels.labels == c)) for c in range(1, f.k + 1)}
            for f in fits if not f.degenerate or np.isfinite(f.loglik)
        ]
        for j, part in enumerate(parts):
            for cluster in part:
                earlier = [q for q in parts[:j] if cluster in q]
                stale_reuse += bool(earlier) and earlier[-1] != part
        assert stale_reuse > 0
