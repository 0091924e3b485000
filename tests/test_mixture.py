"""Tests for the classification-EM loop and Gaussian density machinery."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gramclust import (
    ClusterAssignment,
    GramMatrix,
    bic,
    cem_fit,
    gram,
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
    _Component,
    _hard_labels,
    _log_joint,
    _members,
    _mstep,
    _params,
    _total_loglik,
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


def classification_loglik(joint, labels) -> float:
    """Sum of log w_k + log-density of each row under its assigned
    component (the quantity each CEM sweep cannot decrease, floor aside)."""
    return float(joint[np.arange(joint.shape[0]), labels - 1].sum())


def fresh_mstep(x, labels, k):
    """cem_fit's M-step on an empty memo: the MixtureParams it reports and
    the component records."""
    rows, keys = _members(labels, k)
    comps = _mstep(x, rows, keys, {})
    return _params(comps, rows, x.shape[0]), comps


def components(weights, means, variances):
    """Unfloored component records with these parameters."""
    log_w = np.log(np.asarray(weights, dtype=np.float64))
    return [
        _Component(np.array(mu, dtype=np.float64), np.array(v, dtype=np.float64), False, lw)
        for mu, v, lw in zip(means, variances, log_w)
    ]


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
    def params(self):
        return MixtureParams(
            weights=np.array([0.25, 0.75]),
            means=np.array([[0.0, 1.0], [2.0, 3.0]]),
            covariances=np.ones((2, 2)),
        )

    @pytest.mark.parametrize("name, value, match", [
        ("weights", [1.0], "K-vector"),
        ("weights", [0.5, 0.6], "sum to 1"),
        ("covariances", np.ones((2, 3)), r"\(K, D\)"),
        ("covariances", np.full((2, 2), VARIANCE_FLOOR / 2), "floor"),
    ], ids=["weights_shape", "weights_sum", "covariances_shape", "below_floor"])
    def test_fields_checked(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            replace(self.params(), **{name: value})

    def test_fields_read_only(self):
        params = self.params()
        for name in ("weights", "means", "covariances"):
            with pytest.raises(ValueError):
                getattr(params, name)[0] = 0

    def test_reorder_hand_built(self):
        # component 1 of the init is the cluster without object 1; cem_fit
        # reports it second, as the canonical labels do
        rng = np.random.default_rng(3)
        base = rng.normal(size=50)
        first = [0, 2, 3, 6, 7]
        rows = [(base if i in first else -base) + 0.3 * rng.normal(size=50) for i in range(8)]
        g = gram(standardize_columns(FeatureMatrix(np.vstack(rows))))
        fit = cem_fit(g, augment(g), ClusterAssignment(np.array([2, 1, 2, 2, 1, 1, 2, 2]), 2))
        assert not fit.degenerate
        np.testing.assert_array_equal(fit.labels.labels, [1, 2, 1, 1, 2, 2, 1, 1])
        np.testing.assert_array_equal(fit.params.weights, [0.625, 0.375])
        fresh, _ = fresh_mstep(augment_with_clusters(g, fit.labels).values, fit.labels.labels, 2)
        for name in ("means", "covariances"):
            assert getattr(fit.params, name).tobytes() == getattr(fresh, name).tobytes()


class TestMstep:
    def test_single_cluster(self):
        m = make_m(np.random.default_rng(1).normal(size=(5, 6)))
        params, _ = fresh_mstep(m.values, np.ones(5, dtype=np.int64), 1)
        assert params.weights[0] == 1.0
        np.testing.assert_allclose(params.means[0], m.values.mean(axis=0))
        np.testing.assert_allclose(
            params.covariances[0],
            np.maximum(m.values.var(axis=0), VARIANCE_FLOOR),
        )

    def test_identical_rows_hit_floor(self):
        row = np.array([1.0, -2.0, 3.0])
        x = np.vstack([row, row, row + 5.0, row + 5.0])
        params, comps = fresh_mstep(x, np.array([1, 1, 2, 2]), 2)
        assert np.all(params.covariances == VARIANCE_FLOOR)
        np.testing.assert_array_equal(params.means[0], row)
        assert all(c.floored for c in comps)

    def test_two_row_cluster(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        params, _ = fresh_mstep(x, np.array([1, 1, 2]), 2)
        np.testing.assert_allclose(params.means[0], [1.0, 0.0])
        # population denominator n_k: ((0-1)^2 + (2-1)^2)/2 = 1
        assert params.covariances[0][0] == pytest.approx(1.0)
        assert params.covariances[0][1] == VARIANCE_FLOOR
        np.testing.assert_allclose(params.weights, [2 / 3, 1 / 3])

    def test_empty_cluster_raises(self):
        m = make_m(np.random.default_rng(2).normal(size=(4, 5)))
        with pytest.raises(EmptyClusterError):
            fresh_mstep(m.values, np.array([1, 1, 1, 1]), 2)


class TestEstep:
    def test_single_component(self):
        m = make_m(np.random.default_rng(4).normal(size=(5, 6)))
        _, comps = fresh_mstep(m.values, np.ones(5, dtype=np.int64), 1)
        out = _hard_labels(_log_joint(m.values, comps))
        np.testing.assert_array_equal(out, np.ones(5))

    def test_nearest_mean_under_equal_spherical(self):
        comps = components([0.5, 0.5], [[0.0, 0.0], [4.0, 0.0]], np.ones((2, 2)))
        # closer to mean 2 by epsilon
        scores = _hard_labels(_log_joint(np.array([[2.1, 0.0]]), comps))
        assert scores[0] == 2

    def test_tie_goes_to_smallest_index(self):
        comps = components([0.5, 0.5], [[0.0, 0.0], [4.0, 0.0]], np.ones((2, 2)))
        scores = _hard_labels(_log_joint(np.array([[2.0, 0.0]]), comps))
        assert scores[0] == 1


@pytest.mark.parametrize("call, match", [
    (lambda g, m: cem_fit(g, m, ClusterAssignment(np.ones(3, dtype=np.int64), 1), max_iter=0),
     "max_iter must be >= 1"),
    (lambda g, m: cem_fit(g, m, ClusterAssignment(np.ones(2, dtype=np.int64), 1)),
     "init length"),
    (lambda g, m: num_params(0, 3), "k >= 1"),
    (lambda g, m: num_params(2, 1), "n >= 2"),
    (lambda g, m: bic(-1.0, 5, 1), "n >= 2"),
], ids=["max_iter_0", "init_length", "num_params_k0", "num_params_n1", "bic_n1"])
def test_argument_checks(call, match):
    g = GramMatrix(np.eye(3))
    with pytest.raises(ValueError, match=match):
        call(g, augment(g))


def prepared_instance(spec, n):
    fm, truth = gen_mixture(spec, n)
    x = standardize_columns(fm)
    g = gram(x)
    return g, augment(g), ClusterAssignment.from_raw(truth.labels)


def degenerate_instance(reason):
    """(g, m, init) whose fit is degenerate for ``reason``."""
    if reason == "emptied":
        # identical rows, 2/1 init: both components land on the same mean
        # and floored variances, weights favor component 1, E-step empties
        # component 2 deterministically
        row = np.array([1.0, 2.0, 3.0, 4.0])
        return (GramMatrix(np.zeros((3, 3))), make_m(np.vstack([row, row, row])),
                ClusterAssignment(np.array([1, 1, 2]), 2))
    # duplicated objects: perfect clusters but zero within-cluster scatter.
    # Pairs are small clusters; three copies of each of two objects make
    # clusters of 3, not small, whose rows coincide on the cluster-aware
    # matrix
    copies = 2 if reason == "small_cluster" else 3
    rng = np.random.default_rng(5 if reason == "small_cluster" else 6)
    a, b = rng.normal(size=300), rng.normal(size=300)
    g = gram(standardize_columns(FeatureMatrix(np.vstack([a] * copies + [b] * copies))))
    return g, augment(g), ClusterAssignment(np.repeat([1, 2], copies), 2)


class TestCemFit:
    def test_k1_single_gaussian(self):
        spec = two_cluster_spec(1.0, 100, seed=1)
        g, m, _ = prepared_instance(spec, 10)
        init = ClusterAssignment(np.ones(10, dtype=np.int64), 1)
        fit = cem_fit(g, m, init)
        assert fit.converged and fit.iterations == 1
        md = augment_with_clusters(g, fit.labels)
        _, comps = fresh_mstep(md.values, fit.labels.labels, fit.labels.k)
        assert fit.loglik == _total_loglik(_log_joint(md.values, comps))

    def test_truth_init_stable_one_sweep(self, separated_instance):
        spec, fm, truth = separated_instance
        x = standardize_columns(fm)
        g = gram(x)
        m = augment(g)
        fit = cem_fit(g, m, ClusterAssignment.from_raw(truth.labels))
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
        init_labels = ClusterAssignment.from_raw(truth.labels).labels.copy()
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

    def test_one_mixture_params_per_fit(self, monkeypatch, separated_instance):
        # the loop works on components; only the reported fit of a fit
        # that is not degenerate is a MixtureParams, and it is validated
        built = []
        post_init = MixtureParams.__post_init__

        def counting(params):
            built.append(params)
            post_init(params)

        monkeypatch.setattr(MixtureParams, "__post_init__", counting)
        _, fm, truth = separated_instance
        g = gram(standardize_columns(fm))
        m = augment(g)
        init_labels = ClusterAssignment.from_raw(truth.labels).labels.copy()
        init_labels[0] = 3 - init_labels[0]
        inits = [ClusterAssignment(init_labels, 2), cut_tree(ward_linkage(m.values), 3)]
        memo = ClusterMemo()
        for init in inits + inits:
            built.clear()
            fit = cem_fit(g, m, init, memo=memo)
            assert [p is fit.params for p in built] == ([] if fit.degenerate else [True])
        fit = cem_fit(g, m, inits[0])
        assert fit.iterations > 1 and not fit.degenerate
        built.clear()
        fit = cem_fit(*degenerate_instance("emptied"))
        assert fit.degenerate and built == []

    def test_empty_estep_degenerate(self):
        fit = cem_fit(*degenerate_instance("emptied"))
        assert fit.degenerate
        assert fit.k == 2
        assert not fit.converged
        assert fit.bic == float("-inf")
        assert fit.loglik == float("-inf")
        assert fit.degenerate_reason == "emptied"

    def test_collapsed_fit_degenerate(self):
        # the quasi-likelihood of zero-scatter clusters is meaningless and
        # not computed
        fit = cem_fit(*degenerate_instance("small_cluster"))
        assert fit.degenerate
        assert fit.bic == float("-inf")
        assert fit.loglik == float("-inf")
        assert fit.degenerate_reason == "small_cluster"

    def test_floored_fit_degenerate(self):
        fit = cem_fit(*degenerate_instance("floored"))
        assert fit.degenerate and fit.loglik == float("-inf")
        assert fit.degenerate_reason == "floored"

    @pytest.mark.parametrize("reason", ["emptied", "small_cluster", "floored"])
    def test_degenerate_fit_has_no_params(self, reason):
        fit = cem_fit(*degenerate_instance(reason))
        assert fit.degenerate_reason == reason
        assert fit.params is None

    def test_small_cluster_decided_from_sizes(self, monkeypatch):
        # a final cluster of at most 2 members makes the fit degenerate
        # before the cluster-aware matrix is built or fitted; a fit that
        # gets that far builds it once, through the module global that
        # perfbench's tracer wraps
        import gramclust.mixture as mixture

        calls = []
        augment_with_clusters, mstep = mixture.augment_with_clusters, mixture._mstep

        def counting_augment(*args):
            calls.append("cluster_aware")
            return augment_with_clusters(*args)

        def counting_mstep(x, *args):
            calls.append("sweep" if x is m.values else "aware")
            return mstep(x, *args)

        monkeypatch.setattr(mixture, "augment_with_clusters", counting_augment)
        monkeypatch.setattr(mixture, "_mstep", counting_mstep)
        g, m, init = degenerate_instance("small_cluster")
        fit = cem_fit(g, m, init)
        assert fit.degenerate_reason == "small_cluster"
        assert calls == ["sweep"] * fit.iterations
        calls.clear()
        g, m, init = degenerate_instance("floored")
        cem_fit(g, m, init)
        assert calls.count("cluster_aware") == calls.count("aware") == 1

    def test_degenerate_fit_not_scored(self, monkeypatch, separated_instance):
        # a degenerate fit computes no log-joint on the cluster-aware
        # matrix and no log-sum-exp; a fit that is not degenerate computes
        # one each
        import gramclust.mixture as mixture

        calls = []
        log_joint, total_loglik = mixture._log_joint, mixture._total_loglik

        def counting_log_joint(x, *args):
            calls.append("sweep" if x is m.values else "aware")
            return log_joint(x, *args)

        def counting_total_loglik(joint):
            calls.append("total")
            return total_loglik(joint)

        monkeypatch.setattr(mixture, "_log_joint", counting_log_joint)
        monkeypatch.setattr(mixture, "_total_loglik", counting_total_loglik)
        g, m, init = degenerate_instance("small_cluster")
        fit = cem_fit(g, m, init)
        assert fit.degenerate and calls == ["sweep"]
        calls.clear()
        g = gram(standardize_columns(separated_instance[1]))
        m = augment(g)
        fit = cem_fit(g, m, cut_tree(ward_linkage(m.values), 2))
        assert not fit.degenerate
        assert calls.count("aware") == 1 and calls.count("total") == 1

    def test_fit_result_reason_checked(self):
        g, m, _ = prepared_instance(two_cluster_spec(1.0, 100, seed=1), 10)
        fit = cem_fit(g, m, ClusterAssignment(np.ones(10, dtype=np.int64), 1))
        assert fit.degenerate_reason is None and not fit.degenerate
        unscored = {"params": None, "bic": float("-inf")}
        assert replace(fit, degenerate_reason="floored", **unscored).degenerate
        for changes, match in [
            ({"degenerate_reason": "odd", **unscored}, "unknown degenerate_reason"),
            ({"degenerate_reason": "floored", "params": None}, "bic = -inf"),
            ({"degenerate_reason": "floored", "bic": float("-inf")}, "params is None"),
            ({"params": None}, "params is None"),
        ]:
            with pytest.raises(ValueError, match=match):
                replace(fit, **changes)
        with pytest.raises(TypeError, match="degenerate"):
            replace(fit, degenerate=True)

    def test_monotone_classification_loglik(self):
        spec = two_cluster_spec(0.6, 150, seed=21)
        g, m, truth = prepared_instance(spec, 24)
        init = cut_tree(ward_linkage(m.values), 3)
        labels = init.labels.copy()
        prev = None
        for _ in range(60):
            _, comps = fresh_mstep(m.values, labels, 3)
            joint = _log_joint(m.values, comps)
            after_m = classification_loglik(joint, labels)
            if prev is not None and not any(c.floored for c in comps):
                assert after_m >= prev - 1e-9
            new = _hard_labels(joint)
            after_e = classification_loglik(joint, new)
            assert after_e >= after_m - 1e-9
            if np.array_equal(new, labels):
                break
            labels = new
            prev = after_e

    def test_mixture_loglik_matches_naive(self):
        spec = two_cluster_spec(1.0, 60, seed=13)
        g, m, truth = prepared_instance(spec, 8)
        params, comps = fresh_mstep(m.values, truth.labels, truth.k)
        dens = np.array([
            [
                component_density_log(r, params.means[j], params.covariances[j])
                for j in range(2)
            ]
            for r in m.values
        ])
        naive = float(np.log((params.weights * np.exp(dens)).sum(axis=1)).sum())
        assert _total_loglik(_log_joint(m.values, comps)) == pytest.approx(naive, abs=1e-9)

    def test_log_joint_matches_per_row_density(self):
        rng = np.random.default_rng(17)
        # N = 60, K = 20 and N = 400, K = 20: the wide and tall benchmark
        # shapes
        for n, k in [(300, 5), (40, 6), (60, 20), (400, 20)]:
            x = rng.normal(size=(n, n + 1))
            w = np.full(k, 1.0 / k)
            means = rng.normal(size=(k, n + 1))
            cov = rng.uniform(0.5, 2.0, size=(k, n + 1))
            log_w = np.log(w)
            ref = np.array([
                [log_w[j] + component_density_log(r, means[j], cov[j]) for j in range(k)]
                for r in x
            ])
            joint = _log_joint(x, components(w, means, cov))
            # two matrix products on centred rows against one sum per row:
            # equal to within 5e-16 relative here, asserted at 1e-14
            np.testing.assert_allclose(joint, ref, rtol=1e-14, atol=0)
            # a row's K entries are contiguous, which fixes the summation
            # order of _total_loglik's row sums
            assert joint.flags.c_contiguous
        # separated clusters with small variances: centres +/-1, noise sd
        # 0.1, so each centred entry is large against a cluster's spread and
        # the two products cancel; within 1e-13 relative here
        for n, k in [(60, 3), (400, 4)]:
            centres = rng.choice([-1.0, 1.0], size=(k, n + 1))
            labels = np.arange(n) % k
            x = centres[labels] + rng.normal(scale=0.1, size=(n, n + 1))
            w = np.bincount(labels) / n
            means = np.array([x[labels == j].mean(axis=0) for j in range(k)])
            cov = np.array([x[labels == j].var(axis=0) for j in range(k)])
            log_w = np.log(w)
            ref = np.array([
                [log_w[j] + component_density_log(r, means[j], cov[j]) for j in range(k)]
                for r in x
            ])
            joint = _log_joint(x, components(w, means, cov))
            np.testing.assert_allclose(joint, ref, rtol=1e-10, atol=0)


def reference_mstep(x, labels, k):
    """Masked per-cluster means and variances: oracle for the M-step."""
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
            params, comps = fresh_mstep(x, labels, k)
            means, raw = reference_mstep(x, labels, k)
            assert np.array_equal(params.means, means)
            assert np.array_equal(params.covariances, np.maximum(raw, VARIANCE_FLOOR))
            assert [c.floored for c in comps] == list((raw < VARIANCE_FLOOR).any(axis=1))
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
            comps = components(w / w.sum(), means, cov)
            joint = _log_joint(x, comps)
            tied_rows += int(((joint == joint.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
            assert _total_loglik(_log_joint(x, comps)) == float(logsumexp(joint, axis=1).sum())
        assert tied_rows > 0
        for _ in range(40):
            # one coordinate, 8-20 components all within a factor e^pi of
            # the row maximum: the order of the row sum shows in the result
            k = int(rng.integers(8, 21))
            x = rng.uniform(size=(int(rng.integers(10, 120)), 1))
            comps = components(
                np.full(k, 1.0 / k), rng.uniform(size=(k, 1)), np.full((k, 1), 0.5 / np.pi)
            )
            joint = _log_joint(x, comps)
            assert _total_loglik(_log_joint(x, comps)) == float(logsumexp(joint, axis=1).sum())


def assert_frozen(comps):
    """Means and variances of components are read-only."""
    for comp in comps:
        for arr in (comp.mean, comp.var):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestClusterMemo:
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
        base = ClusterAssignment.from_raw(truth.labels).labels
        memo = ClusterMemo()
        scored = 0
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
            scored += not shared.degenerate
        assert scored > 1
        assert_frozen(list(memo.sweep.values()) + list(memo.aware.values()))

    def test_sweep_centred_once(self, monkeypatch, separated_instance):
        # the sweep matrix is centred once per sweep, and every E-step of
        # every fit scores that same cache; a scored fit centres its own
        # cluster-aware matrix in its one log-joint call
        import gramclust.mixture as mixture
        from gramclust.select import cluster_features

        built, passed = [], []
        centred, log_joint = mixture._centred, mixture._log_joint

        def recording_centred(x):
            built.append((x, centred(x)))
            return built[-1][1]

        def recording_log_joint(x, comps, cache=None):
            passed.append((x, cache))
            return log_joint(x, comps, cache)

        monkeypatch.setattr(mixture, "_centred", recording_centred)
        monkeypatch.setattr(mixture, "_log_joint", recording_log_joint)
        out = cluster_features(separated_instance[1], kmax=6)
        sweep_x, sweep_cache = built[0]
        e_steps = [cache for x, cache in passed if x is sweep_x]
        assert len(e_steps) == sum(f.iterations for f in out.fits)
        assert all(cache is sweep_cache for cache in e_steps)
        aware = [cache for x, cache in passed if x is not sweep_x]
        assert 0 < len(aware) == sum(not f.degenerate for f in out.fits) < len(out.fits)
        assert all(cache is None for cache in aware)
        assert [x is sweep_x for x, _ in built] == [True] + [False] * len(aware)
