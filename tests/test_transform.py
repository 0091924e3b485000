"""Tests for the Gram-matrix augmentations and expected row structure."""

import numpy as np
import pytest

from gramclust import (
    AugmentedGram,
    ClusterAssignment,
    GramMatrix,
    MixtureSpec,
    augment,
    augment_with_clusters,
    expectation_check,
    expected_rows,
    separability_diagnostic,
)
from gramclust.errors import SingleClusterError
from gramclust.transform import cluster_augment_values


def symmetric_sentinels(n=4):
    """Distinct sentinel values per (unordered) slot, symmetric as a Gram
    matrix must be: g[i][j] = 10(i+1)+(j+1) for i<j, diagonal 100+(i+1)."""
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            g[i, j] = g[j, i] = 10 * (i + 1) + (j + 1)
        g[i, i] = 100 + (i + 1)
    return g


def reference_augment(g):
    """Per-object oracle for the one-cluster transform: one masked column
    sum per slot."""
    n = g.shape[0]
    m = np.concatenate([g, np.diag(g)[:, None]], axis=1)
    for i in range(n):
        mask = np.ones(n, dtype=bool)
        mask[i] = False
        m[i, i] = g[mask, i].sum() / (n - 1)
    return m


def reference_cluster_augment(g, labels):
    """Per-object oracle for cluster_augment_values; singletons keep the
    full off-diagonal column mean."""
    m = reference_augment(g)
    for i in range(g.shape[0]):
        same = labels == labels[i]
        same[i] = False
        cnt = int(same.sum())
        if cnt > 0:
            m[i, i] = g[same, i].sum() / cnt
    return m


class TestKernelOracle:
    def test_kernels_match_per_object_loops(self):
        rng = np.random.default_rng(11)
        cases = []
        for n in [2, 400, *rng.integers(3, 400, size=30).tolist()]:
            k = int(rng.integers(1, n + 1))
            cases.append((rng.normal(size=(n, n)), rng.integers(1, k + 1, size=n)))
        for n in (3, 17, 250):  # few clusters plus two singletons
            labels = rng.integers(1, 4, size=n)
            labels[:2] = [8, 9]
            cases.append((rng.normal(size=(n, n)), labels))
        for n in (2, 9, 300):  # all singletons
            cases.append((rng.normal(size=(n, n)), rng.permutation(n) + 1))
        for n in (2, 5, 40):
            # asymmetric sentinels g[i][j] = 1000(i+1) + (j+1) pin the
            # column reading
            i, j = np.indices((n, n))
            g = 1000.0 * (i + 1) + (j + 1)
            cases.append((g, np.ones(n, dtype=np.int64)))
            cases.append((g, rng.integers(1, max(2, n // 3), size=n)))
        for g, labels in cases:
            ones = np.ones(g.shape[0], dtype=np.int64)
            assert np.array_equal(cluster_augment_values(g, ones), reference_augment(g))
            assert np.array_equal(
                cluster_augment_values(g, labels), reference_cluster_augment(g, labels)
            )

    def test_stack_matches_slices(self):
        # a (4, n, n) stack under one label vector: each slice must be its
        # own call's, bit for bit
        rng = np.random.default_rng(12)
        cases = []
        for n in [2, 3, 12, 40, 60, *rng.integers(4, 60, size=8).tolist()]:
            k = int(rng.integers(1, n + 1))
            cases.append((rng.normal(size=(4, n, n)), rng.integers(1, k + 1, size=n)))
        for n in (3, 17, 60):  # few clusters plus two singletons
            labels = rng.integers(1, 4, size=n)
            labels[:2] = [8, 9]
            cases.append((rng.normal(size=(4, n, n)), labels))
        for n in (2, 9, 40):  # all singletons
            cases.append((rng.normal(size=(4, n, n)), rng.permutation(n) + 1))
        for n in (2, 5, 40):  # asymmetric sentinels, one per slice
            i, j = np.indices((n, n))
            g = np.stack([1000.0 * (i + 1) + (j + 1) + s / 7 for s in range(4)])
            cases.append((g, np.ones(n, dtype=np.int64)))
            cases.append((g, rng.integers(1, max(2, n // 3), size=n)))
        for g, labels in cases:
            stacked = cluster_augment_values(g, labels)
            assert stacked.shape == (4, g.shape[1], g.shape[1] + 1)
            for m, slice_ in zip(stacked, g):
                assert m.tobytes() == cluster_augment_values(slice_, labels).tobytes()


class TestAugment:
    def test_four_by_four_pattern(self):
        g = symmetric_sentinels()
        m = augment(GramMatrix(g))
        expected = np.array([
            [(12 + 13 + 14) / 3, 12, 13, 14, 101],
            [12, (12 + 23 + 24) / 3, 23, 24, 102],
            [13, 23, (13 + 23 + 34) / 3, 34, 103],
            [14, 24, 34, (14 + 24 + 34) / 3, 104],
        ])
        np.testing.assert_array_equal(m.values, expected)

    def test_kernel_uses_column_direction(self):
        # fully distinct (asymmetric) sentinels pin the index convention:
        # the vacated slot takes the average of its column, g[j,i]
        g = np.array([[float(10 * (i + 1) + (j + 1)) for j in range(4)]
                      for i in range(4)])
        m = cluster_augment_values(g, np.ones(4, dtype=np.int64))
        np.testing.assert_array_equal(
            m[0], [(21 + 31 + 41) / 3, 12, 13, 14, 11]
        )
        np.testing.assert_array_equal(
            m[2], [31, 32, (13 + 23 + 43) / 3, 34, 33]
        )

    def test_derived_three_by_three(self):
        g = GramMatrix(np.array([[2.0, 1, 0], [1, 3, -1], [0, -1, 4]]))
        m = augment(g)
        np.testing.assert_allclose(
            m.values,
            [[0.5, 1, 0, 2], [1, 0, -1, 3], [0, -1, -0.5, 4]],
        )

    def test_last_column_is_diagonal_bit_exact(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(7, 7))
        g = GramMatrix((a + a.T) / 2)
        m = augment(g)
        assert np.array_equal(m.values[:, -1], np.diag(g.values))

    def test_standardized_gram_slots(self):
        # zero column sums force slot (i,i) = -g_ii / (N-1)
        from gramclust import FeatureMatrix, gram, standardize_columns

        rng = np.random.default_rng(4)
        fm = standardize_columns(FeatureMatrix(rng.normal(size=(6, 80))))
        g = gram(fm)
        m = augment(g)
        n = 6
        slots = m.values[np.arange(n), np.arange(n)]
        np.testing.assert_allclose(slots, -np.diag(g.values) / (n - 1), atol=1e-12)


class TestAugmentWithClusters:
    def test_four_by_four_pattern(self):
        g = symmetric_sentinels()
        labels = ClusterAssignment(np.array([1, 1, 2, 2]), 2)
        m = augment_with_clusters(GramMatrix(g), labels)
        slots = m.values[np.arange(4), np.arange(4)]
        # delta = (1,1,2,2): slots are the single same-cluster partner entries
        np.testing.assert_array_equal(slots, [12, 12, 34, 34])
        assert np.array_equal(m.values[:, -1], [101, 102, 103, 104])

    def test_kernel_column_direction_asymmetric(self):
        g = np.array([[float(10 * (i + 1) + (j + 1)) for j in range(4)]
                      for i in range(4)])
        m = cluster_augment_values(g, np.array([1, 1, 2, 2]))
        slots = m[np.arange(4), np.arange(4)]
        # column reading: slot i averages g[j,i] over same-cluster j != i
        np.testing.assert_array_equal(slots, [21, 12, 43, 34])

    def test_all_equal_labels_matches_augment(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        g = GramMatrix((a + a.T) / 2)
        labels = ClusterAssignment(np.ones(6, dtype=np.int64), 1)
        assert np.array_equal(augment_with_clusters(g, labels).values, augment(g).values)

    def test_singleton_fallback(self):
        g = GramMatrix(np.array([[2.0, 1, 0], [1, 3, -1], [0, -1, 4]]))
        labels = ClusterAssignment(np.array([1, 1, 2]), 2)
        m = augment_with_clusters(g, labels)
        slots = m.values[np.arange(3), np.arange(3)]
        np.testing.assert_allclose(slots, [1.0, 1.0, -0.5])


class TestAugmentedGramStorage:
    def test_writable_input_copied(self):
        src = np.zeros((3, 4))
        m = AugmentedGram(src)
        src[0, 0] = 9.0
        assert m.values[0, 0] == 0.0

    def test_read_only_view_copied(self):
        base = np.zeros((4, 4))
        base.setflags(write=False)
        m = AugmentedGram(base[1:])
        assert not np.shares_memory(m.values, base)

    def test_frozen_owned_array_adopted(self):
        a = np.zeros((3, 4))
        a.setflags(write=False)
        assert AugmentedGram(a).values is a

    def test_frozen_wrong_shape_rejected(self):
        a = np.zeros((3, 3))
        a.setflags(write=False)
        with pytest.raises(ValueError):
            AugmentedGram(a)


class TestExpectedRows:
    def test_opposed_unit_means(self):
        p = 16
        spec = MixtureSpec(
            k0=2, weights=[0.5, 0.5],
            means=np.vstack([np.ones(p), -np.ones(p)]),
            variances=np.ones((2, p)),
        )
        labels = ClusterAssignment(np.array([1, 2]), 2)
        expectations = expected_rows(spec, labels)
        assert expectations.pairwise[0, 1] == pytest.approx(-1.0)
        assert expectations.diagonal[0] == pytest.approx(2.0)
        assert expectations.diagonal[1] == pytest.approx(2.0)

    def test_zero_means(self):
        p = 8
        spec = MixtureSpec(
            k0=2, weights=[0.5, 0.5],
            means=np.zeros((2, p)),
            variances=np.full((2, p), 0.25),
        )
        labels = ClusterAssignment(np.array([1, 2, 1]), 2)
        expectations = expected_rows(spec, labels)
        np.testing.assert_allclose(expectations.pairwise, np.zeros((2, 2)))
        np.testing.assert_allclose(expectations.diagonal, [0.25, 0.25])

    def test_interleaved_means(self):
        mu_a = np.array([1.0, 0.0, 1.0, 0.0])
        mu_b = np.array([0.0, 1.0, 0.0, 1.0])
        spec = MixtureSpec(
            k0=2, weights=[0.5, 0.5],
            means=np.vstack([mu_a, mu_b]),
            variances=np.vstack([np.ones(4), np.ones(4)]),
        )
        labels = ClusterAssignment(np.array([1, 2]), 2)
        expectations = expected_rows(spec, labels)
        assert expectations.pairwise[0, 1] == pytest.approx(0.0)
        assert expectations.diagonal[0] == pytest.approx(1.5)

    def test_same_label_rows_identical(self):
        rng = np.random.default_rng(6)
        spec = MixtureSpec(
            k0=3, weights=[0.3, 0.3, 0.4],
            means=rng.normal(size=(3, 20)),
            variances=rng.uniform(0.1, 2.0, size=(3, 20)),
        )
        labels = ClusterAssignment(np.array([1, 2, 1, 3, 2, 1]), 3)
        expectations = expected_rows(spec, labels)
        assert np.array_equal(expectations.row_means[0], expectations.row_means[2])
        assert np.array_equal(expectations.row_means[0], expectations.row_means[5])
        assert np.array_equal(expectations.row_means[1], expectations.row_means[4])


class TestSeparability:
    def test_identical_clusters_zero_gap(self):
        p = 10
        spec = MixtureSpec(
            k0=2, weights=[0.5, 0.5],
            means=np.vstack([np.ones(p), np.ones(p)]),
            variances=np.ones((2, p)),
        )
        labels = ClusterAssignment(np.array([1, 2, 1, 2]), 2)
        report = separability_diagnostic(expected_rows(spec, labels))
        assert report.min_gap == pytest.approx(0.0)

    def test_two_object_layout(self):
        # mu_a = 1_P, mu_b = -1_P, unit variances, one object per cluster:
        # rows are (1, -1, 2) and (-1, 1, 2) -> gap = 2*sqrt(2)
        p = 12
        spec = MixtureSpec(
            k0=2, weights=[0.5, 0.5],
            means=np.vstack([np.ones(p), -np.ones(p)]),
            variances=np.ones((2, p)),
        )
        labels = ClusterAssignment(np.array([1, 2]), 2)
        expectations = expected_rows(spec, labels)
        np.testing.assert_allclose(expectations.cluster_rows[0], [1.0, -1.0, 2.0])
        np.testing.assert_allclose(expectations.cluster_rows[1], [-1.0, 1.0, 2.0])
        report = separability_diagnostic(expectations)
        assert report.min_gap == pytest.approx(2.0 * np.sqrt(2.0))
        assert report.pair == (1, 2)

    def test_scaling_means_grows_gap(self):
        p = 10
        base_means = np.vstack([np.linspace(0.2, 1.0, p), -np.linspace(0.2, 1.0, p)])
        labels = ClusterAssignment(np.array([1, 2, 1, 2]), 2)
        spec1 = MixtureSpec(k0=2, weights=[0.5, 0.5], means=base_means,
                            variances=np.ones((2, p)))
        spec2 = MixtureSpec(k0=2, weights=[0.5, 0.5], means=2.0 * base_means,
                            variances=np.ones((2, p)))
        t1 = expected_rows(spec1, labels)
        t2 = expected_rows(spec2, labels)
        np.testing.assert_allclose(t2.pairwise, 4.0 * t1.pairwise, rtol=1e-12)
        g1 = separability_diagnostic(t1).min_gap
        g2 = separability_diagnostic(t2).min_gap
        assert g2 > g1 > 0

    def test_single_cluster_rejected(self):
        spec = MixtureSpec(k0=1, weights=[1.0], means=np.ones((1, 5)),
                           variances=np.ones((1, 5)))
        labels = ClusterAssignment(np.array([1, 1]), 1)
        with pytest.raises(SingleClusterError):
            separability_diagnostic(expected_rows(spec, labels))


class TestMonteCarloMean:
    def test_cluster_aware_matrix_concentrates(self):
        # R = 200 replicates, N = 10, P = 500: every entry of the MC mean
        # of the cluster-aware matrix sits within 4 standard errors
        spec = MixtureSpec(
            k0=2, weights=[0.5, 0.5],
            means=np.vstack([np.ones(500), -np.ones(500)]),
            variances=np.ones((2, 500)),
            seed=2024,
        )
        report = expectation_check(spec, 10, 200)
        assert report.max_dev_aug < 4.0
