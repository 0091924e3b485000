"""Tests for Ward agglomeration, tree cutting, and label canonicalization."""

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage

from gramclust import MixtureSpec, augment, gen_mixture, gram
from gramclust.errors import KOutOfRangeError
from gramclust.hierarchy import (
    ClusterAssignment,
    Dendrogram,
    canonicalize_labels,
    cut_tree,
    ward_linkage,
)


def replay_with_direct_costs(points, dendrogram):
    """Oracle: replay the merge sequence, recomputing each cost as the
    within-cluster sum-of-squares increase from the raw point sets."""
    points = np.asarray(points, dtype=float)
    n = len(points)

    def ssq(members):
        sub = points[sorted(members)]
        c = sub.mean(axis=0)
        return float(((sub - c) ** 2).sum())

    members = {i: {i} for i in range(n)}
    costs = []
    for t, (a, b, _, _) in enumerate(dendrogram.merges):
        a, b = int(a), int(b)
        union = members[a] | members[b]
        costs.append(ssq(union) - ssq(members[a]) - ssq(members[b]))
        members[n + t] = union
    return np.asarray(costs)


def reference_canonicalize(labels):
    """First-occurrence dict loop: oracle for canonicalize_labels."""
    seq = np.asarray(labels).ravel()
    out = np.empty(seq.shape[0], dtype=np.int64)
    mapping = {}
    for i, v in enumerate(seq.tolist()):
        if v not in mapping:
            mapping[v] = len(mapping) + 1
        out[i] = mapping[v]
    return out, len(mapping)


def reference_cut_tree(d, k):
    """Per-object root walk over the first n-k merges: oracle for cut_tree."""
    n = d.n_points
    parent = list(range(2 * n - 1))
    for t in range(n - k):
        a, b = int(d.merges[t, 0]), int(d.merges[t, 1])
        parent[a] = n + t
        parent[b] = n + t
    roots = []
    for i in range(n):
        j = i
        while parent[j] != j:
            j = parent[j]
        roots.append(j)
    return reference_canonicalize(roots)


class TestKernelOracle:
    def test_canonicalize_matches_loop(self):
        rng = np.random.default_rng(21)
        cases = [
            [],
            [5],
            ["b", "a", "b", "c", "a"],
            ["x10", "x2", "x10", "X2"],
            [-1, 0, -1, 3, -7, 0],
            rng.choice(["a", "bb", "ab", "B"], size=100),
            rng.normal(size=50).round(),
        ]
        for n in (1, 2, 30, 400):
            for high in (2, 5, 50):
                cases.append(rng.integers(-high, high, size=n))
        for labels in cases:
            canon, k = canonicalize_labels(labels)
            ref, ref_k = reference_canonicalize(labels)
            assert k == ref_k
            assert canon.dtype == np.int64
            assert np.array_equal(canon, ref)

    def test_cut_tree_matches_root_walk(self):
        rng = np.random.default_rng(22)
        for n in [2, 3, 5, 400, *rng.integers(4, 200, size=5).tolist()]:
            pts = rng.normal(size=(n, 4))
            if n % 2:
                pts = pts.round()  # duplicate points: zero-cost merges
            d = ward_linkage(pts)
            for k in range(1, n + 1):
                got = cut_tree(d, k)
                ref, ref_k = reference_cut_tree(d, k)
                assert got.k == ref_k
                assert np.array_equal(got.labels, ref)


class TestCanonicalize:
    def test_first_occurrence_order(self):
        canon, k = canonicalize_labels([7, 7, 3, 7, 9, 3])
        assert k == 3
        np.testing.assert_array_equal(canon, [1, 1, 2, 1, 3, 2])

    def test_from_raw_strings(self):
        a = ClusterAssignment.from_raw(["b", "a", "b"])
        np.testing.assert_array_equal(a.labels, [1, 2, 1])
        assert a.k == 2

    def test_range_validated(self):
        with pytest.raises(ValueError):
            ClusterAssignment(np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            ClusterAssignment(np.array([1, 3]), 2)


class TestWardLinkage:
    def test_duplicates_merge_first_at_zero(self):
        pts = np.array([[1.0, 1.0], [5.0, 0.0], [1.0, 1.0]])
        d = ward_linkage(pts)
        a, b, cost, size = d.merges[0]
        assert {int(a), int(b)} == {0, 2}
        assert cost == 0.0
        assert size == 2

    def test_four_point_example(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        d = ward_linkage(pts)
        # both tight pairs cost 0.5; the tie merges in scipy's order
        assert {int(d.merges[0][0]), int(d.merges[0][1])} == {0, 1}
        assert d.merges[0][2] == pytest.approx(0.5)
        assert {int(d.merges[1][0]), int(d.merges[1][1])} == {2, 3}
        assert d.merges[1][2] == pytest.approx(0.5)
        assert d.merges[2][2] == pytest.approx(200.0)

    def test_two_points(self):
        pts = np.array([[1.0, 2.0], [4.0, 6.0]])
        d = ward_linkage(pts)
        assert d.merges[0][2] == pytest.approx(((pts[0] - pts[1]) ** 2).sum() / 2)

    def test_lance_williams_matches_direct_ssq(self):
        rng = np.random.default_rng(42)
        cases = [
            rng.normal(size=(int(rng.integers(4, 21)), int(rng.integers(2, 6))))
            for _ in range(10)
        ]
        cases.append(rng.normal(size=(150, 6)))
        for pts in cases:
            d = ward_linkage(pts)
            direct = replay_with_direct_costs(pts, d)
            np.testing.assert_allclose(d.merges[:, 2], direct, rtol=1e-9, atol=1e-9)

    def test_costs_nondecreasing(self):
        rng = np.random.default_rng(7)
        for n in (25, 150):
            pts = rng.normal(size=(n, 4))
            d = ward_linkage(pts)
            costs = d.merges[:, 2]
            assert np.all(np.diff(costs) >= -1e-9 * np.maximum(1.0, costs[:-1]))

    def test_matches_scipy_pdist_route(self):
        # N + 1 columns, as select passes; both sizes span several row blocks
        rng = np.random.default_rng(27)
        spec = MixtureSpec(k0=2, weights=[0.5, 0.5],
                           means=np.vstack([np.ones(300), -np.ones(300)]),
                           variances=np.ones((2, 300)), seed=27)
        fm, _ = gen_mixture(spec, 400)
        for pts in (rng.normal(size=(150, 151)), augment(gram(fm)).values):
            d = ward_linkage(pts)
            ref = linkage(pts, method="ward")
            np.testing.assert_array_equal(d.merges[:, [0, 1, 3]], ref[:, [0, 1, 3]])
            np.testing.assert_allclose(d.merges[:, 2], ref[:, 2] ** 2 / 2, rtol=1e-9)

    def test_identical_rows_across_blocks_merge_first(self):
        rng = np.random.default_rng(28)
        pts = rng.normal(size=(150, 151))
        pts[140] = pts[3]
        pts[130] = pts[70]
        d = ward_linkage(pts)
        first = {frozenset(map(int, row[:2])) for row in d.merges[:2]}
        assert first == {frozenset({3, 140}), frozenset({70, 130})}
        assert (d.merges[:2, 3] == 2).all()
        scale = np.max((pts ** 2).sum(axis=1))
        assert np.max(d.merges[:2, 2]) <= 1e-12 * scale

    def test_monotone_cost_check(self):
        def tree(costs):
            merges = [[0, 1, costs[0], 2], [2, 3, costs[1], 2], [4, 5, costs[2], 4]]
            return Dendrogram(merges=np.array(merges, dtype=float), n_points=4)

        with pytest.raises(ValueError, match="nondecreasing"):
            tree([1.0, 2.0, 1.5])
        # a dip within the relative tolerance is floating-point noise
        assert tree([1.0, 2.0e6, 2.0e6 - 1e-4]).merges.shape == (3, 4)
        with pytest.raises(ValueError, match="nondecreasing"):
            tree([1.0, 2.0e6, 2.0e6 - 1e-2])


class TestCutTree:
    def test_k_one_and_k_n(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(6, 3))
        d = ward_linkage(pts)
        np.testing.assert_array_equal(cut_tree(d, 1).labels, np.ones(6))
        np.testing.assert_array_equal(cut_tree(d, 6).labels, np.arange(1, 7))

    def test_four_point_example_k2(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        d = ward_linkage(pts)
        np.testing.assert_array_equal(cut_tree(d, 2).labels, [1, 1, 2, 2])

    def test_out_of_range(self):
        pts = np.random.default_rng(2).normal(size=(4, 2))
        d = ward_linkage(pts)
        with pytest.raises(KOutOfRangeError):
            cut_tree(d, 0)
        with pytest.raises(KOutOfRangeError):
            cut_tree(d, 5)

    def test_nesting_refinement(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(15, 4))
        d = ward_linkage(pts)
        for k in range(2, 16):
            fine = cut_tree(d, k).labels
            coarse = cut_tree(d, k - 1).labels
            # every fine cluster maps into exactly one coarse cluster
            for lbl in range(1, k + 1):
                idx = np.flatnonzero(fine == lbl)
                assert len(set(coarse[idx])) == 1

    def test_all_clusters_nonempty(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(9, 2))
        d = ward_linkage(pts)
        for k in range(1, 10):
            a = cut_tree(d, k)
            assert a.k == k
            assert (np.bincount(a.labels, minlength=k + 1)[1:] > 0).all()
            canon = ClusterAssignment.from_raw(a.labels)
            assert canon.k == k and np.array_equal(canon.labels, a.labels)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(12, 3))  # continuous draws: no ties
        perm = rng.permutation(12)
        d1 = ward_linkage(pts)
        d2 = ward_linkage(pts[perm])
        for k in (2, 3, 5):
            p1 = cut_tree(d1, k).labels
            p2_permuted = cut_tree(d2, k).labels
            p2 = np.empty_like(p2_permuted)
            p2[perm] = p2_permuted
            parts1 = {tuple(sorted(np.flatnonzero(p1 == l))) for l in set(p1)}
            parts2 = {tuple(sorted(np.flatnonzero(p2 == l))) for l in set(p2)}
            assert parts1 == parts2
