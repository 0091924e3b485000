"""Tests for contingency, exact expected MI, and AMI."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramclust import ami, contingency, expected_mutual_info
from gramclust.errors import LengthMismatchError

# ---------------------------------------------------------------------------
# Independent oracle: average MI over every permutation of one labeling.
# Results are cached on the marginal multisets (the average provably depends
# on nothing else), which keeps exhaustive sweeps fast without touching the
# closed-form code path under test.
# ---------------------------------------------------------------------------

_PERM_CACHE: dict = {}
_ORACLE_CACHE: dict = {}


def _perms(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))))
    return _PERM_CACHE[n]


def emi_bruteforce(u, v) -> float:
    u = np.asarray(u)
    v = np.asarray(v)
    n = len(u)
    _, ui = np.unique(u, return_inverse=True)
    _, vi = np.unique(v, return_inverse=True)
    a = np.bincount(ui)
    b = np.bincount(vi)
    key = (n, tuple(sorted(a)), tuple(sorted(b)))
    if key in _ORACLE_CACHE:
        return _ORACLE_CACHE[key]
    r, c = len(a), len(b)
    perms = _perms(n)
    codes = ui[None, :] * c + vi[perms]
    offsets = (np.arange(len(perms)) * (r * c))[:, None]
    counts = np.bincount(
        (codes + offsets).ravel(), minlength=len(perms) * r * c
    ).reshape(len(perms), r, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = counts / n * (
            np.log(counts * n) - np.log(a[None, :, None] * b[None, None, :])
        )
    terms = np.where(counts > 0, terms, 0.0)
    value = float(terms.sum(axis=(1, 2)).mean())
    _ORACLE_CACHE[key] = value
    return value


def all_partitions(n: int):
    """Every partition of n items as a canonical label vector."""

    def rec(prefix, mx):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            yield from rec(prefix + [v], max(mx, v))

    yield from rec([0], 0)


class TestContingency:
    def test_identical(self):
        t = contingency([1, 1, 2, 2], [1, 1, 2, 2])
        np.testing.assert_array_equal(t, [[2, 0], [0, 2]])

    def test_one_row(self):
        t = contingency([1, 1, 1, 1], [1, 2, 1, 2])
        np.testing.assert_array_equal(t, [[2, 2]])

    def test_mixed(self):
        t = contingency([1, 1, 2, 2], [1, 2, 2, 2])
        np.testing.assert_array_equal(t, [[1, 1], [0, 2]])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            contingency([1, 2], [1, 2, 3])


class TestExpectedMI:
    def test_matches_bruteforce_exhaustive_small(self):
        for n in (2, 3, 4, 5):
            parts = list(all_partitions(n))
            for u in parts:
                for v in parts:
                    t = contingency(u, v)
                    exact = expected_mutual_info(
                        t.sum(axis=1), t.sum(axis=0), n
                    )
                    assert exact == pytest.approx(
                        emi_bruteforce(u, v), abs=1e-10
                    ), (u, v)

    def test_matches_bruteforce_random_n8(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            u = rng.integers(1, rng.integers(2, n + 1) + 1, size=n)
            v = rng.integers(1, rng.integers(2, n + 1) + 1, size=n)
            t = contingency(u, v)
            exact = expected_mutual_info(t.sum(axis=1), t.sum(axis=0), n)
            assert exact == pytest.approx(emi_bruteforce(u, v), abs=1e-10)

    def test_trivial_partition_gives_zero(self):
        assert expected_mutual_info([4], [2, 2], 4) == pytest.approx(0.0, abs=1e-15)


class TestAmi:
    def test_identical_nontrivial_is_exactly_one(self):
        for u in ([1, 1, 2, 2], [1, 2, 3], [1, 1, 1, 2, 3, 3, 2]):
            assert ami(u, u) == 1.0

    def test_one_cluster_vs_any(self):
        assert ami([1, 1, 1, 1], [1, 2, 1, 2]) == pytest.approx(0.0, abs=1e-15)

    def test_both_trivial_identical(self):
        assert ami([1, 1, 1], [1, 1, 1]) == 1.0

    def test_frozen_derived_case(self):
        # n=4 crossing partitions: MI = 0 and the exhaustive permutation
        # average of MI is 0.23104906018664842, so AMI = -0.5 under both
        # normalizations
        u, v = [1, 1, 2, 2], [1, 2, 1, 2]
        t = contingency(u, v)
        emi = expected_mutual_info(t.sum(axis=1), t.sum(axis=0), 4)
        assert emi == pytest.approx(0.23104906018664842, abs=1e-12)
        assert ami(u, v) == pytest.approx(-0.5, abs=1e-12)
        assert ami(u, v, normalization="max") == pytest.approx(-0.5, abs=1e-12)

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            u = rng.integers(1, 4, size=n)
            v = rng.integers(1, 5, size=n)
            assert ami(u, v) == ami(v, u)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_relabel_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))
        u = rng.integers(1, 4, size=n)
        v = rng.integers(1, 4, size=n)
        relabel = {1: 17, 2: 3, 3: 8}
        u2 = np.array([relabel[x] for x in u])
        base = ami(u, v)
        assert abs(ami(u2, v) - base) < 1e-12
        assert abs(ami(u, np.array([relabel[x] for x in v])) - base) < 1e-12

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            u = rng.integers(1, 6, size=n)
            v = rng.integers(1, 6, size=n)
            assert ami(u, v) <= 1.0

    def test_independent_partitions_center_on_zero(self):
        rng = np.random.default_rng(7)
        vals = []
        for _ in range(1000):
            u = rng.integers(1, 4, size=50)
            v = rng.integers(1, 4, size=50)
            vals.append(ami(u, v))
        assert abs(float(np.mean(vals))) < 0.02

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ami([1, 2, 1], [1, 2])

    def test_string_labels_accepted(self):
        assert ami(["a", "a", "b", "b"], [2, 2, 9, 9]) == 1.0
