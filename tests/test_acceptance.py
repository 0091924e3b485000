"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criterion 8 needs user-supplied benchmark data and is
skipped when it is absent."""

import csv
import functools
import itertools
import json
import math
import os
import statistics
import time

import numpy as np
import pytest

import gramclust as gc
from gramclust.cli import main as cli_main
from gramclust.hierarchy import ClusterAssignment
from gramclust.synth import SimulationPlan, concentration_sweep
from gramclust.transform import cluster_augment_values
from tests.conftest import two_cluster_spec
from tests.test_metrics import all_partitions, emi_bruteforce


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"[SKIP] {label}")
                raise
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")
            return result

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. Transform patterns match the displayed 4x4 rearrangements exactly
# ---------------------------------------------------------------------------


@criterion("criterion 1: 4x4 transform slot placement (exact)")
def test_c1_transform_patterns():
    # symmetric sentinels through the public API
    g = np.zeros((4, 4))
    for i in range(4):
        for j in range(i + 1, 4):
            g[i, j] = g[j, i] = 10 * (i + 1) + (j + 1)
        g[i, i] = 100 + (i + 1)
    m = gc.augment(gc.GramMatrix(g))
    expected = np.array([
        [(12 + 13 + 14) / 3, 12, 13, 14, 101],
        [12, (12 + 23 + 24) / 3, 23, 24, 102],
        [13, 23, (13 + 23 + 34) / 3, 34, 103],
        [14, 24, 34, (14 + 24 + 34) / 3, 104],
    ])
    np.testing.assert_array_equal(m.values, expected)

    md = gc.augment_with_clusters(gc.GramMatrix(g), ClusterAssignment(np.array([1, 1, 2, 2]), 2))
    slots = md.values[np.arange(4), np.arange(4)]
    np.testing.assert_array_equal(slots, [12, 12, 34, 34])
    np.testing.assert_array_equal(md.values[:, -1], [101, 102, 103, 104])
    off = md.values[:, :4].copy()
    off[np.arange(4), np.arange(4)] = g[np.arange(4), np.arange(4)]
    np.testing.assert_array_equal(
        np.where(np.eye(4, dtype=bool), g, off), g
    )

    # fully distinct sentinels through the kernels pin the column reading
    ga = np.array([[float(10 * (i + 1) + (j + 1)) for j in range(4)]
                   for i in range(4)])
    np.testing.assert_array_equal(
        cluster_augment_values(ga, np.ones(4, dtype=np.int64))[0],
        [(21 + 31 + 41) / 3, 12, 13, 14, 11],
    )
    slots = cluster_augment_values(ga, np.array([1, 1, 2, 2]))
    np.testing.assert_array_equal(
        slots[np.arange(4), np.arange(4)], [21, 12, 43, 34]
    )


# ---------------------------------------------------------------------------
# 2. Expected row structure: Monte-Carlo mean within 4 standard errors
# ---------------------------------------------------------------------------


@criterion("criterion 2: cluster-aware matrix entry means within 4 MC SEs "
            "of the expected rows (N=6, P=200, 500 reps)")
def test_c2_row_expectations():
    t0 = time.perf_counter()
    spec = two_cluster_spec(1.0, 200, seed=123)
    report = gc.expectation_check(spec, 6, 500)
    assert report.max_dev_aug < 4.0
    assert report.max_dev_gram < 4.0
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. Concentration bound and O(1/P) squared-error rate
# ---------------------------------------------------------------------------


@criterion("criterion 3: MSE <= bound at P in {100, 1000, 10000}; "
            "log-log slope in [-1.2, -0.8]")
def test_c3_concentration_bound():
    t0 = time.perf_counter()
    plan = SimulationPlan(
        k0=2, weights=(0.5, 0.5),
        mean_patterns=((1.0,), (-1.0,)),
        variance_patterns=((1.0,), (1.0,)),
        n=10, reps=100, p_grid=(100, 1000, 10000), seed=2718,
    )
    report = concentration_sweep(plan)
    for pt in report.points:
        assert pt.mse_mean <= pt.bound_sq, f"bound violated at P={pt.p}"
        assert pt.row_mse_max <= pt.row_bound, f"row bound violated at P={pt.p}"
    assert -1.2 <= report.slope <= -0.8
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# 4. Recovery on separable data (100 seeds)
# ---------------------------------------------------------------------------


@criterion("criterion 4: K_hat=2 and AMI=1.0 on >= 95 of 100 separable seeds")
def test_c4_recovery():
    t0 = time.perf_counter()
    amplitude, n, p = 6.0, 40, 2000
    spec = two_cluster_spec(amplitude, p)
    # instance satisfies the separability precondition: row gap >= 10 * bound
    labels = ClusterAssignment(np.array([1, 2] * (n // 2)), 2)
    gap = gc.separability_diagnostic(gc.expected_rows(spec, labels)).min_gap
    bound = gc.deviation_bound(gc.BoundInputs.from_spec(spec, n))
    assert gap >= 10.0 * bound

    wins = 0
    for s in range(100):
        sp = two_cluster_spec(amplitude, p, seed=20_000 + s)
        fm, truth = gc.gen_mixture(sp, n)
        out = gc.cluster_features(fm, kmax=20, preprocess="standardize")
        wins += out.k_hat == 2 and gc.ami(truth, out.labels) == 1.0
    assert wins >= 95, f"recovered {wins}/100"
    assert time.perf_counter() - t0 < 180.0


# ---------------------------------------------------------------------------
# 5. Gram-matrix invariants on random standardized inputs
# ---------------------------------------------------------------------------


@criterion("criterion 5: G symmetric within 1e-12 and G.1 = 0 within 1e-8*N "
            "on 50 random instances")
def test_c5_gram_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    for _ in range(50):
        n = int(rng.integers(5, 51))
        p = int(rng.integers(100, 5001))
        fm = gc.standardize_columns(gc.FeatureMatrix(rng.normal(size=(n, p))))
        g = gc.gram(fm).values
        assert np.max(np.abs(g - g.T)) < 1e-12
        assert np.max(np.abs(g.sum(axis=0))) < 1e-8 * n
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# 6. Exact expected MI equals the brute-force permutation average
# ---------------------------------------------------------------------------


@criterion("criterion 6: exact E[MI] == permutation average within 1e-10; "
            "AMI symmetric and relabel-invariant")
def test_c6_ami_oracle():
    t0 = time.perf_counter()
    # exhaustive: every pair of partitions for n <= 5
    for n in (2, 3, 4, 5):
        parts = list(all_partitions(n))
        for u, v in itertools.product(parts, parts):
            t = gc.contingency(u, v)
            exact = gc.expected_mutual_info(t.sum(axis=1), t.sum(axis=0), n)
            assert abs(exact - emi_bruteforce(u, v)) < 1e-10

    rng = np.random.default_rng(6283)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        u = rng.integers(1, rng.integers(2, n + 1) + 1, size=n)
        v = rng.integers(1, rng.integers(2, n + 1) + 1, size=n)
        t = gc.contingency(u, v)
        exact = gc.expected_mutual_info(t.sum(axis=1), t.sum(axis=0), n)
        assert abs(exact - emi_bruteforce(u, v)) < 1e-10
        assert gc.ami(u, v) == gc.ami(v, u)
        shift = u + 7
        assert abs(gc.ami(shift, v) - gc.ami(u, v)) < 1e-12
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 7. Full-pipeline wall clock roughly doubles when P doubles
# ---------------------------------------------------------------------------


@criterion("criterion 7: runtime ratio at (N=60, 2P) vs (N=60, P=5000) "
            "within [1.5, 2.5]")
def test_c7_runtime_linear_in_p(tmp_path):
    amplitude, n = 3.0, 60

    def make_csv(p):
        spec = two_cluster_spec(amplitude, p, seed=901)
        fm, _ = gc.gen_mixture(spec, n)
        path = tmp_path / f"p{p}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in fm.values:
                w.writerow([f"{v:.6f}" for v in row])
        return str(path)

    paths = {p: make_csv(p) for p in (5000, 10000)}

    # the sizes alternate call by call, and which goes first alternates by
    # round, so that a change in the host's speed reaches both sizes
    times = {p: [] for p in paths}
    for r in range(5):
        for p in (10000, 5000) if r % 2 == 0 else (5000, 10000):
            out = tmp_path / f"out{p}_{r}"
            t0 = time.perf_counter()
            rc = cli_main(["cluster", paths[p], "--output-dir", str(out),
                           "--preprocess", "standardize"])
            times[p].append(time.perf_counter() - t0)
            assert rc == 0

    ratio = statistics.median(times[10000]) / statistics.median(times[5000])
    assert 1.5 <= ratio <= 2.5, f"ratio {ratio:.3f}"


# ---------------------------------------------------------------------------
# 8. Benchmark reproduction (requires user-downloaded data)
# ---------------------------------------------------------------------------


def _alizadeh_path():
    override = os.environ.get("GRAMCLUST_BENCH_DIR")
    candidates = []
    if override:
        candidates.append(os.path.join(override, "alizadeh-v2.csv"))
    candidates.append(os.path.join(os.path.dirname(__file__), "data", "alizadeh-v2.csv"))
    for c in candidates:
        if os.path.exists(c):
            return c
    return None


@criterion("criterion 8: Alizadeh-v2 AMI >= 0.90 with paper preprocessing")
def test_c8_benchmark_reproduction(tmp_path):
    path = _alizadeh_path()
    if path is None:
        pytest.skip(
            "benchmark CSV not present; place alizadeh-v2.csv (2095 features, "
            "label column) under tests/data/ or set GRAMCLUST_BENCH_DIR"
        )
    out = tmp_path / "out"
    rc = cli_main(["cluster", path, "--output-dir", str(out), "--preprocess", "paper"])
    assert rc == 0
    res = json.loads((out / "result.json").read_text())
    assert res["ami_truth"] is not None
    assert res["ami_truth"] >= 0.90


# ---------------------------------------------------------------------------
# 9. Determinism of artifacts
# ---------------------------------------------------------------------------


@criterion("criterion 9: byte-identical artifacts across reruns "
            "(timings excluded)")
def test_c9_determinism(tmp_path):
    t0 = time.perf_counter()
    spec = two_cluster_spec(3.0, 400, seed=77)
    fm, truth = gc.gen_mixture(spec, 30)
    src = tmp_path / "data.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"f{i}" for i in range(400)] + ["label"])
        for row, lab in zip(fm.values, truth.labels):
            w.writerow([repr(float(v)) for v in row] + [int(lab)])

    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["cluster", str(src), "--output-dir", str(out)])
        assert rc == 0
        assignments = (out / "assignments.csv").read_bytes()
        doc = json.loads((out / "result.json").read_text())
        doc.pop("timings")
        digests.append((assignments, json.dumps(doc, sort_keys=True)))
    assert digests[0] == digests[1]
    assert time.perf_counter() - t0 < 60.0
