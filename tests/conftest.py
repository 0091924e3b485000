"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest

from gramclust import MixtureSpec, gen_mixture


def two_cluster_spec(amplitude: float, p: int, seed: int = 0,
                     weights=(0.5, 0.5)) -> MixtureSpec:
    """Two clusters at +/- amplitude in every coordinate, unit variances."""
    return MixtureSpec(
        k0=2,
        weights=list(weights),
        means=np.vstack([amplitude * np.ones(p), -amplitude * np.ones(p)]),
        variances=np.ones((2, p)),
        seed=seed,
    )


def assert_same_fit(a, b):
    """Every field of two FitResults is equal, bit for bit."""
    arrays = lambda f: (
        f.labels.labels, f.params.weights, f.params.means,
        f.params.covariances, f.params.floored,
    )
    for x, y in zip(arrays(a), arrays(b)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert a.labels.k == b.labels.k
    for name in ("loglik", "bic"):
        assert np.float64(getattr(a, name)).tobytes() == np.float64(getattr(b, name)).tobytes()
    for name in ("iterations", "converged", "degenerate", "floor_events"):
        assert getattr(a, name) == getattr(b, name), name


@pytest.fixture
def separated_instance():
    """Moderately separated two-cluster draw where CEM behaves textbook-style."""
    spec = two_cluster_spec(1.0, 200, seed=11)
    fm, truth = gen_mixture(spec, 20)
    return spec, fm, truth
