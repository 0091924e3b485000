"""Shared fixtures and helpers for the test suite."""

import tracemalloc

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


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn`` runs; numpy reports its buffers to
    tracemalloc, so the figure is deterministic."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def simulation_plan(**over):
    """A valid simulate plan, as a JSON-ready dict, with ``over`` applied."""
    plan = {
        "k0": 2,
        "weights": [0.5, 0.5],
        "mean_patterns": [[1.0], [-1.0]],
        "variance_patterns": [[0.0], [0.0]],
        "n": 6,
        "reps": 30,
        "p_grid": [50, 100],
        "seed": 3,
    }
    plan.update(over)
    return plan


# Edits that make simulation_plan() invalid. json writes NaN and Infinity,
# and json.load reads them back.
NON_FINITE_PLAN_EDITS = [
    {"weights": [float("nan"), 0.5]},
    {"mean_patterns": [[float("nan")], [-1.0]]},
    {"variance_patterns": [[float("inf")], [1.0]]},
]
# Edits whose numbers are finite but make the deviation bound overflow.
OVERFLOW_PLAN_EDITS = [
    {"mean_patterns": [[1e200], [-1.0]]},
    {"variance_patterns": [[1e300], [1.0]]},
]
UNUSABLE_PLAN_EDITS = [
    # every cluster needs 2 members: n >= 2 * k0 and no zero weight
    {"n": 3}, {"weights": [1.0, 0.0]},
    # counts and the seed are never truncated; a seed is never negative
    {"n": 4.7}, {"reps": 30.9}, {"p_grid": [50.5]}, {"seed": 7.2},
    {"k0": 2.5}, {"n": "6"}, {"seed": -1},
    # a pattern is never empty, and every entry is checked, not only the
    # first min(p_grid) of each
    {"mean_patterns": [[], [-1.0]]}, {"variance_patterns": [[1.0], []]},
    {"mean_patterns": [[1.0, 2.0, float("nan")], [-1.0]], "p_grid": [2, 100]},
    {"variance_patterns": [[1.0], [1.0, -1.0]], "p_grid": [1, 50]},
    # grid points are distinct and >= 1
    {"p_grid": [0, 50]}, {"p_grid": [50, 50]},
    # an unknown key is rejected, not ignored
    {"sede": 7},
    # a boolean is not a whole number, even where 1 would be valid
    {"k0": True}, {"seed": True}, {"p_grid": [True, 50]},
    {"k0": True, "weights": [1.0], "mean_patterns": [[1.0]], "variance_patterns": [[0.0]]},
]
# Edits that put a string where a list is expected, or a bool or a string
# where a number is: none is read as the list of its characters or as 1.
MISTYPED_PLAN_EDITS = [
    {"mean_patterns": ["33", "12"]},
    {"k0": 1, "weights": "1", "mean_patterns": [[1.0]], "variance_patterns": [[0.0]]},
    {"k0": 1, "weights": [True], "mean_patterns": [[1.0]], "variance_patterns": [[0.0]]},
    {"mean_patterns": [[True], [-1.0]]}, {"variance_patterns": [[0.0], [False]]},
    {"weights": ["0.5", "0.5"]}, {"mean_patterns": [["1"], [-1.0]]},
    {"p_grid": "50"},
]


def assert_same_fit(a, b):
    """Every field of two FitResults is equal, bit for bit."""
    x, y = a.labels.labels, b.labels.labels
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()
    assert a.labels.k == b.labels.k
    for name in ("loglik", "bic"):
        assert np.float64(getattr(a, name)).tobytes() == np.float64(getattr(b, name)).tobytes()
    for name in ("iterations", "converged", "degenerate", "degenerate_reason", "floor_events"):
        assert getattr(a, name) == getattr(b, name), name


@pytest.fixture
def separated_instance():
    """Moderately separated two-cluster draw where CEM behaves textbook-style."""
    spec = two_cluster_spec(1.0, 200, seed=11)
    fm, truth = gen_mixture(spec, 20)
    return spec, fm, truth
