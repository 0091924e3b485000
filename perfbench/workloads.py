"""The benchmark's workloads and the inputs they are built from.

Every input is drawn from the run's ``--seed`` with ``gramclust.gen_mixture``
and written to a file; the program under test only ever reads the files.
Why each workload exists is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the ``gramclust`` sub-command they feed.

    ``cluster`` workloads write one CSV per entry of ``k0s`` (a header and
    a ``label`` column with the truth). ``simulate`` writes one plan JSON.
    """

    name: str
    command: str
    n: int
    p: int = 0
    amplitude: float = 0.0
    k0s: tuple = (1, 2, 3)
    reps: int = 0
    p_grid: tuple = ()
    why: str = ""


WORKLOADS = {
    "wide": Workload(
        name="wide", command="cluster", n=60, p=20000, amplitude=3.0,
        why="N=60, P=20000: the P term dominates, so CSV ingest, "
            "preprocessing and the Gram matrix set the call time",
    ),
    "tall": Workload(
        name="tall", command="cluster", n=400, p=2000, amplitude=6.0,
        why="N=400, P=2000: Ward's N^3 tree and the CEM sweep over K set the "
            "call time and peak memory; shows the over-splitting defect",
    ),
    "simulate": Workload(
        name="simulate", command="simulate", n=40, reps=100,
        p_grid=(250, 1000, 4000),
        why="gramclust simulate, k0=3 n=40 reps=100: generator and "
            "cluster-aware transform only, no CSV ingest, Ward or CEM",
    ),
}

_K0_WEIGHTS = {1: [1.0], 2: [0.5, 0.5], 3: [0.4, 0.35, 0.25]}


def mixture_means(k0: int, amplitude: float, p: int) -> np.ndarray:
    """Cluster centres: +a, -a, then +a/-a alternating, in every feature."""
    rows = [
        amplitude * np.ones(p),
        -amplitude * np.ones(p),
        np.where(np.arange(p) % 2 == 0, amplitude, -amplitude),
    ]
    return np.vstack(rows[:k0])


@dataclass(frozen=True)
class Input:
    """One generated input file and what is known about it."""

    path: str
    k0: int
    n: int


def _write_csv(path: str, values: np.ndarray, labels: np.ndarray) -> None:
    p = values.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(f"f{j}" for j in range(1, p + 1)) + ",label\n")
        for row, lab in zip(values, labels):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{int(lab)}\n")


def make_inputs(workload: Workload, seed: int, directory: str) -> list:
    """Write the workload's input files for ``seed`` into ``directory``."""
    import gramclust as gc

    os.makedirs(directory, exist_ok=True)
    if workload.command == "simulate":
        plan = {
            "k0": 3,
            "weights": _K0_WEIGHTS[3],
            "mean_patterns": [[3.0], [-3.0], [3.0, -3.0]],
            "variance_patterns": [[1.0], [2.0], [0.5, 1.5]],
            "n": workload.n,
            "reps": workload.reps,
            "p_grid": list(workload.p_grid),
            "seed": seed,
        }
        path = os.path.join(directory, "plan.json")
        with open(path, "w") as fh:
            json.dump(plan, fh)
        return [Input(path=path, k0=3, n=workload.n)]

    inputs = []
    children = np.random.SeedSequence(seed).spawn(len(workload.k0s))
    for i, (k0, child) in enumerate(zip(workload.k0s, children)):
        spec = gc.MixtureSpec(
            k0=k0,
            weights=_K0_WEIGHTS[k0],
            means=mixture_means(k0, workload.amplitude, workload.p),
            variances=np.ones((k0, workload.p)),
            seed=int(child.generate_state(1)[0]),
        )
        fm, truth = gc.gen_mixture(spec, workload.n)
        path = os.path.join(directory, f"d{i}_k0_{k0}.csv")
        _write_csv(path, fm.values, truth.labels)
        inputs.append(Input(path=path, k0=k0, n=workload.n))
    return inputs
