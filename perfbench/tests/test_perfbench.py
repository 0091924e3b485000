"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
from spans import Span, Tracer, layer_self_times, self_times, union_length
from workloads import WORKLOADS, Input

ROOT = run.ROOT

TINY = {
    "wide": dataclasses.replace(WORKLOADS["wide"], n=12, p=300),
    "tall": dataclasses.replace(WORKLOADS["tall"], n=30, p=60),
    "simulate": dataclasses.replace(WORKLOADS["simulate"], n=6, reps=30,
                                    p_grid=(20, 40)),
}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Self-time arithmetic on a hand-built span tree
# ---------------------------------------------------------------------------


def _span(sid, name, layer, start, end, parent, thread=1, call=1):
    return Span(sid, name, layer, float(start), float(end), parent, thread, call)


# root [0, 10] on the main thread
#   read  [1, 3]
#   sweep [3, 9]
#     fit A [4, 7] on worker thread 2, with child augment [4.5, 5.5]
#     fit B [5, 8] on worker thread 3, overlapping fit A
#     late  [8.5, 11] sticks out past its parent and is clipped to [8.5, 9]
TREE = [
    _span(1, "cli.main", "cli", 0, 10, None),
    _span(2, "cli.read_feature_csv", "data", 1, 3, 1),
    _span(3, "cli.cluster_features", "select", 3, 9, 1),
    _span(4, "select.cem_fit", "mixture", 4, 7, 3, thread=2),
    _span(5, "mixture.augment_with_clusters", "transform", 4.5, 5.5, 4, thread=2),
    _span(6, "select.cem_fit", "mixture", 5, 8, 3, thread=3),
    _span(7, "select.cut_tree", "hierarchy", 8.5, 11, 3, thread=3),
]


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (1.5, 2.5)]) == 3.0
    assert union_length([(0, 5), (1, 2)]) == 5.0


def test_self_times_with_overlapping_worker_spans():
    selfs = self_times(TREE)
    assert selfs[1] == pytest.approx(10 - 8)        # minus [1, 3] and [3, 9]
    assert selfs[2] == pytest.approx(2)
    # the two fits overlap: their union [4, 8] counts once, plus [8.5, 9]
    assert selfs[3] == pytest.approx(6 - 4 - 0.5)
    assert selfs[4] == pytest.approx(3 - 1)
    assert selfs[5] == pytest.approx(1)
    assert selfs[6] == pytest.approx(3)
    assert selfs[7] == pytest.approx(2.5)


def test_layer_sums_and_cem_wall():
    layers = layer_self_times(TREE)
    assert layers["mixture"] == pytest.approx(2 + 3)   # busy: both fits count
    assert layers["select"] == pytest.approx(1.5)
    metrics = spans.per_layer_metrics(TREE, {"mixture.fits": 2,
                                             "mixture.degenerate_fits": 1}, calls=1)
    assert metrics["mixture.cem_fit_busy_s"] == (pytest.approx(5.0), "s")
    assert metrics["mixture.cem_fit_wall_s"] == (pytest.approx(4.0), "s")
    assert metrics["mixture.useful_fit_frac"] == (0.5, "1")
    assert metrics["transform.cluster_augment_calls"] == (1.0, "count")


def test_trace_overhead_pairs_adjacent_rounds():
    def call(seconds, traced, warmup=False):
        return {"seconds": seconds, "traced": traced, "warmup": warmup}

    # a slow spell doubles every time in rounds 3 and 4; pairing cancels it
    calls = [call(9.0, False, warmup=True),
             call(1.0, False), call(2.0, False), call(1.1, True), call(2.2, True),
             call(2.0, False), call(4.0, False), call(2.2, True), call(4.4, True)]
    assert run.paired_overhead(calls, per_round=2) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        run.paired_overhead(calls[:1] + calls[3:5] + calls[1:3], per_round=2)


def test_missing_wrapper_target_is_logged_absent(monkeypatch):
    import gramclust.select
    import gramclust.synth

    original = gramclust.select.gram
    monkeypatch.delattr(gramclust.synth, "gram_values")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["synth.gram_values"]
        assert gramclust.select.gram is not original
    finally:
        tracer.uninstall()
    assert gramclust.select.gram is original


# ---------------------------------------------------------------------------
# Every workload runs and emits every named metric with its unit
# ---------------------------------------------------------------------------


def test_benchmark_json_lists_the_workloads():
    declared = _benchmark_json()["workloads"]
    assert [(w["name"], w["why"]) for w in declared] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_emits_every_metric(tmp_path, name, trace):
    report = run.run(TINY[name], seed=3, seconds=0.01, trace=trace,
                     directory=str(tmp_path / name), import_repeats=1)
    assert report["failed"] == 0, report["failures"]
    assert report["attempted"] >= 2
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert sorted(report["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = report["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    env = report["env"]
    assert env["nproc"] >= 1 and env["threads"] >= 1
    assert env["threads"] <= env["nproc"]
    if trace:
        assert report["absent"] == []
    else:
        assert report["metrics"]["wall_p50_s"]["value"] > 0
        assert report["metrics"]["setup_s"]["value"] > 0
        if TINY[name].command == "cluster":
            assert 0 <= report["quality"]["k_exact_frac"] <= 1


def test_traced_worker_spans_hang_under_the_sweep(tmp_path):
    directory = tmp_path / "tall"
    run.run(TINY["tall"], seed=5, seconds=0.01, trace=True,
            directory=str(directory), import_repeats=1)
    with open(directory / "spans.json") as fh:
        rows = spans.spans_from_json(json.load(fh))
    by_id = {s.sid: s for s in rows}
    fits = [s for s in rows if s.name == "select.cem_fit"]
    assert fits
    assert all(by_id[s.parent].name == "cli.cluster_features" for s in fits)
    augments = [s for s in rows if s.name == "mixture.augment_with_clusters"]
    assert all(by_id[s.parent].name == "select.cem_fit" for s in augments)


def test_checks_catch_bad_artifacts(tmp_path):
    directory = tmp_path / "wide"
    workload = TINY["wide"]
    run.run(workload, seed=3, seconds=0.01, trace=False,
            directory=str(directory), import_repeats=1)
    with open(directory / "child-result.json") as fh:
        calls = json.load(fh)["calls"]
    inputs = [Input(path="", k0=k0, n=workload.n) for k0 in workload.k0s]
    assert run.check_calls("cluster", inputs, calls)["failures"] == []

    # call 0 is the warm-up on input 0; calls 1..3 are the first round
    with open(os.path.join(calls[1]["out"], "bic_trace.csv"), "a") as fh:
        fh.write("\n")
    with open(os.path.join(calls[2]["out"], "assignments.csv")) as fh:
        rows = fh.readlines()
    with open(os.path.join(calls[2]["out"], "assignments.csv"), "w") as fh:
        fh.writelines(rows[:-1])
    calls[3] = dict(calls[3], rc=1)
    failures = dict(run.check_calls("cluster", inputs, calls)["failures"])
    assert sorted(failures) == [1, 2, 3]
    assert "differ from the first call" in failures[1][0]
    assert "rows, expected" in failures[2][0]
    assert failures[3] == ["exit code 1"]


def test_simulate_check_enforces_the_bound(tmp_path):
    points = [{"p": 10, "mse_mean": 0.5, "bound_sq": 1.0},
              {"p": 20, "mse_mean": 2.0, "bound_sq": 1.0}]
    (tmp_path / "report.json").write_text(json.dumps({"points": points}))
    problems, _ = run.check_simulate_call(str(tmp_path))
    assert len(problems) == 1 and problems[0].startswith("p=20")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
