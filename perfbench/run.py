"""The gramclust benchmark: CLI wall clock, set-up time, memory and recovery.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {wide,tall,simulate} --seed N \\
        --seconds S --trace {0,1}

It generates the workload's inputs from the seed, times fresh interpreters
importing ``gramclust.cli``, then runs one child process that calls
``gramclust.cli.main`` back to back for S seconds (see child.py). Every
call's outputs are checked. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from alternating traced rounds) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SCHEMA = os.path.join(SRC, "gramclust", "schemas", "result.schema.json")

IMPORT_REPEATS = 10
CHILD_TIMEOUT_S = 150
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gramclust.cli; "
    "print(time.perf_counter() - t)"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every process the benchmark starts: no GRAMCLUST_*
    variable, the checkout's sources first, BLAS pinned to nproc threads."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRAMCLUST_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def thread_args() -> list:
    """Default flags, except that the K-sweep pool is capped at nproc when
    ``threads=auto`` (os.cpu_count()) would start more threads than that."""
    cpus = os.cpu_count() or 1
    return [] if cpus <= nproc() else ["--threads", str(nproc())]


def time_imports(repeats: int, warm_up: bool = False) -> list:
    """Seconds for a fresh interpreter to import gramclust.cli. The optional
    untimed first import also compiles the bytecode."""
    times = []
    for i in range(repeats + int(warm_up)):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i or not warm_up:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_child(job: dict, directory: str) -> dict:
    job_path = os.path.join(directory, "job.json")
    result_path = os.path.join(directory, "child-result.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    with open(os.path.join(directory, "child-stderr.txt"), "w") as err:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), job_path, result_path],
            env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
            timeout=CHILD_TIMEOUT_S,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process exited {proc.returncode}; "
                           f"see {err.name}")
    with open(result_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output checks: a call that fails any of them counts in failed_frac
# ---------------------------------------------------------------------------


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_cluster_call(out: str, n: int, validator) -> tuple:
    """Problems with one cluster call's artifacts, and its result.json."""
    problems = []
    try:
        with open(os.path.join(out, "result.json")) as fh:
            result = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"result.json unreadable: {exc}"], None
    problems += [f"schema: {e.message}" for e in validator.iter_errors(result)]
    k_hat = result.get("k_hat")
    try:
        with open(os.path.join(out, "assignments.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        labels = [int(r[1]) for r in rows]
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"assignments.csv unreadable: {exc}"], result
    if len(labels) != n:
        problems.append(f"assignments.csv has {len(labels)} rows, expected {n}")
    if not isinstance(k_hat, int) or any(not 1 <= lab <= k_hat for lab in labels):
        problems.append("assignments.csv has a label outside 1..k_hat")
    return problems, result


def check_simulate_call(out: str) -> tuple:
    try:
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        points = report["points"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"report.json unreadable: {exc}"], None
    problems = [
        f"p={pt['p']}: mse_mean {pt['mse_mean']} > bound_sq {pt['bound_sq']}"
        for pt in points if not pt["mse_mean"] <= pt["bound_sq"]
    ]
    if len(points) == 0:
        problems.append("report.json has no grid points")
    return problems, report


_REPEATABLE = {
    "cluster": ("assignments.csv", "bic_trace.csv"),
    "simulate": ("concentration.csv", "report.json"),
}


def check_calls(command: str, inputs: list, calls: list) -> dict:
    """Check every call; return the failures and what the outputs say.

    Besides the per-call checks, every call on an input must give the same
    bytes as the first call on that input for the files in _REPEATABLE.
    """
    validator = None
    if command == "cluster":
        import jsonschema

        with open(SCHEMA) as fh:
            validator = jsonschema.Draft7Validator(json.load(fh))
    first_bytes: dict = {}
    results: dict = {}
    failures = []
    for i, call in enumerate(calls):
        inp = inputs[call["input"]]
        if call["rc"] != 0:
            failures.append((i, [f"exit code {call['rc']}"]))
            continue
        if command == "cluster":
            problems, payload = check_cluster_call(call["out"], inp.n, validator)
        else:
            problems, payload = check_simulate_call(call["out"])
        try:
            blobs = tuple(_read(os.path.join(call["out"], f))
                          for f in _REPEATABLE[command])
        except OSError as exc:
            problems.append(f"artifact missing: {exc}")
        else:
            ref = first_bytes.setdefault(call["input"], blobs)
            if blobs != ref:
                problems.append("artifacts differ from the first call on this input")
        results.setdefault(call["input"], payload)
        if problems:
            failures.append((i, problems))
    return {"failures": failures, "results": results}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def recovery(inputs: list, results: dict) -> dict:
    """ami_truth_mean and k_exact_frac over the inputs that produced a
    result.json (cluster workloads only)."""
    got = [(inputs[i], r) for i, r in sorted(results.items()) if r]
    amis = [r["ami_truth"] for _, r in got if r.get("ami_truth") is not None]
    return {
        "ami_truth_mean": statistics.fmean(amis) if amis else None,
        "k_exact_frac": (sum(r["k_hat"] == inp.k0 for inp, r in got) / len(got)
                         if got else None),
    }


def paired_overhead(calls: list, per_round: int) -> float:
    """Median over pairs of calls on the same input, one from an untraced
    round and one from the traced round after it, of traced / untraced
    time, minus 1. Pairing keeps the machine's slow and fast spells, which
    last several calls, out of the ratio."""
    timed = [c for c in calls if not c["warmup"]]
    ratios = []
    for start in range(0, len(timed) - per_round, 2 * per_round):
        for i in range(start, start + per_round):
            plain, traced = timed[i], timed[i + per_round]
            if plain["traced"] or not traced["traced"]:
                raise ValueError("rounds do not alternate untraced, traced")
            ratios.append(traced["seconds"] / plain["seconds"])
    return statistics.median(ratios) - 1.0


def _resolved_threads(results: dict):
    for payload in results.values():
        if payload and "config" in payload:
            return payload["config"].get("threads")
    return None


def run(workload, seed: int, seconds: float, trace: bool, directory: str,
        import_repeats: int = IMPORT_REPEATS) -> dict:
    """Run one workload and return the report: metrics, checks, environment."""
    from workloads import make_inputs

    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    t0 = time.perf_counter()
    inputs = make_inputs(workload, seed, os.path.join(directory, "inputs"))
    inputs_s = time.perf_counter() - t0
    # half the imports before the calls and half after, so one quiet or busy
    # moment of the machine does not set the median
    before = 0 if trace else import_repeats // 2
    import_times = time_imports(before, warm_up=not trace)

    job = {
        "command": workload.command,
        "inputs": [inp.path for inp in inputs],
        "extra_args": thread_args(),
        "out_dir": os.path.join(directory, "out"),
        "seconds": seconds,
        "trace": trace,
    }
    child = run_child(job, directory)
    if not trace:
        import_times += time_imports(import_repeats - before)
    calls = child["calls"]
    checked = check_calls(workload.command, inputs, calls)
    failed = len(checked["failures"])

    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(calls),
        "failed": failed,
        "failures": checked["failures"][:20],
        "rounds": child["rounds"],
        "inputs_s": inputs_s,
        "env": {
            "nproc": nproc(),
            "cpu_count": os.cpu_count(),
            "threads": _resolved_threads(checked["results"]),
            "numpy": child["numpy"],
            "scipy": child["scipy"],
            "blas_threads": child["blas_threads"],
            "python": platform.python_version(),
        },
    }
    if trace:
        from spans import layer_self_times, per_layer_metrics, spans_from_json

        spans = spans_from_json(child["spans"])
        traced = [c["seconds"] for c in calls if c["traced"]]
        metrics = per_layer_metrics(spans, child["counts"], len(traced))
        metrics["trace_overhead_frac"] = (paired_overhead(calls, len(inputs)), "1")
        metrics["trace.calls"] = (len(traced), "count")
        metrics["trace.absent_wrappers"] = (len(child["absent"]), "count")
        report["absent"] = child["absent"]
        layers = layer_self_times(spans)
        total = sum(layers.values()) or 1.0
        report["layer_shares"] = {k: v / total for k, v in layers.items()}
        with open(os.path.join(directory, "spans.json"), "w") as fh:
            json.dump(child["spans"], fh)
    else:
        untraced = [c["seconds"] for c in calls if not c["warmup"]]
        metrics = {
            "wall_p50_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(import_times), "s"),
            "peak_rss_mb": (child["peak_rss_kb"] / 1024.0, "MB"),
        }
        report["wall_calls"] = len(untraced)
        report["import_times"] = import_times
        if workload.command == "cluster":
            report["quality"] = recovery(inputs, checked["results"])
        else:
            report["quality"] = {"ami_truth_mean": None, "k_exact_frac": None}
    report["failed_frac"] = failed / len(calls)
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return report


def describe(report: dict) -> list:
    """Human-readable lines: environment, every metric with its unit."""
    env = report["env"]
    lines = [
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"workload {report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} trace={int(report['trace'])}: one closed-loop "
        f"client, {report['rounds']} rounds, {report['attempted']} calls "
        f"(1 warm-up); inputs written in {report['inputs_s']:.2f} s",
    ]
    metrics = dict(report["metrics"])
    if not report["trace"]:
        for name, value in report["quality"].items():
            metrics[name] = {"value": "n/a" if value is None else value, "unit": "1"}
    metrics["failed_frac"] = {"value": report["failed_frac"], "unit": "1"}
    notes = {
        "wall_p50_s": f"median of {report.get('wall_calls')} calls",
        "setup_s": f"median of {len(report.get('import_times', []))} fresh imports",
        "failed_frac": f"{report['failed']} of {report['attempted']} calls",
    }
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        kind = " (computed)" if m["unit"] == "count" else ""
        note = f"  [{notes[name]}]" if name in notes else ""
        lines.append(f"  {name:34s} {shown:>14} {m['unit']}{kind}{note}")
    if report["trace"]:
        lines.append("  self-time share by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(report["layer_shares"].items(),
                                               key=lambda kv: -kv[1])))
    for index, problems in report["failures"]:
        lines.append(f"  call {index} failed: {'; '.join(problems)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gramclust", "cli.py")):
        print(f"no gramclust sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("GRAMCLUST_")]:
        del os.environ[key]

    directory = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 directory)
    for sub in ("inputs", "out"):
        shutil.rmtree(os.path.join(directory, sub), ignore_errors=True)
    with open(os.path.join(directory, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    print("\n".join(describe(report)))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
