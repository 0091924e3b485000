"""The measuring process: one closed-loop client of ``gramclust.cli.main``.

Usage: python3 child.py JOB.json RESULT.json

JOB.json names the sub-command, the input files, an output directory, the
measuring time in seconds and whether to trace. The process makes one
untimed warm-up call, then whole rounds over the inputs, each call starting
after the previous one ends, until the time is used up. With tracing on,
rounds alternate untraced and traced, so both halves see the same inputs and
the same drift. RESULT.json gets every call, the peak RSS of this process,
the library versions and, when traced, the spans.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time
import traceback

from spans import Tracer, spans_to_json


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if len(line.split()) >= 6}
    for path in sorted(p for p in paths if "openblas" in p.lower() and ".so" in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run(job: dict) -> dict:
    import numpy
    import scipy
    from gramclust.cli import main as cli_main

    tracer = Tracer() if job["trace"] else None
    calls = []

    def invoke(index: int, traced: bool, warmup: bool = False) -> None:
        out = os.path.join(job["out_dir"], f"call{len(calls):04d}")
        argv = [job["command"], job["inputs"][index], "--output-dir", out]
        argv += job["extra_args"]
        start = time.perf_counter()
        try:
            rc = tracer.call(cli_main, argv) if traced else cli_main(argv)
        except Exception:  # a crash is a failed call, not the end of the run
            traceback.print_exc()
            rc = -1
        seconds = time.perf_counter() - start
        calls.append({"input": index, "rc": rc, "seconds": seconds,
                      "traced": traced, "warmup": warmup, "out": out})

    invoke(0, traced=False, warmup=True)
    deadline = time.perf_counter() + job["seconds"]
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for index in range(len(job["inputs"])):
                invoke(index, traced)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        if time.perf_counter() >= deadline and (tracer is None or rounds % 2 == 0):
            break

    result = {
        "calls": calls,
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        for name in tracer.absent:
            print(f"trace: layer {name} absent, not wrapped", file=sys.stderr)
        result.update(spans=spans_to_json(tracer.spans), counts=tracer.counts,
                      absent=tracer.absent)
    return result


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    result = run(job)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
