"""Span recording from outside the program, and the per-layer arithmetic.

The tracer replaces public module attributes of ``gramclust`` with thin
wrappers that record one span per call: name, layer, start, end, parent
span, thread and the id of the benchmark call it belongs to. Spans stay in
memory until the run ends. A wrapped call made on a worker thread with no
open span of its own takes as parent the innermost open span of the thread
that started the benchmark call, which is the span that caused it.

Self time is a span's duration minus the union of its children's
intervals, so two overlapping children on worker threads are not counted
twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    call: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gram_flops(args, result) -> dict:
    n, p = args[0].values.shape
    return {"data.gram_flops": 2 * n * n * p}


def _csv_counts(args, result) -> dict:
    return {
        "data.csv_bytes": os.path.getsize(args[0]),
        "data.cells": int(result.matrix.values.size),
    }


def _merge_count(args, result) -> dict:
    return {"hierarchy.merges": int(result.merges.shape[0])}


def _fit_counts(args, result) -> dict:
    return {
        "mixture.fits": 1,
        "mixture.iterations": int(result.iterations),
        "mixture.degenerate_fits": int(result.degenerate),
    }


# (module, attribute, layer, count hook). The span name is "module.attribute".
# Only attributes looked up at call time are listed: a wrapper sees calls
# that go through the module global it replaces.
WRAPPED = (
    ("cli", "read_feature_csv", "data", _csv_counts),
    ("cli", "cluster_features", "select", None),
    ("cli", "ami", "metrics", None),
    ("cli", "concentration_sweep", "synth", None),
    ("cli", "expectation_check", "synth", None),
    ("select", "preprocess_dataset", "data", None),
    ("select", "standardize_columns", "data", None),
    ("select", "gram", "data", _gram_flops),
    ("select", "augment", "transform", None),
    ("select", "ward_linkage", "hierarchy", _merge_count),
    ("select", "cut_tree", "hierarchy", None),
    ("select", "cem_fit", "mixture", _fit_counts),
    ("mixture", "augment_with_clusters", "transform", None),
    ("synth", "gen_mixture", "synth", None),
    ("synth", "gram_values", "synth", None),
    ("synth", "cluster_augment_values", "transform", None),
)

ROOT_NAME = "cli.main"


class Tracer:
    """Records spans around the WRAPPED attributes of gramclust modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack: list[int] = []
        self._call = 0
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, layer: str, fn: Callable, args, kwargs,
                hook: Optional[Callable]):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        sid = next(self._ids)
        call = self._call
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, layer, start, end, parent,
                                   threading.get_ident(), call))
        if hook is not None:
            self._add_counts(hook(args, result))
        return result

    def _add_counts(self, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def install(self) -> None:
        """Wrap every attribute in WRAPPED; a missing one is logged as
        absent and left alone."""
        for mod_name, attr, layer, hook in WRAPPED:
            name = f"{mod_name}.{attr}"
            try:
                module = importlib.import_module(f"gramclust.{mod_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(original, name, layer, hook))
            self._saved.append((module, attr, original))

    def _wrap(self, fn: Callable, name: str, layer: str,
              hook: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, layer, fn, args, kwargs, hook)

        return wrapper

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def call(self, fn: Callable, *args):
        """Run one benchmark call under a root span of layer ``cli``."""
        self._call += 1
        self._root_stack = self._stack()
        return self._record(ROOT_NAME, "cli", fn, args, {}, None)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    by_id = {s.sid: s for s in spans}
    children: dict = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.sid, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.sid] = s.duration - union_length(kids)
    return out


LAYERS = ("cli", "data", "transform", "hierarchy", "mixture", "select",
          "metrics", "synth")


def layer_self_times(spans) -> dict:
    """Layer -> summed self time of its spans (overlapping worker spans of
    one layer both count, so this is busy time, not wall time)."""
    selfs = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + selfs[s.sid]
    return out


def per_layer_metrics(spans, counts: dict, calls: int) -> dict:
    """Per-call means of the per-layer metrics: name -> (value, unit).

    Times are seconds of self time. Counts are computed from arguments and
    results at the wrapped boundaries, not measured, and repeat exactly for
    the same inputs.
    """
    calls = max(calls, 1)
    selfs = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_sum(*names) -> float:
        return sum(selfs[s.sid] for n in names for s in by_name.get(n, ()))

    layers = layer_self_times(spans)
    cem_spans = by_name.get("select.cem_fit", [])
    cem_wall = 0.0
    for call in {s.call for s in cem_spans}:
        cem_wall += union_length(
            [(s.start, s.end) for s in cem_spans if s.call == call]
        )
    fits = counts.get("mixture.fits", 0)
    degenerate = counts.get("mixture.degenerate_fits", 0)
    augment_names = ("mixture.augment_with_clusters", "synth.cluster_augment_values")

    seconds = {
        "data.read_feature_csv_s": self_sum("cli.read_feature_csv"),
        "data.preprocess_s": self_sum("select.preprocess_dataset",
                                      "select.standardize_columns"),
        "data.gram_s": self_sum("select.gram"),
        "data.self_s": layers["data"],
        "transform.cluster_augment_s": self_sum(*augment_names),
        "transform.self_s": layers["transform"],
        "hierarchy.ward_linkage_s": self_sum("select.ward_linkage"),
        "hierarchy.cut_tree_s": self_sum("select.cut_tree"),
        "mixture.cem_fit_busy_s": layers["mixture"],
        "mixture.cem_fit_wall_s": cem_wall,
        "select.self_s": layers["select"],
        "cli.self_s": layers["cli"],
        "metrics.ami_s": layers["metrics"],
        "synth.gen_mixture_s": self_sum("synth.gen_mixture"),
        "synth.gram_values_s": self_sum("synth.gram_values"),
        "synth.self_s": layers["synth"],
    }
    totals = {
        "data.csv_bytes": counts.get("data.csv_bytes", 0),
        "data.cells": counts.get("data.cells", 0),
        "data.gram_flops": counts.get("data.gram_flops", 0),
        "transform.cluster_augment_calls": sum(
            len(by_name.get(n, ())) for n in augment_names
        ),
        "hierarchy.merges": counts.get("hierarchy.merges", 0),
        "mixture.iterations": counts.get("mixture.iterations", 0),
        "mixture.degenerate_fits": degenerate,
    }
    out = {name: (value / calls, "s") for name, value in seconds.items()}
    out.update({name: (value / calls, "count") for name, value in totals.items()})
    out["mixture.useful_fit_frac"] = ((fits - degenerate) / fits if fits else 0.0, "1")
    return out


def spans_to_json(spans) -> list:
    return [asdict(s) for s in spans]


def spans_from_json(rows) -> list:
    return [Span(**row) for row in rows]
