"""Command-line entry points: cluster, eval, simulate.

Structured results go to JSON, tabular/plot-ready data to CSV. Flags
override environment variables (``GRAMCLUST_*``), which override the
defaults. Exit codes: 0 success, 1 I/O or data error, 2 config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import warnings
from typing import Callable, NamedTuple, Optional

from . import __version__
from .data import CSV_ENCODING, _csv_rows, _is_number, read_feature_csv
from .errors import ConfigError, DataError, GramClustError, ObjectIdMismatchError
from .metrics import NORM_MAX, NORM_MEAN, ami
from .select import (
    DEFAULT_KMAX,
    DEFAULT_MAX_ITER,
    PREPROCESS_PAPER,
    PREPROCESS_STANDARDIZE,
    cluster_features,
)
from .synth import SimulationPlan, build_spec, concentration_sweep, expectation_check

_ENV_PREFIX = "GRAMCLUST_"

_PREPROCESS_MODES = (PREPROCESS_STANDARDIZE, PREPROCESS_PAPER)
_AMI_NORMS = (NORM_MEAN, NORM_MAX)


class _Setting(NamedTuple):
    """One setting ``name``: flag --name, environment variable
    GRAMCLUST_NAME. ``cast`` turns the flag's or variable's text into a
    value, which must be one of ``choices`` or pass ``check``."""

    default: object
    cast: Callable = str
    check: Callable = lambda value: True
    rule: str = ""
    choices: Optional[tuple] = None
    help: Optional[str] = None


_SETTINGS = {
    "kmax": _Setting(DEFAULT_KMAX, int, lambda v: v >= 1, "must be >= 1"),
    "max_iter": _Setting(DEFAULT_MAX_ITER, int, lambda v: v >= 1, "must be >= 1"),
    "preprocess": _Setting(PREPROCESS_PAPER, choices=_PREPROCESS_MODES),
    "ami_norm": _Setting(NORM_MEAN, choices=_AMI_NORMS),
    "threads": _Setting(1, int, lambda v: v >= 1, "must be >= 1",
                        help="ignored: checked and echoed only"),
    # csv and numpy's reader take '"' as the quote and need rows split by lines
    "delimiter": _Setting(",", check=lambda v: len(v) == 1 and v not in '"\n\r',
                          rule="must be a single character other than '\"', \\n or \\r"),
    "output_dir": _Setting(".", check=bool, rule="must not be empty"),
}

# The settings each command takes: the only ones it parses, reads from the
# environment, checks and echoes. threads has no effect; cluster and
# simulate take it only because perfbench/run.py passes --threads nproc
# when os.cpu_count() > nproc and perfbench/tests asserts
# 1 <= config.threads <= nproc. ROADMAP item 4 removes it with those.
_COMMAND_SETTINGS = {
    "cluster": tuple(_SETTINGS),
    "eval": ("ami_norm", "delimiter"),
    "simulate": ("output_dir", "threads"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _resolve(name: str, flag_value: Optional[str]):
    setting = _SETTINGS[name]
    source, raw = _flag(name), flag_value
    if raw is None:
        source = _ENV_PREFIX + name.upper()
        raw = os.environ.get(source)
    if raw is None:
        return setting.default
    try:
        value = setting.cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {source}={raw!r}: {exc}") from exc
    if setting.choices is not None and value not in setting.choices:
        raise ConfigError(f"{name} must be one of {setting.choices}")
    if not setting.check(value):
        raise ConfigError(f"{name} {setting.rule}")
    return value


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The settings of ``args.command``: flags > environment > defaults."""
    return argparse.Namespace(**{name: _resolve(name, getattr(args, name))
                                 for name in _COMMAND_SETTINGS[args.command]})


def _echo(config: argparse.Namespace) -> dict:
    """Config echo for result files; output_dir is where the artifact
    lives, not an algorithmic input, so it stays out."""
    return {name: value for name, value in vars(config).items() if name != "output_dir"}


def _jsonable(x):
    """``x`` with every float that is not finite, at any depth, as None:
    JSON has no Infinity or NaN."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {key: _jsonable(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(value) for value in x]
    return x


def _dump_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _print_warning(message, *_args, **_kwargs) -> None:
    print(f"warning: {message}", file=sys.stderr)


def cmd_cluster(input_path: str, config: argparse.Namespace) -> int:
    parsed = read_feature_csv(input_path, delimiter=config.delimiter)
    fm = parsed.matrix
    os.makedirs(config.output_dir, exist_ok=True)
    with warnings.catch_warnings():
        # a library warning (kmax clamped to N) reaches the user as one
        # plain line, without a source location
        warnings.showwarning = _print_warning
        out = cluster_features(
            fm,
            kmax=config.kmax,
            max_iter=config.max_iter,
            preprocess=config.preprocess,
        )

    _write_csv(os.path.join(config.output_dir, "assignments.csv"), ["object_id", "label"],
               [[i, int(lab)] for i, lab in enumerate(out.labels.labels, start=1)])
    _write_csv(os.path.join(config.output_dir, "bic_trace.csv"), ["k", "bic"],
               [[fit.k, repr(fit.bic) if math.isfinite(fit.bic) else ""] for fit in out.fits])

    ami_truth = None
    if parsed.truth_labels is not None:
        ami_truth = float(
            ami(parsed.truth_labels, out.labels, normalization=config.ami_norm)
        )

    payload = {
        "version": __version__,
        "k_hat": out.k_hat,
        "n_objects": fm.n_objects,
        "n_features": fm.n_features,
        "ami_truth": ami_truth,
        "bic_trace": [
            {
                "k": fit.k,
                "bic": fit.bic,
                "converged": fit.converged,
                "degenerate": fit.degenerate,
                "degenerate_reason": fit.degenerate_reason,
                "floor_events": fit.floor_events,
                "iterations": fit.iterations,
                "loglik": fit.loglik,
            }
            for fit in out.fits
        ],
        "config": _echo(config),
        "timings": out.timings,
    }
    _dump_json(os.path.join(config.output_dir, "result.json"), payload)
    print(f"k_hat={out.k_hat}  ({input_path} -> {config.output_dir})")
    return 0


def _read_assignment_csv(path: str, delimiter: str = ",") -> dict:
    """object id -> label. The first row is a header when it reads
    object_id,label (as ``cluster`` writes it), or when its id is the only
    id in the file that is not a number, or its label the only such label.
    A header with no row below it raises DataError at its line."""
    with open(path, newline="", encoding=CSV_ENCODING) as fh:
        rows = [(lineno, [field.strip() for field in row])
                for lineno, row in _csv_rows(fh, delimiter)]
    if not rows:
        raise DataError("empty assignment file")
    # a missing or blank field counts as a number here; its row is
    # rejected below
    numeric = [[col >= len(row) or not row[col] or _is_number(row[col]) for _, row in rows]
               for col in (0, 1)]
    header = [field.lower() for field in rows[0][1]] == ["object_id", "label"] or any(
        not column[0] and all(column[1:]) for column in numeric
    )
    if header and len(rows) == 1:
        raise DataError("no data rows", line=rows[0][0])
    mapping = {}
    for lineno, row in rows[int(header):]:
        if len(row) < 2:
            raise DataError("need object_id and label columns", line=lineno)
        oid, label = row[:2]
        if not oid or not label:
            raise DataError("blank label" if oid else "blank object id", line=lineno)
        if oid in mapping:
            raise DataError(f"duplicate object id {oid!r}", line=lineno)
        mapping[oid] = label
    return mapping


def cmd_eval(pred_path: str, truth_path: str, config: argparse.Namespace) -> int:
    pred = _read_assignment_csv(pred_path, config.delimiter)
    truth = _read_assignment_csv(truth_path, config.delimiter)
    if set(pred) != set(truth):
        missing = set(truth) ^ set(pred)
        raise ObjectIdMismatchError(
            f"object ids differ between files (e.g. {sorted(missing)[:5]})"
        )
    ids = sorted(pred)
    value = ami(
        [pred[i] for i in ids],
        [truth[i] for i in ids],
        normalization=config.ami_norm,
    )
    text = f"{value:.6f}"
    # AMI can land a rounding error below an exact 0; print that unsigned.
    print("0.000000" if text == "-0.000000" else text)
    return 0


def cmd_simulate(plan_path: str, config: argparse.Namespace) -> int:
    with open(plan_path, encoding=CSV_ENCODING) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed plan JSON: {exc}") from exc
    try:
        plan = SimulationPlan(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid simulation plan: {exc}") from exc

    os.makedirs(config.output_dir, exist_ok=True)
    report = concentration_sweep(plan)
    exp_check = expectation_check(build_spec(plan, min(plan.p_grid)), plan.n, max(plan.reps, 100))

    _write_csv(os.path.join(config.output_dir, "concentration.csv"), ["p", "mse_mean", "bound_sq"],
               [[pt.p, repr(pt.mse_mean), repr(pt.bound_sq)] for pt in report.points])

    payload = {
        "version": __version__,
        "plan": dataclasses.asdict(plan),
        "points": [dataclasses.asdict(pt) for pt in report.points],
        "slope": report.slope,
        "expectation_check": dataclasses.asdict(exp_check),
        "notes": (
            "raw (unstandardized) generator model; assignments conditioned "
            "on min cluster size 2 so the restricted same-cluster average "
            "is always defined"
        ),
        "config": _echo(config),
    }
    _dump_json(os.path.join(config.output_dir, "report.json"), payload)
    bounded = all(pt.mse_mean <= pt.bound_sq for pt in report.points)
    print(
        f"bound_satisfied={bounded}  slope="
        f"{'n/a' if report.slope is None else f'{report.slope:.3f}'}"
    )
    return 0


def _add_settings(parser: argparse.ArgumentParser, command: str) -> None:
    for name in _COMMAND_SETTINGS[command]:
        setting = _SETTINGS[name]
        parser.add_argument(_flag(name), dest=name, choices=setting.choices,
                            help=setting.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramclust",
        description="Cluster N objects with P >> N features via Gram-matrix transforms",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="cluster a feature CSV")
    p_cluster.add_argument("input", help="CSV with rows=objects, columns=features")
    _add_settings(p_cluster, "cluster")

    p_eval = sub.add_parser("eval", help="AMI between two assignment CSVs")
    p_eval.add_argument("pred")
    p_eval.add_argument("truth")
    _add_settings(p_eval, "eval")

    p_sim = sub.add_parser("simulate", help="run the concentration harness")
    p_sim.add_argument("plan", help="simulation plan JSON")
    _add_settings(p_sim, "simulate")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command == "cluster":
            return cmd_cluster(args.input, config)
        if args.command == "eval":
            return cmd_eval(args.pred, args.truth, config)
        return cmd_simulate(args.plan, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GramClustError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
