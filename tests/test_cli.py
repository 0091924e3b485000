"""End-to-end tests of the command-line interface."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramclust import gen_mixture
from gramclust import cli
from gramclust.cli import main
from tests.conftest import (
    MISTYPED_PLAN_EDITS,
    NON_FINITE_PLAN_EDITS,
    OVERFLOW_PLAN_EDITS,
    UNUSABLE_PLAN_EDITS,
    simulation_plan,
    two_cluster_spec,
)


def write_feature_csv(path, x, labels=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if labels is not None:
            w.writerow([f"f{i}" for i in range(x.shape[1])] + ["label"])
            for row, lab in zip(x, labels):
                w.writerow([repr(float(v)) for v in row] + [int(lab)])
        else:
            for row in x:
                w.writerow([repr(float(v)) for v in row])


def test_import_does_not_load_scipy_cluster():
    # no command needs scipy, so importing the CLI loads none of it
    import gramclust

    src = os.path.dirname(os.path.dirname(os.path.abspath(gramclust.__file__)))
    code = (
        "import sys, gramclust.cli; "
        "sys.exit(any(m in sys.modules for m in ('scipy.cluster', 'scipy.special')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_public_names_resolve():
    import gramclust

    assert [name for name in gramclust.__all__ if not hasattr(gramclust, name)] == []


@pytest.fixture(scope="module")
def fixture_csv(tmp_path_factory):
    """Two-cluster synthetic fixture with a frozen seed and truth labels."""
    path = tmp_path_factory.mktemp("data") / "two_cluster.csv"
    spec = two_cluster_spec(3.0, 400, seed=77)
    fm, truth = gen_mixture(spec, 30)
    write_feature_csv(path, fm.values, truth.labels)
    return str(path)


def test_cluster_runs_without_scipy(fixture_csv, tmp_path):
    # with scipy unimportable, a fresh interpreter writes the same
    # artifacts as this one
    import gramclust

    src = os.path.dirname(os.path.dirname(os.path.abspath(gramclust.__file__)))
    ref, out = tmp_path / "ref", tmp_path / "noscipy"
    assert main(["cluster", fixture_csv, "--output-dir", str(ref)]) == 0
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from gramclust.cli import main; "
        f"sys.exit(main(['cluster', {fixture_csv!r}, '--output-dir', {str(out)!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    for name in ("assignments.csv", "bic_trace.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


class TestCluster:
    def test_fixture_recovered(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["cluster", fixture_csv, "--output-dir", str(out)]) == 0
        res = json.loads((out / "result.json").read_text())
        assert res["k_hat"] == 2
        assert res["ami_truth"] == 1.0
        assert res["config"]["preprocess"] == "paper"
        assert len(res["bic_trace"]) == 20
        assert (out / "assignments.csv").exists()
        assert (out / "bic_trace.csv").exists()

    def test_result_schema_valid(self, fixture_csv, tmp_path):
        import jsonschema
        from importlib import resources

        out = tmp_path / "out"
        main(["cluster", fixture_csv, "--output-dir", str(out)])
        schema = json.loads(
            resources.files("gramclust").joinpath("schemas/result.schema.json").read_text()
        )
        res = json.loads((out / "result.json").read_text())
        jsonschema.validate(res, schema)

    def test_floor_events_written(self, fixture_csv, tmp_path):
        from gramclust import cluster_features, read_feature_csv

        out = tmp_path / "out"
        assert main(["cluster", fixture_csv, "--output-dir", str(out)]) == 0
        trace = json.loads((out / "result.json").read_text())["bic_trace"]
        written = [e["floor_events"] for e in trace]
        fits = cluster_features(read_feature_csv(fixture_csv).matrix).fits
        assert written == [f.floor_events for f in fits]
        assert max(written) > 0

    def test_degenerate_fits_unscored(self, fixture_csv, tmp_path):
        from gramclust import cluster_features, read_feature_csv

        out = tmp_path / "out"
        assert main(["cluster", fixture_csv, "--output-dir", str(out)]) == 0
        trace = json.loads((out / "result.json").read_text())["bic_trace"]
        fits = cluster_features(read_feature_csv(fixture_csv).matrix).fits
        assert [e["degenerate_reason"] for e in trace] == [f.degenerate_reason for f in fits]
        for e in trace:
            assert (e["loglik"] is None) == e["degenerate"] == (e["degenerate_reason"] is not None)
        assert any(e["degenerate"] for e in trace) and not all(e["degenerate"] for e in trace)

    def test_blas_thread_count_keeps_labels(self, tmp_path):
        # the log-joint's matrix products may round differently on 1 and 2
        # BLAS threads: the labels and fit records stay, BIC moves in its
        # last bits at most
        import gramclust

        path = tmp_path / "d.csv"
        fm, truth = gen_mixture(two_cluster_spec(1.0, 1000, seed=91), 300)
        write_feature_csv(path, fm.values, truth.labels)
        src = os.path.dirname(os.path.dirname(os.path.abspath(gramclust.__file__)))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "gramclust.cli", "cluster", str(path),
                            "--output-dir", str(out)], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            res = json.loads((out / "result.json").read_text())
            runs.append(((out / "assignments.csv").read_bytes(), res))
        (labels1, res1), (labels2, res2) = runs
        assert labels1 == labels2
        assert res1["k_hat"] == res2["k_hat"]
        trace1, trace2 = res1["bic_trace"], res2["bic_trace"]
        for name in ("k", "degenerate_reason", "iterations"):
            assert [e[name] for e in trace1] == [e[name] for e in trace2], name
        scored = [(a["bic"], b["bic"]) for a, b in zip(trace1, trace2) if a["bic"] is not None]
        # fits with many components are scored too
        assert any(e["bic"] is not None for e in trace1[4:])
        for a, b in scored:
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_kmax_one(self, fixture_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["cluster", fixture_csv, "--output-dir", str(out), "--kmax", "1"]) == 0
        res = json.loads((out / "result.json").read_text())
        assert res["k_hat"] == 1

    def test_ragged_csv_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4\n5,6,7\n")
        assert main(["cluster", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_kmax_clamp_is_one_plain_line(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("f1,f2\n1,2\n3,5\n4,9\n")
        assert main(["cluster", str(path), "--output-dir", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == "warning: kmax=20 exceeds N=3; clamped to N\n"

    @pytest.mark.parametrize("text, error", [
        ("f1,f2\n", "error: line 1: no data rows\n"),
        ('"f1,f2\n1,2\n3,4\n', "error: line 1: malformed CSV (unclosed quote)\n"),
        ('f1,f2\n1,2\n"3,4\n5,6\n', "error: line 3: malformed CSV (unclosed quote)\n"),
    ], ids=["header_only", "quote_in_header", "quote_in_data"])
    def test_unreadable_csv_exit_1(self, tmp_path, capsys, text, error):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["cluster", str(path), "--output-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == error

    @pytest.mark.parametrize("mode", ["paper", "standardize"])
    def test_overflowing_column_exit_1(self, tmp_path, capsys, mode):
        # a column times 1e200 has an infinite sd: it was zeroed, yet
        # counted in P, and the run exited 0
        fm, truth = gen_mixture(two_cluster_spec(3.0, 30, seed=5), 20)
        x = fm.values.copy()
        x[:, 0] *= 1e200
        path = tmp_path / "huge.csv"
        write_feature_csv(path, x, truth.labels)
        argv = ["cluster", str(path), "--preprocess", mode, "--output-dir", str(tmp_path / "o")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: feature column 1 is too large to standardize\n"

    @pytest.mark.parametrize("text, kmax", [
        ("f1,f2\n1,2\n3,5\n", "2"),
        ("f1\n-1\n0\n1\n", "3"),
    ], ids=["two_objects", "object_at_mean"])
    def test_all_fits_degenerate_exit_1(self, tmp_path, capsys, text, kmax):
        # every cluster of 2 objects has at most 2 members. The middle of
        # 3 objects standardizes to 0, so its row and column of G are 0:
        # K = 1 floors and K = 2, 3 have small clusters
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert main(["cluster", str(path), "--kmax", kmax, "--output-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: every K produced a degenerate fit\n"

    def test_bad_config_exit_2(self, fixture_csv, tmp_path, capsys):
        rc = main(["cluster", fixture_csv, "--output-dir", str(tmp_path / "o"),
                   "--kmax", "0"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_threads_exit_2(self, fixture_csv, tmp_path, capsys, monkeypatch):
        # threads is a plain int >= 1: 'auto' is not a value
        for value in ("foo", "auto"):
            rc = main(["cluster", fixture_csv, "--output-dir", str(tmp_path / "o"),
                       "--threads", value])
            assert rc == 2
            assert "config error" in capsys.readouterr().err
            monkeypatch.setenv("GRAMCLUST_THREADS", value)
            assert main(["cluster", fixture_csv, "--output-dir", str(tmp_path / "o")]) == 2
            assert "config error" in capsys.readouterr().err
            monkeypatch.delenv("GRAMCLUST_THREADS")

    @pytest.mark.parametrize("value", ['"', "\n", "\r"], ids=["quote", "lf", "cr"])
    def test_quote_or_line_break_delimiter_exit_2(self, fixture_csv, tmp_path, capsys,
                                                  monkeypatch, value):
        # csv and numpy's reader quote with '"' and split rows at line breaks;
        # the settings are checked before any file is read
        for command in (["cluster", fixture_csv, "--output-dir", str(tmp_path / "o")],
                        ["eval", fixture_csv, fixture_csv]):
            assert main([*command, "--delimiter", value]) == 2
            assert capsys.readouterr().err.startswith("config error: delimiter must be")
            monkeypatch.setenv("GRAMCLUST_DELIMITER", value)
            assert main(command) == 2
            assert capsys.readouterr().err.startswith("config error: delimiter must be")
            monkeypatch.delenv("GRAMCLUST_DELIMITER")

    @pytest.mark.parametrize(
        "flag",
        [
            ["--cov-model", "diagonal"],
            ["--ridge", "1e-6"],
            ["--seed", "5"],
            ["--preprocess", "none"],
        ],
    )
    def test_removed_flag_rejected(self, fixture_csv, tmp_path, flag):
        # the diagonal model is the only one, nothing reads a seed, and
        # preprocess=none ran the same steps as standardize
        with pytest.raises(SystemExit) as exc:
            main(["cluster", fixture_csv, "--output-dir", str(tmp_path / "o"), *flag])
        assert exc.value.code == 2

    def test_roundtrip_eval_of_assignments(self, fixture_csv, tmp_path, capsys):
        out = tmp_path / "out"
        main(["cluster", fixture_csv, "--output-dir", str(out)])
        capsys.readouterr()
        rc = main(["eval", str(out / "assignments.csv"), str(out / "assignments.csv")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_byte_identical_reruns(self, fixture_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["cluster", fixture_csv, "--output-dir", str(out1)])
        main(["cluster", fixture_csv, "--output-dir", str(out2)])
        assert (out1 / "assignments.csv").read_bytes() == (out2 / "assignments.csv").read_bytes()
        r1 = json.loads((out1 / "result.json").read_text())
        r2 = json.loads((out2 / "result.json").read_text())
        r1.pop("timings"), r2.pop("timings")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_default_threads_is_one(self, fixture_csv, tmp_path, monkeypatch):
        # the echoed config must not depend on the host's core count
        monkeypatch.delenv("GRAMCLUST_THREADS", raising=False)
        out = tmp_path / "out"
        assert main(["cluster", fixture_csv, "--output-dir", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["config"]["threads"] == 1

    def test_env_and_flag_precedence(self, fixture_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAMCLUST_KMAX", "3")
        out1 = tmp_path / "envonly"
        main(["cluster", fixture_csv, "--output-dir", str(out1)])
        assert json.loads((out1 / "result.json").read_text())["config"]["kmax"] == 3
        out2 = tmp_path / "flagwins"
        main(["cluster", fixture_csv, "--output-dir", str(out2), "--kmax", "4"])
        assert json.loads((out2 / "result.json").read_text())["config"]["kmax"] == 4
        # eval's delimiter: a ';' file parses only under the environment's
        # value, and a ',' file only under the flag that overrides it
        semi = tmp_path / "semi.csv"
        semi.write_text("object_id;label\n1;1\n2;1\n3;2\n")
        assignments = str(out1 / "assignments.csv")
        assert main(["eval", str(semi), str(semi)]) == 1
        monkeypatch.setenv("GRAMCLUST_DELIMITER", ";")
        assert main(["eval", str(semi), str(semi)]) == 0
        assert main(["eval", assignments, assignments]) == 1
        assert main(["eval", assignments, assignments, "--delimiter", ","]) == 0


def write_assignment_csv(path, ids, labels):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["object_id", "label"])
        for i, lab in zip(ids, labels):
            w.writerow([i, lab])


class TestEval:
    def test_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        write_assignment_csv(a, range(1, 7), [1, 1, 2, 2, 3, 3])
        assert main(["eval", str(a), str(a)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_one_cluster_prediction(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        write_assignment_csv(pred, range(1, 5), [1, 1, 1, 1])
        write_assignment_csv(truth, range(1, 5), [1, 2, 1, 2])
        assert main(["eval", str(pred), str(truth)]) == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_crossing_partitions_value(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        write_assignment_csv(pred, range(1, 5), [1, 1, 2, 2])
        write_assignment_csv(truth, range(1, 5), [1, 2, 1, 2])
        assert main(["eval", str(pred), str(truth)]) == 0
        assert capsys.readouterr().out.strip() == "-0.500000"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, 5), min_size=n, max_size=n),
        st.lists(st.integers(1, 5), min_size=n, max_size=n),
        st.permutations(range(n)),
    )))
    def test_shuffled_renamed_rows_same_value(self, case):
        pred, truth, order = case
        renamed = [f"c{9 - lab}" for lab in pred]

        def printed(pred_ids, pred_labels):
            with tempfile.TemporaryDirectory() as tmp:
                p, t = os.path.join(tmp, "p.csv"), os.path.join(tmp, "t.csv")
                write_assignment_csv(p, pred_ids, pred_labels)
                write_assignment_csv(t, range(1, len(truth) + 1), truth)
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["eval", p, t]) == 0
            return out.getvalue()

        ids = range(1, len(pred) + 1)
        shuffled = printed([ids[i] for i in order], [renamed[i] for i in order])
        assert shuffled == printed(ids, pred)

    def eval_lines(self, tmp_path, capsys, pred_lines, truth_lines):
        pred, truth = tmp_path / "p.csv", tmp_path / "t.csv"
        pred.write_text("\n".join(pred_lines) + "\n")
        truth.write_text("\n".join(truth_lines) + "\n")
        assert main(["eval", str(pred), str(truth)]) == 0
        return capsys.readouterr().out.strip()

    @pytest.mark.parametrize("ids", [["s1", "s2", "s3", "s4"], ["1", "2", "3", "4"]])
    def test_headerless_first_row_is_data(self, tmp_path, capsys, ids):
        # with s1 dropped as a header, the rest agree perfectly (1.000000)
        pred = [f"{i},{lab}" for i, lab in zip(ids, [1, 1, 2, 2])]
        truth = [f"{i},{lab}" for i, lab in zip(ids, [2, 1, 2, 2])]
        assert self.eval_lines(tmp_path, capsys, pred, truth) == "0.000000"

    @pytest.mark.parametrize("header, ids", [
        (" Object_ID , LABEL ", ["s1", "s2", "s3", "s4"]),
        ("id,cluster", ["1", "2", "3", "4"]),
        ("name,cluster", ["s1", "s2", "s3", "s4"]),
    ], ids=["object_id_label", "only_non_numeric_id", "only_non_numeric_label"])
    def test_header_skipped(self, tmp_path, capsys, header, ids):
        pred = [header] + [f"{i},{lab}" for i, lab in zip(ids, [1, 1, 2, 2])]
        truth = [header] + [f"{i},{lab}" for i, lab in zip(ids, [1, 2, 1, 2])]
        assert self.eval_lines(tmp_path, capsys, pred, truth) == "-0.500000"

    @pytest.mark.parametrize("first", ["5", "name"])
    def test_short_row_exit_1(self, tmp_path, capsys, first):
        # a row without a label is an error, also as the first row, unless
        # the first row's id is the only one that is not a number
        (tmp_path / "a.csv").write_text(f"{first}\n1,1\n2,2\n")
        code = main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "a.csv")])
        assert code == (0 if first == "name" else 1)

    @pytest.mark.parametrize("text, error", [
        ("1,1\n\n\n2\n", "line 4: need object_id and label columns"),
        ("1,1\n\n1,2\n", "line 3: duplicate object id '1'"),
        ("1,1\n2,\n3,2\n4,2\n", "line 2: blank label"),
        ("1,1\n ,1\n3,2\n4,2\n", "line 2: blank object id"),
        ("1,\n2,1\n3,2\n4,2\n", "line 1: blank label"),
    ], ids=["short_after_blank_lines", "duplicate_after_blank_line", "blank_label",
            "blank_id", "blank_first_label"])
    def test_bad_row_exit_1(self, tmp_path, capsys, text, error):
        # lines are counted as in the file, blank lines included; a blank
        # first-row label is not read as a header
        (tmp_path / "a.csv").write_text(text)
        write_assignment_csv(tmp_path / "b.csv", range(1, 5), [1, 1, 2, 2])
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 1
        assert capsys.readouterr().err.strip() == f"error: {error}"

    @pytest.mark.parametrize("text, line", [
        ("object_id,label\n", 1),
        ("\n\nname,cluster\n\n", 3),
        ("1,a\n", 1),
    ], ids=["object_id_label", "after_blank_lines", "one_row_read_as_header"])
    def test_header_without_rows_exit_1(self, tmp_path, capsys, text, line):
        # the reader says so, before an empty assignment reaches the scorer
        (tmp_path / "a.csv").write_text(text)
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "a.csv")]) == 1
        assert capsys.readouterr().err == f"error: line {line}: no data rows\n"

    def test_bom_ids_match_plain_ids(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_bytes(b"\xef\xbb\xbf1,1\n2,1\n3,2\n4,2\n")
        (tmp_path / "b.csv").write_text("1,1\n2,1\n3,2\n4,2\n")
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_unbalanced_quote_exit_1(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text('"1,1\n' + "2,1\n" * 40000)
        write_assignment_csv(tmp_path / "b.csv", range(1, 5), [1, 1, 2, 2])
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: line 1: malformed CSV")

    def test_unclosed_quote_exit_1(self, tmp_path, capsys):
        # below csv's field size limit the quoted field would take the rest
        # of the file as one label
        (tmp_path / "a.csv").write_text('s1,1\ns2,"1\ns3,2\ns4,2\n')
        (tmp_path / "b.csv").write_text("s1,1\ns2,1\n")
        assert main(["eval", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 1
        assert capsys.readouterr().err == "error: line 2: malformed CSV (unclosed quote)\n"

    def test_object_id_mismatch_exit_1(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_assignment_csv(a, [1, 2, 3], [1, 1, 2])
        write_assignment_csv(b, [1, 2, 9], [1, 1, 2])
        assert main(["eval", str(a), str(b)]) == 1


class TestSimulate:
    def test_noiseless_zero_mse(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GRAMCLUST_THREADS", raising=False)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(simulation_plan()))
        out = tmp_path / "out"
        assert main(["simulate", str(plan_path), "--output-dir", str(out)]) == 0
        rows = list(csv.DictReader((out / "concentration.csv").open()))
        assert all(float(r["mse_mean"]) == 0.0 for r in rows)
        report = json.loads((out / "report.json").read_text())
        assert report["expectation_check"]["max_dev_aug"] == 0.0
        assert report["config"] == {"threads": 1}

    @pytest.mark.parametrize("means", [[[0.1], [-0.3]], [[0.7], [-0.7]], [[0.3], [0.3]]])
    def test_noiseless_rounding_reads_zero(self, tmp_path, capsys, means):
        # these printed bound_satisfied=False, with max_dev_aug 9.95 or 12.4
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(simulation_plan(mean_patterns=means, n=10, seed=7)))
        out = tmp_path / "out"
        assert main(["simulate", str(plan_path), "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out.startswith("bound_satisfied=True")
        text = (out / "report.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        report = json.loads(text)
        assert all(pt["mse_mean"] == 0.0 for pt in report["points"])
        check = report["expectation_check"]
        assert (check["max_dev_aug"], check["max_dev_gram"]) == (0.0, 0.0)

    def test_report_writes_no_infinity(self, tmp_path):
        path = tmp_path / "r.json"
        cli._dump_json(str(path), {"a": {"b": [1.5, float("inf")]}, "c": float("nan")})
        assert json.loads(path.read_text()) == {"a": {"b": [1.5, None]}, "c": None}

    def test_unit_variance_bounded(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(simulation_plan(
            variance_patterns=[[1.0], [1.0]], reps=40, p_grid=[100, 400]
        )))
        out = tmp_path / "out"
        assert main(["simulate", str(plan_path), "--output-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        for pt in report["points"]:
            assert pt["mse_mean"] <= pt["bound_sq"]

    def test_small_reps_exit_2(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(simulation_plan(reps=10)))
        assert main(["simulate", str(plan_path), "--output-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("over", NON_FINITE_PLAN_EDITS)
    def test_non_finite_plan_exit_2(self, tmp_path, capsys, over):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(simulation_plan(**over)))
        assert main(["simulate", str(plan_path), "--output-dir", str(tmp_path / "o")]) == 2
        assert "invalid simulation plan" in capsys.readouterr().err

    @pytest.mark.parametrize("over", UNUSABLE_PLAN_EDITS + MISTYPED_PLAN_EDITS)
    def test_unusable_plan_exit_2(self, tmp_path, capsys, over):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(simulation_plan(**over)))
        assert main(["simulate", str(plan_path), "--output-dir", str(tmp_path / "o")]) == 2
        assert "invalid simulation plan" in capsys.readouterr().err

    @pytest.mark.parametrize("over", OVERFLOW_PLAN_EDITS)
    def test_overflowing_plan_exit_2(self, tmp_path, capsys, over):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(simulation_plan(**over)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(plan_path), "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid simulation plan: numbers too large: "
            "the deviation bound at p = 100 overflows\n"
        )

    def test_whole_float_plan_runs(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(simulation_plan(n=6.0, reps=30.0, seed=3.0)))
        out = tmp_path / "out"
        assert main(["simulate", str(plan_path), "--output-dir", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["plan"]["n"] == 6

    def test_rejection_cap_exit_1(self, tmp_path, capsys):
        # a positive but tiny weight passes validation, then the draws give up
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(simulation_plan(weights=[1e-9, 1.0 - 1e-9])))
        assert main(["simulate", str(plan_path), "--output-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: could not draw")

    def test_bom_plan_runs(self, tmp_path):
        # plans are read as UTF-8 and a leading byte order mark is dropped,
        # as for feature and assignment CSVs
        text = json.dumps(simulation_plan(variance_patterns=[[1.0], [2.0]]))
        (tmp_path / "plain.json").write_text(text, encoding="utf-8")
        (tmp_path / "bom.json").write_text(text, encoding="utf-8-sig")
        for name in ("plain", "bom"):
            argv = ["simulate", str(tmp_path / f"{name}.json"), "--output-dir", str(tmp_path / name)]
            assert main(argv) == 0
        assert ((tmp_path / "bom" / "concentration.csv").read_bytes()
                == (tmp_path / "plain" / "concentration.csv").read_bytes())

    def test_malformed_json_exit_1(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text("{not json")
        assert main(["simulate", str(plan_path), "--output-dir", str(tmp_path / "o")]) == 1


@pytest.fixture
def argv_for(fixture_csv, tmp_path):
    """A command line that succeeds, for each command."""
    pred = tmp_path / "a.csv"
    write_assignment_csv(pred, range(1, 7), [1, 1, 2, 2, 3, 3])
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(simulation_plan()))
    return {
        "cluster": ["cluster", fixture_csv, "--output-dir", str(tmp_path / "c")],
        "eval": ["eval", str(pred), str(pred)],
        "simulate": ["simulate", str(plan), "--output-dir", str(tmp_path / "s")],
    }


class TestSettingsPerCommand:
    FLAGS = {"--kmax": "3", "--max-iter": "5", "--preprocess": "standardize",
             "--ami-norm": "max", "--threads": "2", "--delimiter": ",",
             "--output-dir": "o"}

    @pytest.mark.parametrize("command, flag", [
        *[("eval", f) for f in ("--kmax", "--max-iter", "--preprocess", "--threads",
                                "--output-dir")],
        *[("simulate", f) for f in ("--kmax", "--max-iter", "--preprocess",
                                    "--ami-norm", "--delimiter")],
    ])
    def test_unread_flag_rejected(self, argv_for, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv_for[command], flag, self.FLAGS[flag]])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--ami-norm", "--delimiter"]),
        ("simulate", ["--threads"]),
        ("cluster", ["--threads"]),
    ])
    def test_read_flags_accepted(self, argv_for, command, flags):
        extra = [arg for f in flags for arg in (f, self.FLAGS[f])]
        assert main([*argv_for[command], *extra]) == 0

    @pytest.mark.parametrize("command", ["cluster", "simulate"])
    def test_empty_output_dir_exit_2(self, argv_for, monkeypatch, capsys, command):
        # both commands ran to the end and then exited 1 at os.makedirs('')
        argv = argv_for[command][:-2]
        assert main([*argv, "--output-dir", ""]) == 2
        assert capsys.readouterr() == ("", "config error: output_dir must not be empty\n")
        monkeypatch.setenv("GRAMCLUST_OUTPUT_DIR", "")
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "config error: output_dir must not be empty\n")

    @pytest.mark.parametrize("command", ["cluster", "simulate"])
    def test_output_dir_file_fails_before_the_work(self, argv_for, monkeypatch, capsys,
                                                   tmp_path, command):
        # both commands ran to the end and then exited 1 at os.makedirs
        def must_not_run(*args, **kwargs):
            raise AssertionError("the work ran before the output directory was made")

        monkeypatch.setattr(cli, "cluster_features", must_not_run)
        monkeypatch.setattr(cli, "concentration_sweep", must_not_run)
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main([*argv_for[command][:-2], "--output-dir", str(afile)]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")

    @pytest.mark.parametrize("var, value", [
        ("GRAMCLUST_KMAX", "0"), ("GRAMCLUST_PREPROCESS", "none"),
    ])
    @pytest.mark.parametrize("command, code", [("cluster", 2), ("eval", 0), ("simulate", 0)])
    def test_unread_env_ignored(self, argv_for, monkeypatch, var, value, command, code):
        monkeypatch.setenv(var, value)
        assert main(argv_for[command]) == code
