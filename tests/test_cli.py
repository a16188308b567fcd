import csv
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

import sgdg
from sgdg import cli, inference
from sgdg.cli import _posterior_mean_params, main, read_dataset, write_dataset
from sgdg.graph import MAX_VERTICES, Graph
from sgdg.inference import Trace


def run_cli(*argv):
    return main([str(a) for a in argv])


def error_record(capsys):
    """The one JSON line a refused command writes to stderr."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return json.loads(err)


def write_graph(path, g):
    g.save(path)
    return path


def write_near_constant_csv(path):
    """A 40 x 3 dataset whose columns 2 and 3 take only 3.0 and the next float above it."""
    up = float(np.nextafter(3.0, 4.0))  # 3.0000000000000004
    path.write_text("a,b,c\n" + "".join(
        f"{float(i)!r},{(3.0 if i < 20 else up)!r},{(3.0 if i % 2 else up)!r}\n" for i in range(40)))
    return path


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--case", "A", "--delta", "2", "--seed", "42", "--out", out) == 0
    return out


class TestCheckGraph:
    def test_bundled_marks_graph_report(self, tmp_path, capsys):
        from sgdg.datasets import mathmarks_graph

        path = write_graph(tmp_path / "g.json", mathmarks_graph())
        assert run_cli("check-graph", "--graph", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decomposable"] is True
        assert report["labels_are_elimination_ordering"] is True
        assert max(report["forward_neighbor_counts"]) == 2
        assert report["min_n_noninformative"] == 4

    def test_four_cycle_reported_not_decomposable(self, tmp_path, capsys):
        path = write_graph(tmp_path / "g.json", Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert run_cli("check-graph", "--graph", path) == 0
        assert "not decomposable" in capsys.readouterr().out

    def test_edgeless_graph_decomposable(self, tmp_path, capsys):
        path = write_graph(tmp_path / "g.json", Graph(4))
        assert run_cli("check-graph", "--graph", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["decomposable"] and report["min_n_noninformative"] == 2

    @pytest.mark.parametrize("edges, scope", [([(0, 1), (1, 2), (2, 3)], "current labels"),
                                              ([(0, 1), (0, 2), (0, 3)], "relabeled graph")],
                             ids=["labels-are-an-ordering", "relabeled"])
    def test_text_report_states_the_json_report(self, tmp_path, capsys, edges, scope):
        path = write_graph(tmp_path / "g.json", Graph(4, edges))
        assert run_cli("check-graph", "--graph", path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert run_cli("check-graph", "--graph", path) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"vertices: {report['k']}  edges: {report['n_edges']}",
            "decomposable: yes",
            f"labels already form an elimination ordering: {report['labels_are_elimination_ordering']}",
            f"one perfect elimination ordering (1-based): {report['elimination_ordering']}",
            f"forward neighbor counts ({scope}): {report['forward_neighbor_counts']}",
            f"minimum n under the noninformative prior: {report['min_n_noninformative']}",
        ]
        assert report["labels_are_elimination_ordering"] is (scope == "current labels")

    @pytest.mark.parametrize("graph", [{"k": 3.9, "edges": [[1.7, 2], [True, 3]]}, {"k": 3.0, "edges": []},
                                       {"k": True, "edges": []}, {"k": 3, "edges": [[1, 2.0]]},
                                       {"k": 3, "edges": [[True, 3]]}],
                             ids=["float-k-and-labels", "integral-float-k", "bool-k", "float-label", "bool-label"])
    def test_non_integer_count_or_label_refused(self, tmp_path, capsys, graph):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        assert run_cli("check-graph", "--graph", path) == 3
        record = error_record(capsys)
        assert record["error"] == "ParseError"
        assert record["message"].endswith("k and the edge labels must be JSON integers)"), record["message"]

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("check-graph", "--graph", bad) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"


class TestSimulate:
    def test_case_a_shape_and_truth(self, sim_dir):
        data, cols = read_dataset(sim_dir / "data.csv")
        assert data.shape == (200, 3) and cols == ["x1", "x2", "x3"]
        truth = json.loads((sim_dir / "truth.json").read_text())
        assert truth["delta"] == [2.0, 2.0, 2.0]
        assert truth["L"] == [[1, 2, -0.5], [2, 3, -0.5]]

    @pytest.mark.parametrize("argv, message", [
        (("--case", "A", "--seed", 1), "case A needs --delta"),
        (("--case", "B", "--seed", 1), "case B needs --l-value"),
        (("--case", "custom", "--seed", 1), "case custom needs --truth"),
        (("--case", "C", "--n", 0, "--seed", 1), "--n must be positive"),
        (("--case", "C", "--seed", -1), "--seed must be non-negative, got -1"),
        # more than a 64-bit process can map, so the allocation fails at once; past numpy's
        # largest array size, numpy refuses the shape with a ValueError instead
        (("--case", "C", "--n", 10**15, "--seed", 1), f"--n {10**15}: {10**15} draws of 3 values do not fit"),
        (("--case", "C", "--n", 10**20, "--seed", 1), f"--n {10**20}: {10**20} draws of 3 values do not fit"),
    ], ids=["A-without-delta", "B-without-l-value", "custom-without-truth", "n-zero", "negative-seed",
            "n-unallocatable", "n-past-numpy-limit"])
    def test_bad_settings_refused(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x"
        assert run_cli("simulate", *argv, "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "InvalidParams"
        assert record["message"].startswith(message), record["message"]
        assert not out.exists()

    def test_alpha_whose_square_overflows_refused(self, tmp_path, capsys):
        # alpha = delta sqrt(omega^2) = 1e200: 1 + alpha^2 overflows, so kappa^2 would round to 0
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"graph": {"k": 2, "edges": [[1, 2]]}, "mu": [0.0, 1.0], "delta": [1e200, 0.5],
                                     "omega2": [1.0, 1.0], "L": [[1, 2, 0.7]]}))
        out = tmp_path / "o"
        assert run_cli("simulate", "--case", "custom", "--truth", truth, "--seed", "1", "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "InvalidDomain"
        assert "alpha" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("entry", [[1.0, 2, 0.7], [1, 2.5, 0.7], [True, 2, 0.7]],
                             ids=["integral-float", "float", "bool"])
    def test_non_integer_truth_label_refused(self, tmp_path, capsys, entry):
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"graph": {"k": 2, "edges": [[1, 2]]}, "mu": [0.0, 1.0], "delta": [1.0, 0.5],
                                     "omega2": [1.0, 1.0], "L": [entry]}))
        out = tmp_path / "o"
        assert run_cli("simulate", "--case", "custom", "--truth", truth, "--seed", "1", "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "InvalidParams"
        assert record["message"] == f"truth L entry {entry} does not name an edge i < j of the graph"
        assert not out.exists()

    def test_kappa2_that_underflows_refused(self, tmp_path, capsys):
        # alpha = 1e170 sqrt(1e-40) = 1e150 is in range, but kappa^2 = 1e-40 / (1 + 1e300) rounds to 0
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"graph": {"k": 1, "edges": []}, "mu": [0.0], "delta": [1e170],
                                     "omega2": [1e-40], "L": []}))
        out = tmp_path / "o"
        assert run_cli("simulate", "--case", "custom", "--truth", truth, "--seed", "1", "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "InvalidDomain"
        assert "kappa^2 = omega^2 / (1 + alpha^2)" in record["message"]
        assert "entry 1 is 0.0" in record["message"]
        assert not out.exists()

    def test_case_c_middle_column_symmetric(self, tmp_path):
        out = tmp_path / "c"
        assert run_cli("simulate", "--case", "C", "--n", 300000, "--seed", "9", "--out", out) == 0
        data, _ = read_dataset(out / "data.csv")
        x = data[:, 1] - data[:, 1].mean()
        skew = (x**3).mean() / (x**2).mean() ** 1.5
        assert abs(skew) < 0.05

    def test_custom_case(self, tmp_path):
        truth_file = tmp_path / "truth_in.json"
        truth_file.write_text(
            json.dumps(
                {
                    "graph": {"k": 2, "edges": [[1, 2]]},
                    "mu": [0.0, 1.0],
                    "delta": [1.0, -1.0],
                    "omega2": [1.0, 2.0],
                    "L": [[1, 2, 0.7]],
                }
            )
        )
        out = tmp_path / "custom"
        assert run_cli("simulate", "--case", "custom", "--truth", truth_file, "--n", 50,
                       "--seed", "3", "--out", out) == 0
        data, _ = read_dataset(out / "data.csv")
        assert data.shape == (50, 2)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--case", "B", "--l-value", "-0.5", "--seed", "5",
                           "--out", out) == 0
        for name in ("data.csv", "truth.json", "graph.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("case,extra", [("A", ("--delta", "2")), ("B", ("--l-value", "0.5")), ("C", ())])
    def test_builtin_truth_round_trips_through_custom(self, tmp_path, case, extra):
        # the built-in cases are truth records, read by the code that reads --truth
        builtin, custom = tmp_path / "builtin", tmp_path / "custom"
        assert run_cli("simulate", "--case", case, *extra, "--seed", "8", "--out", builtin) == 0
        assert run_cli("simulate", "--case", "custom", "--truth", builtin / "truth.json",
                       "--seed", "8", "--out", custom) == 0
        for name in ("data.csv", "graph.json"):
            assert (builtin / name).read_bytes() == (custom / name).read_bytes(), name

    @pytest.mark.parametrize(
        "k,edges,entry",
        [(2, [[1, 2]], [1, 3, 0.5]), (2, [[1, 2]], [2, 1, 0.5]), (3, [[1, 2], [2, 3]], [1, 3, 0.5])],
        ids=["outside-the-matrix", "below-the-diagonal", "off-the-graph"],
    )
    def test_truth_l_entry_must_name_an_edge(self, tmp_path, capsys, k, edges, entry):
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"graph": {"k": k, "edges": edges}, "mu": [0.0] * k, "delta": [1.0] * k,
                                     "omega2": [1.0] * k, "L": [entry]}))
        out = tmp_path / "o"
        assert run_cli("simulate", "--case", "custom", "--truth", truth, "--seed", "1", "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "InvalidParams"
        assert f"truth L entry {entry}" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,truth",
        [(("--case", "B", "--l-value", "inf"), None), (("--case", "B", "--l-value=-inf"), None),
         (("--case", "A", "--delta", "nan"), None),
         (("--case", "custom"), {"mu": [0.0, float("nan")]}), (("--case", "custom"), {"omega2": [1.0, float("inf")]}),
         (("--case", "custom"), {"L": [[1, 2, float("-inf")]]}),
         (("--case", "custom"), {"graph": {"k": 3, "edges": [[1, 2], [2, 3]]}, "mu": [0.0] * 3, "delta": [0.0] * 3,
                                 "omega2": [1.0] * 3, "L": [[1, 2, 1e200], [2, 3, 1e200]]})],
        ids=["B-inf", "B-minus-inf", "A-nan", "custom-nan-mu", "custom-inf-omega2", "custom-inf-L",
             "custom-draws-overflow"],
    )
    def test_non_finite_truth_refused(self, tmp_path, capsys, argv, truth):
        if truth is not None:
            record = {"graph": {"k": 2, "edges": [[1, 2]]}, "mu": [0.0, 1.0], "delta": [1.0, -1.0],
                      "omega2": [1.0, 2.0], "L": [[1, 2, 0.7]], **truth}
            (tmp_path / "truth.json").write_text(json.dumps(record))
            argv = (*argv, "--truth", tmp_path / "truth.json")
        out = tmp_path / "o"
        assert run_cli("simulate", *argv, "--seed", "1", "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "InvalidParams"
        assert "finite" in record["message"]
        assert not out.exists()


class TestOutDir:
    """An --out that cannot hold the outputs ends in one OutputError record, before any work."""

    def test_fit_out_that_is_a_file_refused_before_sampling(self, sim_dir, tmp_path, capsys, monkeypatch):
        sweeps = []
        monkeypatch.setattr(inference, "gibbs_sweep", lambda *args, **kwargs: sweeps.append(1))
        out = tmp_path / "f"
        out.write_text("kept")
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", 100, "--seed", 1, "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "OutputError"
        assert record["message"] == f"--out {out}: {out} exists and is not a directory"
        assert sweeps == [] and out.read_text() == "kept"

    def test_compare_out_that_is_a_file_refused(self, sim_dir, tmp_path, capsys):
        fit = tmp_path / "fit"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", 100, "--seed", 1, "--out", fit) == 0
        out = tmp_path / "f"
        out.write_text("kept")
        capsys.readouterr()
        trace = fit / "trace.ndjson"
        assert run_cli("compare", "--trace-a", trace, "--trace-b", trace, "--out", out) == 3
        assert error_record(capsys)["error"] == "OutputError"
        assert out.read_text() == "kept"

    def test_simulate_out_under_a_file_refused(self, tmp_path, capsys):
        parent = tmp_path / "f"
        parent.write_text("kept")
        assert run_cli("simulate", "--case", "A", "--delta", "2", "--seed", "1", "--out", parent / "x") == 3
        record = error_record(capsys)
        assert record["error"] == "OutputError"
        assert record["message"] == f"--out {parent / 'x'}: {parent} exists and is not a directory"

    def test_failed_write_is_one_record(self, sim_dir, tmp_path, capsys, monkeypatch):
        def full_disk(self, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Trace, "save", full_disk)
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", 100, "--seed", 1, "--out", tmp_path / "o") == 3
        record = error_record(capsys)
        assert record["error"] == "OutputError"
        assert record["message"] == f"--out {tmp_path / 'o'}: [Errno 28] No space left on device"


@pytest.mark.parametrize("reader", ["graph", "truth", "trace"])
def test_deeply_nested_json_refused(tmp_path, capsys, reader):
    # Python's JSON parser raises RecursionError, not ValueError, on 100,000 nested arrays
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    argv = {"graph": ("check-graph", "--graph", nested),
            "truth": ("simulate", "--case", "custom", "--truth", nested, "--seed", 1, "--out", tmp_path / "o"),
            "trace": ("compare", "--trace-a", nested, "--trace-b", nested)}[reader]
    capsys.readouterr()
    assert run_cli(*argv) == 3
    assert error_record(capsys)["error"] == {"truth": "InvalidParams"}.get(reader, "ParseError")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("reader", ["graph", "truth"])
def test_vertex_cap_refused(tmp_path, capsys, reader):
    graph = {"k": MAX_VERTICES + 1, "edges": []}
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"graph": graph, "truth": {"graph": graph, "mu": [0.0], "delta": [0.0],
                                                          "omega2": [1.0], "L": []}}[reader]))
    argv = {"graph": ("check-graph", "--graph", path),
            "truth": ("simulate", "--case", "custom", "--truth", path, "--seed", 1, "--out", tmp_path / "o")}[reader]
    capsys.readouterr()
    assert run_cli(*argv) == 3
    record = error_record(capsys)
    assert record["error"] == {"graph": "ParseError", "truth": "InvalidParams"}[reader]
    assert f"exceeds the vertex cap of {MAX_VERTICES}" in record["message"]
    assert not (tmp_path / "o").exists()


class TestFit:
    def test_fit_outputs(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", 800, "--burnin", 200, "--thin", 4,
                       "--seed", 11, "--out", out) == 0
        trace = Trace.load(out / "trace.ndjson")
        assert len(trace) == 150
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "param,mean,sd,q2.5,q50,q97.5,ess"
        assert len(summary) == 1 + 3 * 3 + 2
        for col in ("x1", "x2", "x3"):
            assert (out / f"hist_{col}.csv").exists()
            assert (out / f"fitted_{col}.csv").exists()
        report = json.loads((out / "fit.json").read_text())
        assert report["retained_draws"] == 150
        assert report["data_digest"] == trace.meta["data_digest"]

    def test_single_row_noninformative_refused(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        data.write_text("a,b,c\n1.0,2.0,3.0\n")
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "noninfo",
                       "--iters", 100, "--seed", 1, "--out", tmp_path / "o") == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ProprietyViolation"

    def test_missing_values_rejected(self, tmp_path, capsys):
        data = tmp_path / "gap.csv"
        data.write_text("a,b\n1.0,2.0\n3.0,\n")
        graph = write_graph(tmp_path / "g.json", Graph(2, [(0, 1)]))
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "proper",
                       "--iters", 100, "--seed", 1, "--out", tmp_path / "o") == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"

    @pytest.mark.parametrize("row, message", [
        ("3.0,", ":3: missing value"),
        ("3.0, x", ": could not convert string to float: ' x'"),
        ("x, ", ":3: missing value"),
        (" ,x", ":3: missing value"),
    ], ids=["blank", "non-numeric", "non-numeric-then-blank", "blank-then-non-numeric"])
    def test_bad_field_message(self, tmp_path, capsys, row, message):
        data = tmp_path / "bad.csv"
        data.write_text(f"a,b\n1.0,2.0\n{row}\n")
        graph = write_graph(tmp_path / "g.json", Graph(2, [(0, 1)]))
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "proper",
                       "--iters", 100, "--seed", 1, "--out", tmp_path / "o") == 3
        assert error_record(capsys) == {"error": "ParseError", "message": f"{data}{message}"}

    def test_overlong_csv_field_refused(self, tmp_path, capsys):
        # longer than the csv module's field size limit (131072 characters)
        data = tmp_path / "long.csv"
        data.write_text("a,b\n" + "1" * 140_000 + ",2.0\n3.0,4.0\n")
        graph = write_graph(tmp_path / "g.json", Graph(2, [(0, 1)]))
        out = tmp_path / "o"
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "proper",
                       "--iters", 100, "--seed", 1, "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "ParseError" and "field larger than field limit" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("prior", ["proper", "wishart", "noninfo"])
    def test_ill_conditioned_start_state(self, tmp_path, prior):
        # rank-2 data plus 1e-7 noise with column scales over seven decades: the inverse of
        # the start covariance is asymmetric beyond the factorization's symmetry tolerance
        rng = np.random.default_rng(2)
        x = rng.standard_normal((300, 2)) @ rng.standard_normal((2, 12)) + 1e-7 * rng.standard_normal((300, 12))
        x *= 10 ** rng.uniform(-3, 4, 12)
        write_dataset(tmp_path / "ill.csv", x, [f"x{i + 1}" for i in range(12)])
        graph = write_graph(tmp_path / "g.json", Graph(12, [(i, j) for i in range(12) for j in range(i + 1, min(12, i + 3))]))
        out = tmp_path / "o"
        assert run_cli("fit", "--data", tmp_path / "ill.csv", "--graph", graph, "--prior", prior,
                       "--iters", 50, "--burnin", 10, "--thin", 10, "--seed", 1, "--out", out) == 0
        assert json.loads((out / "fit.json").read_text())["retained_draws"] == 4

    @pytest.mark.parametrize("prior", ["proper", "wishart", "noninfo"])
    def test_overflowing_covariance_refused(self, tmp_path, capsys, prior):
        # the skew fit and the baseline alike: the flat-mu baselines draw exactly and build no
        # start state, so the refusal comes from the data's statistics
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 3))
        x[:, 1] = 1e307 * (1.0 + 0.1 * rng.standard_normal(100))
        write_dataset(tmp_path / "huge.csv", x, ["a", "b", "c"])
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "o"
        for baseline in ([], ["--fix-delta-zero"]):
            assert run_cli("fit", "--data", tmp_path / "huge.csv", "--graph", graph, "--prior", prior,
                           "--iters", 50, "--seed", 1, *baseline, "--out", out) == 3
            record = error_record(capsys)
            assert record["error"] == "NumericalFailure", baseline
            assert record["message"] == "data: the scatter matrix of the data is not finite", baseline
            assert not out.exists()

    def test_degenerate_chain_reported(self, tmp_path, capsys):
        # the noninformative gate refuses two columns of range one ulp before sampling;
        # a proper prior whose omega^2 rate is almost zero samples them until a
        # conditional precision turns singular
        data = write_near_constant_csv(tmp_path / "flat.csv")
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "proper",
                       "--hyper", "b4=1e-300",
                       "--iters", 200, "--seed", 1, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "NumericalFailure"
        assert re.match(r"sweep [0-9]+, mu block: .*\(smallest eigenvalue \S+\)$",
                        record["message"]), record["message"]

    def test_failed_exact_draw_is_one_record(self, tmp_path, capsys):
        # the baseline under a flat-mu prior draws exactly; column 3 on a scale of 1e-160
        # has a residual sum of squares near 1e-318, so its omega^2 overflows
        x = np.random.default_rng(0).standard_normal((50, 3))
        x[:, 2] *= 1e-160
        write_dataset(tmp_path / "tiny.csv", x, ["a", "b", "c"])
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "o"
        assert run_cli("fit", "--data", tmp_path / "tiny.csv", "--graph", graph, "--prior", "noninfo",
                       "--iters", 200, "--seed", 1, "--fix-delta-zero", "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "NumericalFailure"
        assert record["message"].startswith("exact draw, row 3: floating-point overflow "), record["message"]
        assert not out.exists()

    def test_constant_columns_refused_under_noninfo(self, tmp_path, capsys):
        # the noninformative prior's posterior needs data in general position
        data = tmp_path / "flat.csv"
        data.write_text("a,b,c\n" + "".join(f"{float(i)},3.0,3.0\n" for i in range(40)))
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "o"
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "noninfo",
                       "--iters", 200, "--seed", 1, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "ProprietyViolation"
        assert "column(s) [2, 3] are constant" in record["message"]
        assert not out.exists()

    def test_near_constant_columns_refused_under_noninfo(self, tmp_path, capsys, monkeypatch):
        # columns of range one ulp are constant to working precision: refused before any sweep
        sweeps = []
        gibbs_sweep = inference.gibbs_sweep

        def counted_sweep(*args, **kwargs):
            sweeps.append(1)
            return gibbs_sweep(*args, **kwargs)

        monkeypatch.setattr(inference, "gibbs_sweep", counted_sweep)
        data = write_near_constant_csv(tmp_path / "flat.csv")
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "o"
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "noninfo",
                       "--iters", 200, "--seed", 1, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "ProprietyViolation"
        assert "column(s) [2, 3] are constant" in record["message"]
        assert sweeps == []
        assert not out.exists()

    @pytest.mark.parametrize("prior", ["proper", "wishart"])
    def test_near_constant_column_plot_data(self, tmp_path, prior):
        # a range of one ulp holds no 20 finite-sized histogram bins once padded by 15%
        data = write_near_constant_csv(tmp_path / "flat.csv")
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "o"
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", prior,
                       "--iters", 200, "--seed", 1, "--out", out) == 0
        assert json.loads((out / "fit.json").read_text())["retained_draws"] == 16
        for kind in ("hist", "fitted"):
            for col in ("a", "b", "c"):
                values = np.loadtxt(out / f"{kind}_{col}.csv", delimiter=",", skiprows=1)
                assert values.shape[0] > 0 and np.all(np.isfinite(values)), f"{kind}_{col}"

    @pytest.mark.parametrize("column", [[1e20] * 4, [1.7e18 + 256 * j for j in range(4)]],
                             ids=["constant-1e20", "timestamp-like"])
    def test_plot_data_of_a_column_narrower_than_the_float_spacing(self, tmp_path, column):
        # at 1e20 and 1.7e18 a pad of 0.15 is below the float spacing (16384 and 256), so the
        # padded range holds no 20 finite-sized bins; the pad grows with the column's magnitude
        data = tmp_path / "wide.csv"
        data.write_text("a,b,c\n" + "".join(f"{float(i)!r},{column[i % 4]!r},{float(i * 7 % 11)!r}\n"
                                            for i in range(50)))
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "o"
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "proper",
                       "--iters", 200, "--seed", 1, "--out", out) == 0
        assert (out / "fit.json").exists()
        hist = np.loadtxt(out / "hist_b.csv", delimiter=",", skiprows=1)
        assert hist.shape == (cli.PLOT_BINS, 4) and np.all(np.isfinite(hist))
        assert np.all(hist[:, 1] > hist[:, 0]) and hist[:, 2].sum() == 50
        fitted = np.loadtxt(out / "fitted_b.csv", delimiter=",", skiprows=1)
        assert fitted.shape[0] > 0 and np.all(np.isfinite(fitted))

    @pytest.mark.parametrize(
        "header",
        ["a/b,c", "x,x", "a,", ".,c", "..,c", "a\\b,c", "a\0b,c"],
        ids=["slash", "duplicate", "empty", "dot", "dot-dot", "backslash", "nul"],
    )
    def test_unusable_column_names_rejected(self, tmp_path, capsys, header):
        # column names become output file names (hist_<name>.csv, fitted_<name>.csv)
        data = tmp_path / "named.csv"
        data.write_text(header + "\n" + "".join(f"{i}.0,{i % 3}.5\n" for i in range(30)))
        graph = write_graph(tmp_path / "g.json", Graph(2, [(0, 1)]))
        out = tmp_path / "o"
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "noninfo",
                       "--iters", 50, "--seed", 1, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "ParseError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "iters,burnin,thin,seed,message",
        [(10, 20, 10, 1, "retain no draws"), (100, 20, 0, 1, "retain no draws"), (5, 0, 10, 1, "retain no draws"),
         (100, 20, 10, -1, "seed -1 is negative"),
         # more than a 64-bit process can map, so the allocation fails at once; past numpy's
         # largest array size, numpy refuses the shape with a ValueError instead
         (10**15, 0, 1, 1, f"{10**15} retained draws of 3 vertices do not fit in memory"),
         (10**20, 0, 1, 1, f"{10**20} retained draws of 3 vertices do not fit in memory")],
        ids=["burnin-past-iters", "thin-zero", "no-retained-draws", "negative-seed", "draws-unallocatable",
             "draws-past-numpy-limit"],
    )
    def test_bad_chain_settings_reported(self, sim_dir, tmp_path, capsys, iters, burnin, thin, seed, message):
        out = tmp_path / "o"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", iters, "--burnin", burnin, "--thin", thin,
                       "--seed", seed, "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "InvalidChainSettings"
        assert message in record["message"], record["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "prior,hyper",
        [("noninfo", "b1=0"), ("proper", "b2=abc"), ("proper", "b5=-1"), ("wishart", "Psi={tmp}/psi.json"),
         ("proper", "B2=5"), ("proper", "b6=1"), ("proper", "psi=3"), ("noninfo", "b2=5"), ("wishart", "b2=5"),
         ("noninfo", "b1=nan"), ("proper", "mu0=1,nan,2"), ("wishart", "psi=3,nan,3"),
         ("proper", "b2=1e-320"), ("proper", "b5=1e-320"), ("proper", "mu0=1,2"),
         ("wishart", "Psi={tmp}/deep.json"), ("proper", "b1=inf"), ("proper", "b2=inf"), ("proper", "b3=inf"),
         ("proper", "b4=inf"), ("proper", "b5=inf"), ("noninfo", "b1=inf"), ("wishart", "b1=inf"),
         ("wishart", "psi=inf"), ("wishart", "Psi={tmp}/inf.json")],
        ids=["noninfo-b1-zero", "proper-b2-text", "proper-b5-negative", "wishart-psi-not-a-matrix",
             "proper-B2-typo", "proper-b6-unknown", "proper-psi-unread", "noninfo-b2-unread",
             "wishart-b2-unread", "noninfo-b1-nan", "proper-mu0-nan", "wishart-psi-nan",
             "proper-b2-reciprocal-overflows", "proper-b5-reciprocal-overflows", "proper-mu0-two-of-three",
             "wishart-Psi-deeply-nested", "proper-b1-inf", "proper-b2-inf", "proper-b3-inf", "proper-b4-inf",
             "proper-b5-inf", "noninfo-b1-inf", "wishart-b1-inf", "wishart-psi-inf", "wishart-Psi-inf"],
    )
    def test_bad_hyper_reported(self, sim_dir, tmp_path, capsys, prior, hyper):
        (tmp_path / "psi.json").write_text("{}")
        (tmp_path / "deep.json").write_text("[" * 100_000)  # Python's JSON parser raises RecursionError
        (tmp_path / "inf.json").write_text("[[Infinity, 0, 0], [0, 1, 0], [0, 0, 1]]")
        out = tmp_path / "o"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", prior, "--hyper", hyper.format(tmp=tmp_path),
                       "--iters", 100, "--seed", 1, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "InvalidParams"
        assert not out.exists()

    def test_unread_hyper_keys_named(self, sim_dir, tmp_path, capsys):
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "proper", "--hyper", "B2=5", "--hyper", "b6=1", "--hyper", "b2=5",
                       "--iters", 100, "--seed", 1, "--out", tmp_path / "o") == 3
        message = json.loads(capsys.readouterr().err)["message"]
        assert message == "--hyper B2, b6: the proper prior reads only b1, mu0, b2, b3, b4, b5"

    def test_repeated_hyper_key_refused(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "proper", "--hyper", "b2=5", "--hyper", "b2=7",
                       "--iters", 100, "--seed", 1, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "InvalidParams"
        assert record["message"] == "--hyper b2 is given more than once"
        assert not out.exists()

    def test_huge_omega2_draws_summarized_finite(self, sim_dir, tmp_path, capsys):
        # a gamma rate of 1e300 puts omega^2 near 1e301, whose squares overflow
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                           "--prior", "proper", "--hyper", "b3=1e300",
                           "--iters", 200, "--seed", 1, "--out", out) == 0
        assert capsys.readouterr().err == ""
        with (out / "summary.csv").open() as fh:
            rows = {row["param"]: row for row in csv.DictReader(fh)}
        assert float(rows["omega2_1"]["mean"]) > 1e290
        assert all(np.isfinite(float(row["sd"])) and np.isfinite(float(row["ess"])) for row in rows.values())

    @pytest.mark.parametrize("b3", ["1e305", "1e307"])
    def test_overflowing_sweep_is_one_record(self, tmp_path, b3):
        # omega^2 draws near the top of the float range overflow the products that the
        # other blocks form from them; the chain ends there, before numpy can print a warning
        sim = tmp_path / "sim"
        assert run_cli("simulate", "--case", "A", "--delta", "2", "--seed", "1", "--out", sim) == 0
        out = tmp_path / "o"
        result = subprocess.run(
            [sys.executable, "-m", "sgdg", "fit", "--data", sim / "data.csv", "--graph", sim / "graph.json",
             "--prior", "proper", "--hyper", f"b3={b3}", "--iters", "200", "--seed", "1", "--out", out],
            env={**os.environ, "PYTHONPATH": str(Path(sgdg.__file__).resolve().parents[1])},
            capture_output=True, text=True,
        )
        assert result.returncode == 3 and result.stderr.count("\n") == 1, result.stderr
        record = json.loads(result.stderr)
        assert record["error"] == "NumericalFailure"
        # the overflow is in the products of the L block's conditional
        sweep, block = {"1e305": (17, "L block, row 1"), "1e307": (3, "L block, row 1")}[b3]
        assert record["message"].startswith(f"sweep {sweep}, {block}: floating-point overflow "), record["message"]
        assert not out.exists()

    def _fitted(self, out, col):
        return np.loadtxt(out / f"fitted_{col}.csv", delimiter=",", skiprows=1, unpack=True)

    def test_baseline_fitted_density_is_the_gaussian_marginal(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", 400, "--burnin", 100, "--fix-delta-zero",
                       "--seed", 5, "--out", out) == 0
        p = _posterior_mean_params(Trace.load(out / "trace.ndjson"))
        L = p.L
        cov = np.linalg.inv(L.T @ np.diag(p.kappa2) @ L)  # alpha = 0: N(mu, (L' D_kappa L)^-1)
        for j, col in enumerate(("x1", "x2", "x3")):
            grid, dens = self._fitted(out, col)
            expected = norm.pdf(grid, p.mu[j], np.sqrt(cov[j, j]))
            np.testing.assert_allclose(dens, expected, rtol=0, atol=1e-12 * expected.max())

    def test_fitted_density_with_one_loading_is_azzalinis_skew_normal(self, sim_dir, tmp_path):
        # the last coordinate loads only its own half-normal: X_k = mu_k + b |Z1_k| + s Z
        out = tmp_path / "fit"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", 400, "--burnin", 100,
                       "--seed", 5, "--out", out) == 0
        p = _posterior_mean_params(Trace.load(out / "trace.ndjson"))
        scale = np.sqrt(p.kappa2[2] * (1.0 + p.alpha[2] ** 2))
        b, s = p.alpha[2] / scale, 1.0 / scale
        omega = np.hypot(b, s)
        grid, dens = self._fitted(out, "x3")
        z = (grid - p.mu[2]) / omega
        expected = 2.0 / omega * norm.pdf(z) * norm.cdf(b / s * z)
        assert abs(b / s) > 0.5  # the fit is visibly skewed, so a Gaussian answer would fail
        np.testing.assert_allclose(dens, expected, rtol=0, atol=1e-12 * expected.max())

    def test_wishart_gate_refusal(self, sim_dir, tmp_path, capsys):
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "wishart", "--hyper", "psi=1,1,1",
                       "--iters", 100, "--seed", 1, "--out", tmp_path / "o") == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ProprietyViolation"

    def test_simulate_fit_round_trip_recovers_truth(self, sim_dir, tmp_path):
        out = tmp_path / "roundtrip"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", 3000, "--burnin", 600, "--thin", 3,
                       "--seed", 17, "--out", out) == 0
        truth = json.loads((sim_dir / "truth.json").read_text())
        targets = {f"delta_{i + 1}": truth["delta"][i] for i in range(3)}
        targets.update({f"L_{a}_{b}": v for a, b, v in truth["L"]})
        rows = {}
        with open(out / "summary.csv", newline="") as fh:
            import csv as _csv

            for row in _csv.DictReader(fh):
                rows[row["param"]] = row
        for param, target in targets.items():
            mean, sd = float(rows[param]["mean"]), float(rows[param]["sd"])
            assert abs(mean - target) < 3 * sd, f"{param}: {mean} vs truth {target} (sd {sd})"

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                           "--prior", "proper", "--iters", 400, "--burnin", 100,
                           "--seed", 21, "--out", out) == 0
        names = ["trace.ndjson", "summary.csv", "fit.json"] + [
            f"{kind}_{col}.csv" for kind in ("hist", "fitted") for col in ("x1", "x2", "x3")
        ]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_every_error_class_of_the_package_ends_as_one_record(tmp_path, capsys, monkeypatch):
    # main reports an error by the module of its class, so a class added anywhere in the
    # package is reported without being listed; any other exception keeps its traceback
    names = [m.name for m in pkgutil.walk_packages(sgdg.__path__, "sgdg.") if m.name != "sgdg.__main__"]
    defined = {
        obj for mod in map(importlib.import_module, names) for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == mod.__name__
    }
    assert {"ParseError", "NotDecomposable", "NumericalFailure", "EmptyTrace"} <= {cls.__name__ for cls in defined}

    def check_graph_raising(cls):
        def load_graph(path):
            raise cls(f"{cls.__name__} raised in a command")

        monkeypatch.setattr(cli, "load_graph", load_graph)
        return run_cli("check-graph", "--graph", tmp_path / "g.json")

    for cls in sorted(defined, key=lambda c: c.__name__):
        assert check_graph_raising(cls) == 3
        assert error_record(capsys) == {"error": cls.__name__, "message": f"{cls.__name__} raised in a command"}
    with pytest.raises(TypeError, match="TypeError raised in a command"):
        check_graph_raising(TypeError)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import, paid by every command
    src = Path(sgdg.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", "import sgdg.cli, sys; assert 'scipy.stats' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


class TestCompare:
    def _fit(self, sim_dir, tmp_path, tag, seed, extra=()):
        out = tmp_path / tag
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", 600, "--burnin", 150, "--thin", 3,
                       "--seed", seed, "--out", out, *extra) == 0
        return out / "trace.ndjson"

    def test_same_trace_gives_zero(self, sim_dir, tmp_path, capsys):
        t = self._fit(sim_dir, tmp_path, "one", 31)
        assert run_cli("compare", "--trace-a", t, "--trace-b", t, "--out", tmp_path / "cmp") == 0
        report = json.loads((tmp_path / "cmp" / "compare.json").read_text())
        assert report["log_bayes_factor_a_over_b"] == 0.0

    def test_skew_data_favors_skew_model(self, sim_dir, tmp_path):
        ta = self._fit(sim_dir, tmp_path, "skew", 33)
        tb = self._fit(sim_dir, tmp_path, "gauss", 34, extra=("--fix-delta-zero",))
        assert run_cli("compare", "--trace-a", ta, "--trace-b", tb, "--out", tmp_path / "cmp2") == 0
        report = json.loads((tmp_path / "cmp2" / "compare.json").read_text())
        assert report["log_bayes_factor_a_over_b"] > 0

    def test_mismatched_data_rejected(self, sim_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert run_cli("simulate", "--case", "C", "--seed", "50", "--out", other) == 0
        ta = self._fit(sim_dir, tmp_path, "a", 41)
        out_b = tmp_path / "bfit"
        assert run_cli("fit", "--data", other / "data.csv", "--graph", other / "graph.json",
                       "--prior", "noninfo", "--iters", 400, "--seed", 42, "--out", out_b) == 0
        assert run_cli("compare", "--trace-a", ta, "--trace-b", out_b / "trace.ndjson") == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DataMismatch"

    @pytest.mark.parametrize("prior_b, graph_b", [("proper", None), (None, Graph(3, [(0, 1)]))],
                             ids=["prior", "graph"])
    def test_traces_of_other_prior_or_graph_refused(self, sim_dir, tmp_path, capsys, prior_b, graph_b):
        # a skew and a baseline fit of the same data compare only under one prior and one graph
        ta = self._fit(sim_dir, tmp_path, "a", 51)
        graph = sim_dir / "graph.json" if graph_b is None else write_graph(tmp_path / "g.json", graph_b)
        out_b = tmp_path / "b"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", graph, "--prior", prior_b or "noninfo",
                       "--iters", 300, "--seed", 3, "--fix-delta-zero", "--out", out_b) == 0
        capsys.readouterr()
        assert run_cli("compare", "--trace-a", ta, "--trace-b", out_b / "trace.ndjson") == 3
        record = error_record(capsys)
        assert record["error"] == "DataMismatch"
        assert record["message"] == ("traces were not fitted under the same prior" if graph_b is None
                                     else "traces were not fitted on the same graph")

    @pytest.mark.parametrize("defect", ["truncated", "empty", "missing", "no-digest", "no-prior", "no-draws",
                                        "nan-loglik", "text-loglik", "true-loglik", "false-delta",
                                        "object-loglik", "short-mu", "short-L", "edge-order", "k-off-graph",
                                        "k-above-cap", "no-schema", "schema-2", "float-k", "float-edge-order",
                                        "float-graph-label"])
    def test_unreadable_trace_reported(self, sim_dir, tmp_path, capsys, defect):
        good = self._fit(sim_dir, tmp_path, "good", 45)
        bad = tmp_path / "bad.ndjson"
        text = good.read_text()
        meta, first, *rest = text.splitlines(keepends=True)
        if defect == "truncated":
            bad.write_text(text[: len(text) - 40])
        elif defect == "empty":
            bad.write_text("")
        elif defect in ("no-digest", "no-prior"):
            record = json.loads(meta)
            del record["data_digest" if defect == "no-digest" else "prior"]
            bad.write_text(json.dumps(record) + "\n" + first + "".join(rest))
        elif defect in ("no-schema", "schema-2"):
            record = json.loads(meta)
            if defect == "no-schema":
                del record["schema"]
            else:
                record["schema"] = 2
            bad.write_text(json.dumps(record) + "\n" + first + "".join(rest))
        elif defect == "no-draws":
            bad.write_text(meta)
        elif defect in ("nan-loglik", "text-loglik", "object-loglik"):
            record = json.loads(first)
            record["loglik"] = {"nan-loglik": float("nan"), "text-loglik": "x", "object-loglik": {"a": 1}}[defect]
            bad.write_text(meta + json.dumps(record) + "\n" + "".join(rest))
        elif defect in ("true-loglik", "false-delta"):  # np.asarray would read them as 1.0 and 0.0
            record = json.loads(first)
            if defect == "true-loglik":
                record["loglik"] = True
            else:
                record["delta"][1] = False
            bad.write_text(meta + json.dumps(record) + "\n" + "".join(rest))
        elif defect in ("short-mu", "short-L"):  # every draw one entry short, so the arrays stack
            field = defect.split("-")[1]
            records = [json.loads(line) for line in (first, *rest)]
            for record in records:
                del record[field][-1]
            bad.write_text(meta + "".join(json.dumps(r) + "\n" for r in records))
        elif defect in ("edge-order", "k-off-graph", "k-above-cap", "float-k", "float-edge-order",
                        "float-graph-label"):
            record = json.loads(meta)
            if defect == "edge-order":
                record["edge_order"].reverse()
            elif defect == "k-off-graph":
                record["k"] += 1
            elif defect == "float-k":  # equal to the graph's k, but summaries index by it
                record["k"] = float(record["k"])
            elif defect == "float-edge-order":
                record["edge_order"][0][0] = float(record["edge_order"][0][0])
            elif defect == "float-graph-label":
                record["graph"]["edges"][0][0] = float(record["graph"]["edges"][0][0])
            else:
                record["graph"]["k"] = record["k"] = MAX_VERTICES + 1
            bad.write_text(json.dumps(record) + "\n" + first + "".join(rest))
        capsys.readouterr()
        assert run_cli("compare", "--trace-a", good, "--trace-b", bad) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "ParseError"
        assert record["message"].startswith(str(bad))
        if defect == "truncated":
            assert f"line {text.count(chr(10))}," in record["message"]
        if defect == "k-above-cap":
            assert f"exceeds the vertex cap of {MAX_VERTICES}" in record["message"]
        if "schema" in defect:
            assert record["message"].endswith(", not 1"), record["message"]
        if defect in ("true-loglik", "false-delta"):
            assert "is not numeric (it holds a JSON boolean)" in record["message"], record["message"]

    def test_mix_weight_out_of_range_reported(self, sim_dir, tmp_path, capsys):
        t = self._fit(sim_dir, tmp_path, "mw", 47)
        capsys.readouterr()
        assert run_cli("compare", "--trace-a", t, "--trace-b", t, "--mix-weight", 1.5) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "InvalidParams"

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path, capsys):
        t = self._fit(sim_dir, tmp_path, "det", 43)
        for tag in ("c1", "c2"):
            assert run_cli("compare", "--trace-a", t, "--trace-b", t, "--out", tmp_path / tag) == 0
        report = (tmp_path / "c1" / "compare.json").read_text()
        assert (tmp_path / "c2" / "compare.json").read_text() == report
        capsys.readouterr()
        assert run_cli("compare", "--trace-a", t, "--trace-b", t) == 0  # without --out, the report goes to stdout
        assert capsys.readouterr().out == report + "log Bayes factor (A over B) = 0.0000 (favors neither)\n"
