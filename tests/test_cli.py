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
from sgdg import inference
from sgdg.cli import (
    _DOMAIN_ERRORS,
    _posterior_mean_params,
    main,
    read_dataset,
    write_dataset,
)
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

    def test_case_a_requires_delta(self, tmp_path, capsys):
        assert run_cli("simulate", "--case", "A", "--seed", "1", "--out", tmp_path / "x") == 3
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidParams"

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
        rng = np.random.default_rng(0)
        x = rng.standard_normal((100, 3))
        x[:, 1] = 1e307 * (1.0 + 0.1 * rng.standard_normal(100))
        write_dataset(tmp_path / "huge.csv", x, ["a", "b", "c"])
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "o"
        assert run_cli("fit", "--data", tmp_path / "huge.csv", "--graph", graph, "--prior", prior,
                       "--iters", 50, "--seed", 1, "--out", out) == 3
        record = error_record(capsys)
        assert record["error"] == "NumericalFailure" and record["message"].startswith("start state: ")
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
        "iters,burnin,thin",
        [(10, 20, 10), (100, 20, 0), (5, 0, 10)],
        ids=["burnin-past-iters", "thin-zero", "no-retained-draws"],
    )
    def test_bad_chain_settings_reported(self, sim_dir, tmp_path, capsys, iters, burnin, thin):
        out = tmp_path / "o"
        assert run_cli("fit", "--data", sim_dir / "data.csv", "--graph", sim_dir / "graph.json",
                       "--prior", "noninfo", "--iters", iters, "--burnin", burnin, "--thin", thin,
                       "--seed", 1, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "InvalidChainSettings"
        assert not out.exists()

    @pytest.mark.parametrize(
        "prior,hyper",
        [("noninfo", "b1=0"), ("proper", "b2=abc"), ("proper", "b5=-1"), ("wishart", "Psi={tmp}/psi.json"),
         ("proper", "B2=5"), ("proper", "b6=1"), ("proper", "psi=3"), ("noninfo", "b2=5"), ("wishart", "b2=5"),
         ("noninfo", "b1=nan"), ("proper", "mu0=1,nan,2"), ("wishart", "psi=3,nan,3"),
         ("proper", "b2=1e-320"), ("proper", "b5=1e-320")],
        ids=["noninfo-b1-zero", "proper-b2-text", "proper-b5-negative", "wishart-psi-not-a-matrix",
             "proper-B2-typo", "proper-b6-unknown", "proper-psi-unread", "noninfo-b2-unread",
             "wishart-b2-unread", "noninfo-b1-nan", "proper-mu0-nan", "wishart-psi-nan",
             "proper-b2-reciprocal-overflows", "proper-b5-reciprocal-overflows"],
    )
    def test_bad_hyper_reported(self, sim_dir, tmp_path, capsys, prior, hyper):
        (tmp_path / "psi.json").write_text("{}")
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
        rows = {row["param"]: row for row in csv.DictReader((out / "summary.csv").open())}
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
        assert re.match(r"sweep [0-9]+, floating-point overflow ", record["message"]), record["message"]
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


def test_domain_errors_cover_every_error_class():
    # a class left out of the allowlist would end in a traceback, not exit 3 with a record
    names = [m.name for m in pkgutil.walk_packages(sgdg.__path__, "sgdg.") if m.name != "sgdg.__main__"]
    defined = {
        obj for mod in map(importlib.import_module, names) for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == mod.__name__
    }
    # EmptyTrace is library-only: run_chain never returns an empty trace, and compare
    # refuses one as ParseError
    assert {cls for cls in defined if cls not in _DOMAIN_ERRORS} == {inference.EmptyTrace}


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

    @pytest.mark.parametrize("defect", ["truncated", "empty", "missing", "no-digest", "no-draws", "nan-loglik", "text-loglik",
                                        "object-loglik", "short-mu", "short-L", "edge-order", "k-off-graph",
                                        "k-above-cap", "no-schema", "schema-2"])
    def test_unreadable_trace_reported(self, sim_dir, tmp_path, capsys, defect):
        good = self._fit(sim_dir, tmp_path, "good", 45)
        bad = tmp_path / "bad.ndjson"
        text = good.read_text()
        meta, first, *rest = text.splitlines(keepends=True)
        if defect == "truncated":
            bad.write_text(text[: len(text) - 40])
        elif defect == "empty":
            bad.write_text("")
        elif defect == "no-digest":
            record = json.loads(meta)
            del record["data_digest"]
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
        elif defect in ("short-mu", "short-L"):  # every draw one entry short, so the arrays stack
            field = defect.split("-")[1]
            records = [json.loads(line) for line in (first, *rest)]
            for record in records:
                del record[field][-1]
            bad.write_text(meta + "".join(json.dumps(r) + "\n" for r in records))
        elif defect in ("edge-order", "k-off-graph", "k-above-cap"):
            record = json.loads(meta)
            if defect == "edge-order":
                record["edge_order"].reverse()
            elif defect == "k-off-graph":
                record["k"] += 1
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

    def test_mix_weight_out_of_range_reported(self, sim_dir, tmp_path, capsys):
        t = self._fit(sim_dir, tmp_path, "mw", 47)
        capsys.readouterr()
        assert run_cli("compare", "--trace-a", t, "--trace-b", t, "--mix-weight", 1.5) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "InvalidParams"

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        t = self._fit(sim_dir, tmp_path, "det", 43)
        for tag in ("c1", "c2"):
            assert run_cli("compare", "--trace-a", t, "--trace-b", t, "--out", tmp_path / tag) == 0
        assert (tmp_path / "c1" / "compare.json").read_bytes() == (tmp_path / "c2" / "compare.json").read_bytes()
