import json

import pytest

from sgdg.cli import main, read_dataset
from sgdg.graph import Graph
from sgdg.inference import Trace


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_graph(path, g):
    g.save(path)
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

    def test_degenerate_chain_reported(self, tmp_path, capsys):
        # two constant columns leave a conditional precision singular
        data = tmp_path / "flat.csv"
        data.write_text("a,b,c\n" + "".join(f"{float(i)},3.0,3.0\n" for i in range(40)))
        graph = write_graph(tmp_path / "g.json", Graph(3, [(0, 1), (1, 2)]))
        assert run_cli("fit", "--data", data, "--graph", graph, "--prior", "noninfo",
                       "--iters", 200, "--seed", 1, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error"] == "NumericalFailure"

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

    @pytest.mark.parametrize("defect", ["truncated", "empty", "missing"])
    def test_unreadable_trace_reported(self, sim_dir, tmp_path, capsys, defect):
        good = self._fit(sim_dir, tmp_path, "good", 45)
        bad = tmp_path / "bad.ndjson"
        text = good.read_text()
        if defect == "truncated":
            bad.write_text(text[: len(text) - 40])
        elif defect == "empty":
            bad.write_text("")
        capsys.readouterr()
        assert run_cli("compare", "--trace-a", good, "--trace-b", bad) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        record = json.loads(err)
        assert record["error"] == "ParseError"
        assert record["message"].startswith(str(bad))
        if defect == "truncated":
            assert f"line {text.count(chr(10))}," in record["message"]

    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        t = self._fit(sim_dir, tmp_path, "det", 43)
        for tag in ("c1", "c2"):
            assert run_cli("compare", "--trace-a", t, "--trace-b", t, "--out", tmp_path / tag) == 0
        assert (tmp_path / "c1" / "compare.json").read_bytes() == (tmp_path / "c2" / "compare.json").read_bytes()
