"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import sgdg.cli  # noqa: E402
from perfbench.layers import UNITS, layer_metrics  # noqa: E402
from perfbench.run import END_TO_END_UNITS  # noqa: E402
from perfbench.tracer import TARGETS, Tracer  # noqa: E402
from perfbench.worker import SpeedProbe  # noqa: E402
from perfbench.workloads import generate  # noqa: E402


def _short_pipeline(run_dir, monkeypatch):
    """A short simC fit, baseline fit and compare, with inputs in ../inputs."""
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    fit = ["--data", "../inputs/data.csv", "--graph", "../inputs/graph.json", "--prior", "wishart",
           "--iters", "60", "--burnin", "20", "--thin", "1"]
    for argv in (["fit", *fit, "--seed", "5", "--out", "skew"],
                 ["fit", *fit, "--seed", "6", "--fix-delta-zero", "--out", "gauss"],
                 ["compare", "--trace-a", "skew/trace.ndjson", "--trace-b", "gauss/trace.ndjson",
                  "--out", "cmp"]):
        assert sgdg.cli.main(argv) == 0
    return {p.relative_to(run_dir): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}


def test_wrappers_leave_outputs_byte_identical(tmp_path, monkeypatch):
    generate("simC_wishart", 3, tmp_path / "inputs")
    plain = _short_pipeline(tmp_path / "plain", monkeypatch)
    tracer = Tracer()
    assert tracer.install() == []
    try:
        traced = _short_pipeline(tmp_path / "traced", monkeypatch)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert len(plain) > 10  # traces, summaries, plot data and compare.json
    names = {s[0] for s in tracer.spans}
    assert {"cli.cmd_fit", "inference.gibbs_sweep", "graph.forward_neighbors",
            "csn.sample_truncated_normal", "inference.trace_load"} <= names
    assert all(s[1] <= s[2] for s in tracer.spans)


def test_missing_target_is_reported_absent_and_originals_restored():
    original = sgdg.cli.cmd_fit
    missing = (("sgdg.inference", "no_such_function", "x"), ("sgdg.no_such_module", "f", "y"),
               ("sgdg.graph", "Graph.no_such_method", "z"))
    tracer = Tracer(TARGETS[:1] + missing)
    assert tracer.install() == ["sgdg.inference.no_such_function", "sgdg.no_such_module.f",
                                "sgdg.graph.Graph.no_such_method"]
    assert sgdg.cli.cmd_fit is not original
    tracer.uninstall()
    assert sgdg.cli.cmd_fit is original


def test_generator_is_deterministic_per_seed(tmp_path):
    for name in ("banded", "simC_wishart", "marks"):
        a, b, c = (tmp_path / f"{name}{i}" for i in "abc")
        generate(name, 11, a)
        generate(name, 11, b)
        generate(name, 12, c)
        for f in ("data.csv", "graph.json", "truth.json"):
            assert (a / f).read_bytes() == (b / f).read_bytes(), (name, f)
        if name != "marks":  # the bundled marks data do not depend on the seed
            assert (a / "data.csv").read_bytes() != (c / "data.csv").read_bytes()


def test_layer_metrics_self_time_and_tail():
    # one fit of 20 sweeps, each 100 ns with a 30 ns L block; then one compare
    spans = [["cli.cmd_fit", 0, 10_000, -1, None]]
    for s in range(20):
        t = 100 + 200 * s
        sweep = len(spans)
        spans.append(["inference.gibbs_sweep", t, t + 100 + s, 0, None])
        spans.append(["inference.update_L", t + 10, t + 40, sweep, None])
    spans.append(["cli.cmd_compare", 20_000, 20_500, -1, None])
    spans.append(["evidence.estimate_log_marginal", 20_100, 20_300, len(spans) - 1, None])
    commands = [["fit", 0, 41], ["compare", 41, 43]]
    m = layer_metrics(spans, commands, retained=10)
    assert m["inference.sweep_us.count"] == 20
    assert m["inference.sweep_us.tail_pct"] == 50.0  # 20 sweeps leave ten beyond p50 only
    assert m["inference.L_us"] == 0.03
    assert m["inference.sweep_self_us"] == (109.5 - 30) / 1e3
    assert m["evidence.estimate_ms"] == 200 / 1e6


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == UNITS


def test_speed_probe_averages_the_window_and_falls_back_to_the_nearest():
    probe = SpeedProbe()
    probe.samples = [(0.0, 1.0), (1.0, 3.0), (5.0, 7.0)]
    assert probe.speed(0.9, 1.1) == 3.0
    assert probe.speed(0.2, 0.8) == 2.0  # both probes fall in the widened window
    assert probe.speed(3.0, 3.2) == 7.0  # none inside: the probe nearest the middle
