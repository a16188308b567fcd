"""The sgdg benchmark: time the paper's pipeline through the CLI and check its outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload marks --seed 1 --seconds 35 --trace 0

Each workload (see `perfbench/workloads.py`) is generated from the seed into
``.perfbench-work/<workload>/inputs``. A pipeline is one fresh interpreter that
runs ``sgdg fit``, ``sgdg fit --fix-delta-zero`` and ``sgdg compare`` on those
inputs (`perfbench/worker.py`); every pipeline of a run fits with the same
seeds, derived from the seed (or from a fixed one, per workload). BLAS is
pinned to one thread in every worker.

``--trace 0`` (end-to-end): pipelines one after another (a closed loop with
one client) until the next one would overrun ``--seconds``, then a few set-up
probes, spread over the time left, that also repeat ``sgdg compare`` on the
last traces. Each timing (``fit_s``, ``baseline_fit_s``, ``compare_s``,
``setup_s``) is the median over the run's repeats, each repeat scaled to a
reference host speed: while a repeat runs, the worker times a fixed
pure-Python loop ten times a second (`perfbench.worker.SpeedProbe`), and the
repeat is multiplied by ``REFERENCE_PROBE_S`` over the mean of those probe
times. On a shared 2-vCPU host the probe and the commands both switched
between two speeds about 1.7x apart, in phases of seconds to minutes, so
unscaled timings followed the phase more than the program. ``peak_rss_mb`` is
the median over the pipelines. The unscaled medians are printed too.

``--trace 1`` (per layer): one untraced pipeline and two traced ones, with
span wrappers installed from outside the program (`perfbench/tracer.py`).
Reports the per-layer metrics of `perfbench/layers.py`, checks that the traced
outputs are byte-identical to the untraced ones and that the counts repeat
exactly, and reports the tracing overhead on ``fit_s``.

Every CLI command and every output check is one operation; the last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}`` as JSON, and the
lines before it print each metric with its unit, the error rate and the
environment.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import UNITS, layer_metrics  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"fit_s": "s", "baseline_fit_s": "s", "compare_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
SETUP_PROBES = 3  # set-up-and-compare interpreters per run, besides one per pipeline
COMPARES = 20  # `sgdg compare` repeats per pipeline: one takes only tens of ms
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# The speed probe's time (`perfbench.worker.SpeedProbe`) at which end-to-end
# timings are reported; it is about the probe's time on an undisturbed 2-vCPU
# Xeon host, so that scaled timings there read close to wall time.
REFERENCE_PROBE_S = 0.00017
# outputs that must not change when the tracer is installed
IDENTICAL_OUTPUTS = ("skew/trace.ndjson", "skew/summary.csv", "gauss/trace.ndjson",
                     "gauss/summary.csv", "cmp/compare.json")
# counts that must repeat exactly across two traced pipelines
REPEATED_COUNTS = ("inference.resolve_per_sweep", "csn.truncnorm_draws_per_sweep",
                   "graph.forward_neighbors_per_sweep", "inference.trace_bytes",
                   "evidence.iterations")


class Bench:
    def __init__(self, workload, seed, root):
        self.w = WORKLOADS[workload]
        self.data_seed = seed if self.w.data_seed is None else self.w.data_seed
        self.fit_seed = seed if self.w.fit_seed is None else self.w.fit_seed
        self.root = root
        self.work = root / ".perfbench-work" / workload
        self.inputs = self.work / "inputs"
        self.started = time.monotonic()
        self.loadavg = os.getloadavg()
        self.ops = []  # (operation, ok)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), str(root), os.environ.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def op(self, name, ok):
        self.ops.append((name, bool(ok)))
        return ok

    def _child(self, args, log):
        """Run one worker interpreter; True when it exits 0 in time."""
        remaining = TIME_LIMIT_S - (time.monotonic() - self.started)
        with open(log, "w") as err:
            try:
                proc = subprocess.run([sys.executable, "-m", "perfbench.worker", *args],
                                      cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                      stderr=err, timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                return False
        if proc.returncode != 0:
            sys.stderr.write(Path(log).read_text()[-2000:])
        return proc.returncode == 0

    def generate(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        ok = self._child(["gen", self.w.name, str(self.data_seed), str(self.inputs)],
                         self.work / "gen.log")
        if not ok:
            raise SystemExit("workload generation failed")
        self.truth = json.loads((self.inputs / "truth.json").read_text())

    def interpreter(self, tag, mode, trace=False, fits=""):
        """One fresh worker; returns its result.json, or None when it failed."""
        out = self.work / tag
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spec = {"workload": self.w.name, "seed": self.fit_seed, "inputs": str(self.inputs),
                "dir": str(out), "mode": mode, "trace": trace,
                "compares": COMPARES, "fits": fits}
        spec["t0"] = time.monotonic()
        (out / "spec.json").write_text(json.dumps(spec))
        ok = self._child(["run", str(out / "spec.json")], out / "worker.log")
        result = json.loads((out / "result.json").read_text()) if ok else None
        if result is not None and not Path(result["sgdg_file"]).is_relative_to(self.root / "src"):
            raise SystemExit(f"sgdg was imported from {result['sgdg_file']}, not this checkout")
        return result

    def pipeline(self, tag, trace=False):
        """Run and check one pipeline; returns its result (None when it failed)."""
        result = self.interpreter(tag, "pipeline", trace)
        self.exit_ops(tag, result, ("fit", "baseline_fit"))
        self.check_outputs(self.work / tag, tag)
        return result

    def exit_ops(self, tag, result, fits):
        """One operation per command the worker was to run: it exited 0."""
        codes = (result or {}).get("codes", {})
        for cmd, n in [(f, 1) for f in fits] + [("compare", COMPARES)]:
            got = codes.get(cmd, [])
            for i in range(n):
                self.op(f"{tag}: {cmd} #{i + 1} exits 0", i < len(got) and got[i] == 0)

    def check_outputs(self, out, tag):
        w = self.w
        for fit in ("skew", "gauss"):
            try:
                records = [json.loads(line) for line in (out / fit / "trace.ndjson").open()]
                logliks = [r["loglik"] for r in records if r["type"] == "draw"]
                ok = len(logliks) == w.retained and all(math.isfinite(x) for x in logliks)
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            self.op(f"{tag}: {fit} keeps {w.retained} draws, every loglik finite", ok)
        try:
            cmp = json.loads((out / "cmp" / "compare.json").read_text())
        except (OSError, ValueError):
            cmp = {}
        for side in ("evidence_a", "evidence_b"):
            self.op(f"{tag}: {side} converged", cmp.get(side, {}).get("converged") is True)
        if w.min_log_bf is not None:
            bf = cmp.get("log_bayes_factor_a_over_b", -math.inf)
            self.op(f"{tag}: log BF skew over Gaussian {bf:.2f} > {w.min_log_bf}",
                    bf > w.min_log_bf)
        if w.delta_signs:
            self.op(f"{tag}: skew posterior delta has the truth's sign pattern",
                    self._signs_match(out / "skew", {f"delta_{i + 1}": d for i, d
                                                     in enumerate(self.truth["delta"])}))
        if w.l_signs:
            truth = {f"L_{a}_{b}": v for a, b, v in self.truth["L"]}
            for fit in ("skew", "gauss"):
                self.op(f"{tag}: {fit} posterior L has the truth's sign pattern",
                        self._signs_match(out / fit, truth))

    @staticmethod
    def _signs_match(fit_dir, truth):
        """Whether summary.csv's posterior means have the signs of `truth` {param: value}."""
        try:
            rows = [r.split(",") for r in (fit_dir / "summary.csv").read_text().splitlines()[1:]]
            means = {r[0]: float(r[1]) for r in rows}
            return all(math.copysign(1.0, means[p]) == math.copysign(1.0, v)
                       for p, v in truth.items())
        except (OSError, ValueError, KeyError, IndexError):
            return False

    def end_to_end(self, seconds):
        """Pipelines until the next would overrun `seconds`, then the set-up probes.

        A probe is a fresh interpreter that sets up and then repeats `compare`
        on the last pipeline's traces, so that compare_s is sampled at several
        moments of the run and not only in one burst per pipeline.
        """
        results, longest = [], 0.0
        while True:
            tag = f"pipeline{len(results)}"
            t = time.monotonic()
            r = self.pipeline(tag)
            longest = max(longest, time.monotonic() - t)
            if r is None:
                break
            results.append(r)
            probes_s = SETUP_PROBES * max(x["seconds"]["setup"][0] for x in results)
            if time.monotonic() - self.started + longest + probes_s > seconds:
                break
            if len(results) > 1:
                shutil.rmtree(self.work / f"pipeline{len(results) - 2}", ignore_errors=True)
        if not results:
            return {}
        # spread the probes over the time left, so they sample different moments
        probes = []
        left = seconds - (time.monotonic() - self.started) - probes_s
        for p in range(SETUP_PROBES):
            time.sleep(max(left, 0.0) / SETUP_PROBES)
            r = self.interpreter(f"probe{p}", "probe", fits=f"../{tag}/")
            self.op(f"probe{p}: set-up interpreter exits 0", r is not None)
            self.exit_ops(f"probe{p}", r, ())
            if r is not None:
                probes.append(r)
        values = {"pipelines": len(results), "unscaled": {}}
        for key in ("fit", "baseline_fit", "compare", "setup"):
            repeats = [(s, speed) for r in results + probes
                       for s, speed in zip(r["seconds"].get(key, ()), r["speed"].get(key, ()))]
            values[f"{key}_s"] = statistics.median(s * REFERENCE_PROBE_S / speed
                                                   for s, speed in repeats)
            values["unscaled"][f"{key}_s"] = statistics.median(s for s, _ in repeats)
        values["probe_s"] = statistics.median(x for r in results + probes
                                              for xs in r["speed"].values() for x in xs)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
        return values

    def _layers(self, tag, result):
        out = self.work / tag
        trace = json.loads((out / "spans.json").read_text())
        m = layer_metrics(trace["spans"], trace["commands"], self.w.retained)
        cmp = json.loads((out / "cmp" / "compare.json").read_text())
        m["inference.trace_bytes"] = (out / "skew" / "trace.ndjson").stat().st_size
        m["evidence.iterations"] = (cmp["evidence_a"]["iterations"]
                                    + cmp["evidence_b"]["iterations"])
        m["setup.import_s"] = result["import_s"]
        m["trace.absent_names"] = len(result["absent"])
        return m

    def per_layer(self):
        """One untraced and two traced pipelines; per-layer metrics of the first traced one."""
        plain = self.pipeline("plain")
        traced = [self.pipeline(f"traced{i}", trace=True) for i in (1, 2)]
        if plain is None or None in traced:
            return {}
        same = all((self.work / "plain" / f).read_bytes() == (self.work / "traced1" / f).read_bytes()
                   for f in IDENTICAL_OUTPUTS)
        self.op("traced outputs are byte-identical to the untraced ones", same)
        first, second = (self._layers(f"traced{i}", r) for i, r in zip((1, 2), traced))
        self.op("counts repeat across two traced pipelines",
                all(first[c] == second[c] for c in REPEATED_COUNTS))
        first["trace.overhead_s"] = traced[0]["seconds"]["fit"][0] - plain["seconds"]["fit"][0]
        if traced[0]["absent"]:
            print(f"absent (not wrapped): {', '.join(traced[0]['absent'])}")
        return first


def _environment(bench):
    env = json.loads((bench.inputs / "environment.json").read_text())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env.update(nproc=os.cpu_count(), cpu=cpu, loadavg_at_start=bench.loadavg)
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "sgdg" / "cli.py").is_file():
        sys.stderr.write(f"{root} holds no sgdg source tree (src/sgdg); run from a checkout root\n")
        return 2
    # subprocess.run kills and waits for its worker when SystemExit interrupts it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(args.workload, args.seed, root)
    bench.generate()
    if args.trace:
        values, units = bench.per_layer(), UNITS
    else:
        values, units = bench.end_to_end(args.seconds), END_TO_END_UNITS

    print(f"workload {args.workload} seed {args.seed} (data seed {bench.data_seed}, "
          f"fit seed {bench.fit_seed}) trace {args.trace}")
    print("environment " + json.dumps(_environment(bench), sort_keys=True))
    if "pipelines" in values:
        print(f"pipelines measured: {values['pipelines']}")
        print(f"host speed: speed probe median {values['probe_s']:.6g} s, "
              f"reference {REFERENCE_PROBE_S:g} s")
        print("unscaled medians (s): " + json.dumps(values["unscaled"]))
    if "inference.sweep_us.count" in values:
        print(f"inference.sweep_us.tail is the p{values['inference.sweep_us.tail_pct']:g} "
              f"of {values['inference.sweep_us.count']} sweeps of the skew fit")
    for name, ok in bench.ops:
        if not ok:
            print(f"FAILED {name}")
    failed = sum(1 for _, ok in bench.ops if not ok)
    attempted = max(len(bench.ops), 1)
    metrics = {}
    for name, unit in units.items():
        if name not in values:  # its pipeline failed, which the operations above count
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
