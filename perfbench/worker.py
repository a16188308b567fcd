"""One fresh interpreter of the benchmark: generate inputs, set up, or run a pipeline.

Run from the checkout root with ``src`` on ``PYTHONPATH``:

    python3 -m perfbench.worker gen <workload> <seed> <inputs-dir>
    python3 -m perfbench.worker run <spec.json>

``run`` takes a spec written by ``perfbench/run.py``; its ``t0`` is the
parent's ``time.monotonic()`` just before it started this interpreter, so
``setup_s`` covers interpreter start, ``import sgdg.cli``, reading the inputs
and building the prior. In ``pipeline`` mode the worker then runs ``sgdg fit``,
``sgdg fit --fix-delta-zero`` and ``sgdg compare`` (repeated) through
``sgdg.cli.main``; in ``probe`` mode it only repeats ``sgdg compare`` on the
traces of an earlier pipeline. Untraced, it samples its own speed while it
runs (`SpeedProbe`) and reports the speed during set-up and each command. It
writes ``result.json`` (and ``spans.json`` when traced) into the run directory.
"""

import time  # first, so that nothing precedes the setup clock but the interpreter

import json
import os
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path

from perfbench.workloads import WORKLOADS, generate


def _environment():
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


class SpeedProbe:
    """Samples how fast this interpreter runs, by a timer signal, while commands run.

    Every ``PROBE_INTERVAL_S`` of wall time a SIGALRM handler times a fixed
    pure-Python loop. The host's speed changes while a command runs, so the
    probe times that fall inside a command (widened by ``WINDOW_S`` on either
    side, for commands shorter than the interval) give the speed it ran at.
    The probe uses no sgdg code and no RNG, keeps nothing but its samples, and
    costs about 0.2% of the run.
    """

    PROBE_INTERVAL_S = 0.1
    WINDOW_S = 0.3

    def __init__(self):
        self.samples = []  # (perf_counter at the probe, seconds the probe took)

    def _probe(self, signum, frame):
        start = time.perf_counter()
        s = 0.0
        for i in range(3000):
            s += i * 0.5
        self.samples.append((start, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_INTERVAL_S, self.PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def speed(self, start, end):
        """Mean probe time around [start, end] (perf_counter seconds).

        A long call into C code delays the handler, so when no probe fell in
        the window the nearest one stands in.
        """
        inside = [p for t, p in self.samples
                  if start - self.WINDOW_S <= t <= end + self.WINDOW_S]
        if not inside:
            inside = [min(self.samples, key=lambda tp: abs(tp[0] - (start + end) / 2))[1]]
        return statistics.mean(inside)


def _run_command(main, argv):
    """(exit code, start, end) of one CLI command; a traceback counts as exit 1."""
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception:  # the benchmark records the failure and carries on
        traceback.print_exc()
        code = 1
    return code, start, time.perf_counter()


def run(spec):
    speed_probe = None
    if not spec["trace"]:
        speed_probe = SpeedProbe()
        speed_probe.start()
    started = time.perf_counter()
    t_import = time.monotonic()
    import sgdg.cli as cli

    import_s = time.monotonic() - t_import
    w = WORKLOADS[spec["workload"]]
    inputs = Path(spec["inputs"])
    cli.read_dataset(inputs / "data.csv")
    g = cli.load_graph(inputs / "graph.json")
    cli.build_prior(w.prior, cli.parse_hyper([]), g)
    result = {"seconds": {"setup": [time.monotonic() - spec["t0"]]}, "import_s": import_s,
              "sgdg_file": str(Path(sys.modules["sgdg"].__file__).resolve())}
    intervals = {"setup": [(started, time.perf_counter())]}
    out = Path(spec["dir"])
    os.chdir(out)
    tracer = None
    if spec["trace"]:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        result["absent"] = tracer.install()
    commands = []
    fits = spec["fits"]  # a probe compares the traces of an earlier pipeline
    if spec["mode"] == "pipeline":
        skew_seed, gauss_seed = w.fit_seeds(spec["seed"])
        commands = [
            ("fit", ["fit", *w.fit_args(skew_seed, baseline=False), "--out", "skew"]),
            ("baseline_fit", ["fit", *w.fit_args(gauss_seed, baseline=True), "--out", "gauss"]),
        ]
    commands += [("compare", ["compare", "--trace-a", f"{fits}skew/trace.ndjson",
                              "--trace-b", f"{fits}gauss/trace.ndjson", "--out", "cmp"])
                 ] * spec["compares"]
    bounds = []
    for key, argv in commands:
        first = len(tracer.spans) if tracer else 0
        code, start, end = _run_command(cli.main, argv)
        bounds.append([key, first, len(tracer.spans) if tracer else 0])
        result.setdefault("codes", {}).setdefault(key, []).append(code)
        result["seconds"].setdefault(key, []).append(end - start)
        intervals.setdefault(key, []).append((start, end))
    if speed_probe is not None:
        time.sleep(SpeedProbe.WINDOW_S)  # the window after the last command
        speed_probe.stop()
        result["speed"] = {key: [speed_probe.speed(*iv) for iv in ivs]
                           for key, ivs in intervals.items()}
    if tracer is not None:
        tracer.uninstall()
        trace = {"commands": bounds, "spans": tracer.spans}
        Path("spans.json").write_text(json.dumps(trace, separators=(",", ":")))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (out / "result.json").write_text(json.dumps(result, sort_keys=True) + "\n")


def main(argv):
    if argv[0] == "gen":
        name, seed, inputs = argv[1], int(argv[2]), Path(argv[3])
        generate(name, seed, inputs)
        (inputs / "environment.json").write_text(json.dumps(_environment(), sort_keys=True) + "\n")
    elif argv[0] == "run":
        run(json.loads(Path(argv[1]).read_text()))
    else:
        raise SystemExit(f"unknown worker command {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
