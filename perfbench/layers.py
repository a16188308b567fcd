"""Per-layer metrics from the spans of one traced pipeline.

Spans come from `perfbench.tracer` as ``[name, start_ns, end_ns, parent,
note]`` and are split by command: sweep and block figures are taken from the
skew-model `fit` (the first command), evidence and trace-read figures from the
first `compare`. A layer's self time is its span's duration minus that of its
direct children.
"""

import math
import statistics

# name -> unit of every per-layer metric the benchmark reports; `layer_metrics`
# also returns "inference.sweep_us.tail_pct" and "inference.sweep_us.count",
# which state the percentile the tail is and the sweeps it is taken over
UNITS = {
    "inference.sweep_us.p50": "us",
    "inference.sweep_us.tail": "us",
    "inference.u_us": "us",
    "inference.delta_us": "us",
    "inference.mu_us": "us",
    "inference.omega2_us": "us",
    "inference.L_us": "us",
    "inference.resolve_us": "us",
    "inference.resolve_per_sweep": "count",
    "inference.sweep_self_us": "us",
    "inference.loglik_us": "us",
    "inference.summarize_ms": "ms",
    "inference.trace_save_ms": "ms",
    "inference.trace_load_ms": "ms",
    "inference.trace_bytes": "bytes",
    "csn.truncnorm_us_per_sweep": "us",
    "csn.truncnorm_draws_per_sweep": "count",
    "csn.tail_share": "ratio",
    "model.sgdg_log_density_us": "us",
    "model.reparam_inverse_us": "us",
    "model.sample_sgdg_ms": "ms",
    "linalg.solve_unit_triangular_ms": "ms",
    "linalg.modified_cholesky_ms": "ms",
    "graph.forward_neighbors_per_sweep": "count",
    "graph.self_us_per_sweep": "us",
    "graph.verify_ordering_ms": "ms",
    "evidence.estimate_ms": "ms",
    "evidence.iterations": "count",
    "cli.plot_data_ms": "ms",
    "cli.read_inputs_ms": "ms",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    "trace.absent_names": "count",
}

# the highest of these with at least ten sweeps beyond it is the tail
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

BLOCKS = {"u": "inference.update_u", "delta": "inference.update_delta",
          "mu": "inference.update_mu", "omega2": "inference.update_omega2",
          "L": "inference.update_L"}


def percentile(values, p):
    """Nearest-rank percentile of a nonempty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(count):
    for p in TAIL_PERCENTILES:
        if count * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


class _Command:
    """The spans of one command, with each span's nearest enclosing scopes."""

    def __init__(self, spans, start, end):
        self.spans = spans
        self.idx = range(start, end)
        self.sweep = {}
        self.chain = {}
        self.child_ns = {}
        for i in self.idx:
            name, parent = spans[i][0], spans[i][3]
            self.sweep[i] = i if name == "inference.gibbs_sweep" else self.sweep.get(parent, -1)
            self.chain[i] = i if name == "inference.run_chain" else self.chain.get(parent, -1)
            if parent >= 0:
                self.child_ns[parent] = self.child_ns.get(parent, 0) + self.dur(i)
        self.sweeps = [i for i in self.idx if spans[i][0] == "inference.gibbs_sweep"]

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_ns(self, i):
        return self.dur(i) - self.child_ns.get(i, 0)

    def named(self, *names):
        return [i for i in self.idx if self.spans[i][0] in names]

    def total_ms(self, *names):
        return sum(self.dur(i) for i in self.named(*names)) / 1e6

    def per_sweep_us(self, indices, weigh=None):
        """Median over sweeps of the summed duration (or `weigh`) of `indices`."""
        weigh = weigh or self.dur
        totals = dict.fromkeys(self.sweeps, 0)
        for i in indices:
            if self.sweep[i] >= 0:
                totals[self.sweep[i]] += weigh(i)
        return statistics.median(totals.values()) / 1e3 if totals else 0.0

    def count_per_sweep(self, name):
        n = sum(1 for i in self.named(name) if self.sweep[i] >= 0)
        return n / len(self.sweeps) if self.sweeps else 0.0

    def per_draw_us(self, name, retained):
        """Time in `name` inside the chain but outside sweeps, per retained draw."""
        ns = sum(self.dur(i) for i in self.named(name) if self.chain[i] >= 0 and self.sweep[i] < 0)
        return ns / 1e3 / retained


def layer_metrics(spans, commands, retained):
    """Metrics that the spans alone determine, as {name: value}.

    `commands` lists ``[command, first_span, end_span]`` in the order run.
    """
    fit = next(c for c in commands if c[0] == "fit")
    compare = next(c for c in commands if c[0] == "compare")
    f = _Command(spans, fit[1], fit[2])
    c = _Command(spans, compare[1], compare[2])
    sweep_us = [f.dur(i) / 1e3 for i in f.sweeps] or [0.0]
    tail = tail_percentile(len(f.sweeps))
    notes = [spans[i][4] for i in f.named("csn.sample_truncated_normal") if spans[i][4]]
    draws = sum(n[0] for n in notes)
    out = {
        "inference.sweep_us.p50": statistics.median(sweep_us),
        "inference.sweep_us.tail": percentile(sweep_us, tail),
        "inference.sweep_us.tail_pct": tail,
        "inference.sweep_us.count": len(f.sweeps),
    }
    for block, name in BLOCKS.items():
        out[f"inference.{block}_us"] = f.per_sweep_us(f.named(name))
    out.update({
        "inference.resolve_us": f.per_sweep_us(f.named("inference.resolve_hyperparams")),
        "inference.resolve_per_sweep": f.count_per_sweep("inference.resolve_hyperparams"),
        "inference.sweep_self_us": statistics.median(f.self_ns(i) / 1e3 for i in f.sweeps)
        if f.sweeps else 0.0,
        "inference.loglik_us": f.total_ms("inference.observed_loglik") * 1e3 / retained,
        "inference.summarize_ms": f.total_ms("inference.summarize"),
        "inference.trace_save_ms": f.total_ms("inference.trace_save"),
        "inference.trace_load_ms": c.total_ms("inference.trace_load"),
        "csn.truncnorm_us_per_sweep": f.per_sweep_us(f.named("csn.sample_truncated_normal")),
        "csn.truncnorm_draws_per_sweep": draws / len(f.sweeps) if f.sweeps else 0.0,
        "csn.tail_share": sum(n[1] for n in notes) / draws if draws else 0.0,
        "model.sgdg_log_density_us": f.per_draw_us("model.sgdg_log_density", retained),
        "model.reparam_inverse_us": f.per_draw_us("model.reparam_inverse", retained),
        "model.sample_sgdg_ms": f.total_ms("model.sample_sgdg"),
        "linalg.solve_unit_triangular_ms": f.total_ms("linalg.solve_unit_triangular"),
        "linalg.modified_cholesky_ms": f.total_ms("linalg.modified_cholesky"),
        "graph.forward_neighbors_per_sweep": f.count_per_sweep("graph.forward_neighbors"),
        "graph.self_us_per_sweep": f.per_sweep_us(
            [i for i in f.idx if spans[i][0].startswith("graph.")], weigh=f.self_ns),
        "graph.verify_ordering_ms": f.total_ms("graph.verify_ordering"),
        "evidence.estimate_ms": c.total_ms("evidence.estimate_log_marginal"),
        "cli.plot_data_ms": sum(f.self_ns(i) for i in f.named("cli.write_plot_data")) / 1e6,
        "cli.read_inputs_ms": f.total_ms("cli.read_dataset", "cli.load_graph", "cli.build_prior"),
    })
    return out
