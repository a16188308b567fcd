"""Span tracing installed from outside the program.

`Tracer.install` replaces each target function with a wrapper at the module
or class attribute where its caller looks the name up, so the program itself
carries no hook. A wrapper records one span, ``[name, start_ns, end_ns,
parent_index, note]``, in memory; the worker writes the list out when the
pipeline has finished. Wrappers never touch the random number generator and
never replace a class, so ``isinstance`` checks in the program still see the
program's own classes.

A target whose module or attribute no longer exists is reported in
`Tracer.absent` instead of raising, so a later change that removes or fuses a
function leaves the benchmark running.
"""

import functools
import time
from importlib import import_module

# (module where the caller looks the name up, attribute path, span name): the
# functions that the per-layer metrics of `perfbench.layers` are built from.
TARGETS = (
    ("sgdg.cli", "cmd_fit", "cli.cmd_fit"),
    ("sgdg.cli", "cmd_compare", "cli.cmd_compare"),
    ("sgdg.cli", "read_dataset", "cli.read_dataset"),
    ("sgdg.cli", "load_graph", "cli.load_graph"),
    ("sgdg.cli", "build_prior", "cli.build_prior"),
    ("sgdg.cli", "write_plot_data", "cli.write_plot_data"),
    ("sgdg.cli", "run_chain", "inference.run_chain"),
    ("sgdg.cli", "summarize", "inference.summarize"),
    ("sgdg.cli", "sample_sgdg", "model.sample_sgdg"),
    ("sgdg.cli", "estimate_log_marginal", "evidence.estimate_log_marginal"),
    ("sgdg.inference", "Trace.save", "inference.trace_save"),
    ("sgdg.inference", "Trace.load", "inference.trace_load"),
    ("sgdg.inference", "gibbs_sweep", "inference.gibbs_sweep"),
    ("sgdg.inference", "gibbs_update_u", "inference.update_u"),
    ("sgdg.inference", "gibbs_update_delta", "inference.update_delta"),
    ("sgdg.inference", "gibbs_update_mu", "inference.update_mu"),
    ("sgdg.inference", "gibbs_update_omega2", "inference.update_omega2"),
    ("sgdg.inference", "gibbs_update_L", "inference.update_L"),
    ("sgdg.inference", "resolve_hyperparams", "inference.resolve_hyperparams"),
    ("sgdg.inference", "_observed_loglik", "inference.observed_loglik"),
    ("sgdg.inference", "sample_truncated_normal", "csn.sample_truncated_normal"),
    ("sgdg.inference", "modified_cholesky", "linalg.modified_cholesky"),
    ("sgdg.inference", "verify_ordering", "graph.verify_ordering"),
    ("sgdg.model", "sgdg_log_density", "model.sgdg_log_density"),
    ("sgdg.model", "reparam_inverse", "model.reparam_inverse"),
    ("sgdg.model", "solve_unit_triangular", "linalg.solve_unit_triangular"),
    ("sgdg.graph", "Graph.forward_neighbors", "graph.forward_neighbors"),
)

TRUNCNORM = "csn.sample_truncated_normal"


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory.

    Time spent computing a span's note (for example the tail share of a
    truncated-normal call) is excluded from every span: the tracer's clock
    stops while it runs.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self._stack = []
        self._paused_ns = 0
        self._restore = []
        self._tail_switch = None

    def _now(self):
        return time.perf_counter_ns() - self._paused_ns

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = self._now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = self._now()
                stack.pop()
                if note is not None:
                    t = time.perf_counter_ns()
                    rec[4] = note(*args, **kwargs)
                    self._paused_ns += time.perf_counter_ns() - t

        return wrapper

    def _truncnorm_note(self, mu, var, lower, rng=None, size=None):
        """[draws, draws whose standardized bound exceeds TAIL_SWITCH].

        Reads only the call's arguments; the generator is left untouched.
        """
        import numpy as np

        a = (np.asarray(lower, dtype=float) - np.asarray(mu, dtype=float)) / np.sqrt(var)
        if size is not None:
            a = np.broadcast_to(a, np.broadcast_shapes(a.shape, tuple(np.atleast_1d(size))))
        return [int(a.size), int(np.count_nonzero(a > self._tail_switch))]

    def install(self):
        """Wrap every target that exists; return the targets that do not."""
        try:
            self._tail_switch = import_module("sgdg.csn").TAIL_SWITCH
        except (ImportError, AttributeError):
            self._tail_switch = None
        for module_name, path, name in self.targets:
            try:
                owner = import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            note = None
            if name == TRUNCNORM and self._tail_switch is not None:
                note = self._truncnorm_note
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, note))
            else:
                wrapped = self._wrap(name, raw, note)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, raw))
        if self._tail_switch is None:
            self.absent.append("sgdg.csn.TAIL_SWITCH")
        return self.absent

    def uninstall(self):
        """Put every original attribute back, in reverse order of wrapping."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)
