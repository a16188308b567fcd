"""Command-line workflows: graph checks, simulation, fitting, comparison.

Batch-oriented: every command takes explicit inputs plus a mandatory seed
where randomness is involved, and rerunning a command with the same
configuration produces byte-identical outputs. An error of any class that
`sgdg` defines exits with code 3 and a machine-readable JSON record on
stderr. The entry points are the `sgdg` script and `python -m sgdg`.
"""

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .evidence import estimate_log_marginal
from .graph import Graph, NotDecomposable, perfect_elimination_ordering, verify_ordering
from .inference import PRIORS, Trace, min_n_noninformative, run_chain, summarize
from .model import ReparamParams, marginal_densities, reparam_inverse, sample_sgdg

ERROR_EXIT = 3

HYPER_DEFAULTS = {"b1": 100.0, "b2": 1e4, "b3": 1e-6, "b4": 1e-6, "b5": 100.0}

# the trace meta entries that fit.json repeats
FIT_RECORD_KEYS = ("prior", "iters", "burn_in", "thin", "seed", "fix_delta_zero", "n", "k", "data_digest")

PLOT_GRID_POINTS = 200  # points of each fitted density grid
PLOT_BINS = 20  # bins of each data histogram


class ParseError(ValueError):
    """Raised when an input file cannot be parsed or validated."""


class InvalidParams(ValueError):
    """Raised for inconsistent simulation or prior parameters."""


class DataMismatch(ValueError):
    """Raised when two traces were not fitted on identical data, graph and prior."""


class OutputError(ValueError):
    """Raised when an --out directory cannot be made or written."""


# ---------------------------------------------------------------------------
# small IO helpers


def _fmt(x):
    return repr(float(x))


def _check_colnames(path, header):
    """Column names name output files (hist_<name>.csv): each must be a distinct file name part."""
    for j, name in enumerate(header, start=1):
        if name.strip() == "" or name in (".", "..") or any(c in name for c in "/\\\0"):
            raise ParseError(f"{path}: column {j} name {name!r} cannot be part of a file name")
        if name in header[: j - 1]:
            raise ParseError(f"{path}: column name {name!r} appears twice")


def read_dataset(path):
    """CSV with a header row; rejects missing values rather than imputing."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise ParseError(f"{path}: empty dataset file")
            _check_colnames(path, header)
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"{path}:{lineno}: expected {len(header)} fields")
                try:
                    rows.append([float(v) for v in row])
                except ValueError:  # a blank field anywhere in the row is reported first
                    if any(field.strip() == "" for field in row):
                        raise ParseError(f"{path}:{lineno}: missing value") from None
                    raise
    except (OSError, ValueError, csv.Error) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: dataset has no rows")
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: non-finite value in dataset")
    return data, header


def write_dataset(path, data, colnames):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(colnames) + "\n")
        np.savetxt(fh, data, fmt="%.17g", delimiter=",")


def load_graph(path):
    try:
        return Graph.load(path)
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ParseError(f"{path}: not a valid graph file ({exc})") from exc


def _dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _out_dir(path):
    """--out as a Path, refused before any work if it or its nearest existing ancestor is not a directory."""
    out = Path(path)
    for p in (out, *out.parents):
        if p.exists():
            if not p.is_dir():
                raise OutputError(f"--out {out}: {p} exists and is not a directory")
            break
    return out


@contextmanager
def _writing(out):
    """Make the --out directory for the writes in the block; an OSError becomes OutputError."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise OutputError(f"--out {out}: {exc}") from exc


def write_csv_rows(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


# ---------------------------------------------------------------------------
# prior construction from --hyper key=value pairs


def parse_hyper(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise InvalidParams(f"--hyper expects key=value, got {pair!r}")
        key, val = (part.strip() for part in pair.split("=", 1))
        if key in out:
            raise InvalidParams(f"--hyper {key} is given more than once")
        out[key] = val
    return out


def _float_or_list(text, k, what):
    vals = [float(p) for p in text.split(",") if p.strip() != ""]
    if len(vals) == 1:
        return np.full(k, vals[0])
    if len(vals) != k:
        raise InvalidParams(f"{what} needs 1 or {k} comma-separated values")
    return np.asarray(vals)


def _hyper_value(key, text, graph):
    """Prior field `key` from its `--hyper` string, or its default when `text` is None."""
    if key == "mu0":
        return _float_or_list("0" if text is None else text, graph.k, key)
    if key == "Psi":
        return np.eye(graph.k) if text is None else np.asarray(json.loads(Path(text).read_text()), dtype=float)
    if key == "psi":
        if text is None:  # smallest integer degrees that satisfy the propriety gate
            return np.array([graph.forward_degree(i) + 1.0 for i in range(graph.k)])
        return _float_or_list(text, graph.k, key)
    return float(HYPER_DEFAULTS[key] if text is None else text)


def build_prior(regime, hyper, graph):
    """The prior of `regime` from `--hyper` strings; any bad key or value raises InvalidParams.

    The keys a regime reads are the fields of its class in `PRIORS`, in order.
    """
    keys = [f.name for f in fields(PRIORS[regime])]
    unread = sorted(set(hyper) - set(keys))
    if unread:
        raise InvalidParams(f"--hyper {', '.join(unread)}: the {regime} prior reads only {', '.join(keys)}")
    try:
        return PRIORS[regime](**{key: _hyper_value(key, hyper.get(key), graph) for key in keys})
    except InvalidParams:
        raise
    except (OSError, TypeError, ValueError) as exc:
        raise InvalidParams(f"--hyper: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_check_graph(args):
    g = load_graph(args.graph)
    report = {"k": g.k, "n_edges": len(g.edges), "decomposable": True}
    try:
        ordering = perfect_elimination_ordering(g)
    except NotDecomposable:
        report["decomposable"] = False
    else:
        identity_ok = verify_ordering(g)
        fwd_graph = g if identity_ok else g.relabel(ordering)
        report.update(
            {
                "elimination_ordering": [v + 1 for v in ordering],
                "labels_are_elimination_ordering": identity_ok,
                "forward_neighbor_counts": [fwd_graph.forward_degree(i) for i in range(g.k)],
                "min_n_noninformative": min_n_noninformative(fwd_graph),
            }
        )
    if args.json:
        _dump_json(report)
        return 0
    print(f"vertices: {report['k']}  edges: {report['n_edges']}")
    if not report["decomposable"]:
        print("not decomposable: the graph has a chordless cycle of length >= 4")
        return 0
    print("decomposable: yes")
    print(f"labels already form an elimination ordering: {report['labels_are_elimination_ordering']}")
    print(f"one perfect elimination ordering (1-based): {report['elimination_ordering']}")
    scope = "current labels" if report["labels_are_elimination_ordering"] else "relabeled graph"
    print(f"forward neighbor counts ({scope}): {report['forward_neighbor_counts']}")
    print(f"minimum n under the noninformative prior: {report['min_n_noninformative']}")
    return 0


CASE_DELTAS = (-1.0, 1.0, 2.0, 3.0)
CASE_LVALUES = (-1.0, -0.5, 0.5, 1.0)


def _truth_record(args):
    """The truth record to simulate from: built-in case A, B or C (a chain on three vertices), or --truth."""
    if args.case == "custom":
        if args.truth is None:
            raise InvalidParams("case custom needs --truth pointing to a truth JSON file")
        try:
            return json.loads(Path(args.truth).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise InvalidParams(f"--truth: {exc}") from exc
    if args.case == "A" and args.delta is None:
        raise InvalidParams(f"case A needs --delta (template grid: {CASE_DELTAS})")
    if args.case == "B" and args.l_value is None:
        raise InvalidParams(f"case B needs --l-value (template grid: {CASE_LVALUES})")
    delta, l12, l23 = {"A": ([args.delta] * 3, -0.5, -0.5), "B": ([2.0] * 3, args.l_value, args.l_value),
                       "C": ([3.0, -2.0, -4.0], -0.5, 0.5)}[args.case]
    return {"graph": {"k": 3, "edges": [[1, 2], [2, 3]]}, "mu": [5.0] * 3, "delta": delta,
            "omega2": [1.0] * 3, "L": [[1, 2, l12], [2, 3, l23]]}


def read_truth(record):
    """ReparamParams of a truth record, the dict that `simulate` writes to truth.json.

    Each `L` entry [i, j, v] (1-based) must name an edge i < j of the record's
    graph; every other entry of L is that of the identity. Parameters must be
    finite. Any defect raises InvalidParams.
    """
    try:
        g = Graph.from_json_dict(record["graph"])
        L = np.eye(g.k)
        for entry in record["L"]:
            i, j, val = entry
            i, j = int(i) - 1, int(j) - 1
            if not (i < j and g.has_edge(i, j)):
                raise InvalidParams(f"truth L entry {entry} does not name an edge i < j of the graph")
            L[i, j] = float(val)
        return ReparamParams(*(np.asarray(record[key], dtype=float) for key in ("mu", "delta", "omega2")), L, g)
    except InvalidParams:
        raise
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise InvalidParams(f"truth: {exc}") from exc


def cmd_simulate(args):
    out = _out_dir(args.out)
    params = read_truth(_truth_record(args))
    g = params.graph
    n = args.n
    if n < 1:
        raise InvalidParams("--n must be positive")
    if args.seed < 0:
        raise InvalidParams(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        model = reparam_inverse(params)
        try:
            data = sample_sgdg(model, rng, n)
        except (MemoryError, ValueError) as exc:  # numpy refuses an array it cannot allocate
            raise InvalidParams(f"--n {n}: {n} draws of {g.k} values do not fit in memory") from exc
    if not np.all(np.isfinite(data)):
        raise InvalidParams("the truth's draws overflow to non-finite values")
    colnames = [f"x{i + 1}" for i in range(g.k)]
    truth = {
        "case": args.case,
        "n": int(n),
        "seed": int(args.seed),
        "mu": params.mu.tolist(),
        "delta": params.delta.tolist(),
        "omega2": params.omega2.tolist(),
        "L": [[a + 1, b + 1, float(params.L[a, b])] for a, b in g.sorted_edges()],
        "graph": g.to_json_dict(),
    }
    with _writing(out):
        write_dataset(out / "data.csv", data, colnames)
        g.save(out / "graph.json")
        _dump_json(truth, out / "truth.json")
    print(f"wrote {n} x {g.k} dataset to {out / 'data.csv'}")
    return 0


def _posterior_mean_params(trace):
    r = ReparamParams(
        trace.mu.mean(axis=0), trace.delta.mean(axis=0), trace.omega2.mean(axis=0),
        trace.l_matrix(trace.L.mean(axis=0)), trace.graph,
    )
    return reparam_inverse(r)


def write_plot_data(out, trace, data, colnames):
    """Per-variable histogram bins plus the exact fitted marginal density at the posterior mean."""
    grids = []
    for name, col in zip(colnames, data.T):
        lo, hi = col.min(), col.max()
        # a constant or near-constant column's range holds no finite-sized bins: pad it by 0.15,
        # or, where that is below the float spacing, by 0.15 times the column's magnitude
        for pad in (0.15 * (hi - lo), 0.15, 0.15 * max(1.0, abs(lo), abs(hi))):
            if np.all(np.diff(np.linspace(lo - pad, hi + pad, PLOT_BINS + 1)) > 0):
                break
        counts, edges = np.histogram(col, bins=PLOT_BINS, range=(lo - pad, hi + pad))
        dens = counts / (counts.sum() * np.diff(edges))
        write_csv_rows(
            out / f"hist_{name}.csv",
            ["bin_left", "bin_right", "count", "density"],
            [
                (edges[b], edges[b + 1], float(counts[b]), dens[b])
                for b in range(len(counts))
            ],
        )
        grids.append(np.linspace(lo - pad, hi + pad, PLOT_GRID_POINTS))
    fitted = marginal_densities(_posterior_mean_params(trace), np.array(grids))
    for name, grid, dens in zip(colnames, grids, fitted):
        write_csv_rows(out / f"fitted_{name}.csv", ["x", "density"], list(zip(grid, dens)))


def cmd_fit(args):
    out = _out_dir(args.out)
    data, colnames = read_dataset(args.data)
    g = load_graph(args.graph)
    hyper = parse_hyper(args.hyper)
    prior = build_prior(args.prior, hyper, g)
    trace = run_chain(
        data,
        g,
        prior,
        iters=args.iters,
        burn_in=args.burnin,
        thin=args.thin,
        seed=args.seed,
        fix_delta_zero=args.fix_delta_zero,
        colnames=colnames,
    )
    with _writing(out):
        trace.save(out / "trace.ndjson")
        rows = summarize(trace)
        write_csv_rows(out / "summary.csv", list(rows[0]), [list(r.values()) for r in rows])
        write_plot_data(out, trace, data, colnames)
        _dump_json(
            {
                "command": "fit",
                "data": str(args.data),
                "graph": str(args.graph),
                **{key: trace.meta[key] for key in FIT_RECORD_KEYS},
                "retained_draws": len(trace),
            },
            out / "fit.json",
        )
    print(f"retained {len(trace)} draws; outputs in {out}")
    return 0


def _load_trace(path):
    try:
        return Trace.load(path)
    except (OSError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def cmd_compare(args):
    """Log Bayes factor of two traces that differ, if at all, only in `fix_delta_zero` and the draws."""
    out = None if args.out is None else _out_dir(args.out)
    if not 0.0 < args.mix_weight < 1.0:
        raise InvalidParams(f"--mix-weight must lie strictly between 0 and 1, got {args.mix_weight}")
    trace_a = _load_trace(args.trace_a)
    trace_b = _load_trace(args.trace_b)
    for key, what in (("data_digest", "on identical data"), ("graph", "on the same graph"),
                      ("prior", "under the same prior")):
        if trace_a.meta[key] != trace_b.meta[key]:
            raise DataMismatch(f"traces were not fitted {what}")
    est_a = estimate_log_marginal(trace_a.loglik, mix_weight=args.mix_weight)
    est_b = estimate_log_marginal(trace_b.loglik, mix_weight=args.mix_weight)
    log_bf = est_a.log_marginal - est_b.log_marginal
    report = {
        "trace_a": str(args.trace_a),
        "trace_b": str(args.trace_b),
        "log_marginal_a": est_a.log_marginal,
        "log_marginal_b": est_b.log_marginal,
        "evidence_a": asdict(est_a),
        "evidence_b": asdict(est_b),
        "log_bayes_factor_a_over_b": log_bf,
    }
    if out is not None:
        with _writing(out):
            _dump_json(report, out / "compare.json")
    else:
        _dump_json(report)
    side = "A" if log_bf > 0 else "B" if log_bf < 0 else "neither"
    print(f"log Bayes factor (A over B) = {log_bf:.4f} (favors {side})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sgdg",
        description="Skew Gaussian decomposable graphical models: check, simulate, fit, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check-graph", help="decomposability and ordering report")
    p_check.add_argument("--graph", required=True)
    p_check.add_argument("--json", action="store_true", help="emit the report as JSON")
    p_check.set_defaults(func=cmd_check_graph)

    p_sim = sub.add_parser("simulate", help="generate a dataset from a known truth")
    p_sim.add_argument("--case", choices=["A", "B", "C", "custom"], required=True)
    p_sim.add_argument("--delta", type=float, help="skew loading for case A")
    p_sim.add_argument("--l-value", type=float, dest="l_value", help="shared L entry for case B")
    p_sim.add_argument("--truth", help="truth JSON file for case custom")
    p_sim.add_argument("--n", type=int, default=200)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="run the block Gibbs sampler on a dataset")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--graph", required=True)
    p_fit.add_argument("--prior", choices=list(PRIORS), required=True)
    p_fit.add_argument("--hyper", action="append", metavar="KEY=VALUE")
    p_fit.add_argument("--iters", type=int, default=50_000)
    p_fit.add_argument("--burnin", type=int, default=None)
    p_fit.add_argument("--thin", type=int, default=10)
    p_fit.add_argument("--seed", type=int, required=True)
    p_fit.add_argument("--fix-delta-zero", action="store_true", dest="fix_delta_zero",
                       help="pin the skew loadings at zero (Gaussian graphical baseline); under the "
                            "noninfo and wishart priors its posterior is drawn exactly, without a chain, "
                            "so --iters, --burnin and --thin fix only the number of draws, "
                            "(iters - burnin) // thin")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_cmp = sub.add_parser("compare", help="log Bayes factor between two fitted traces")
    p_cmp.add_argument("--trace-a", required=True, dest="trace_a")
    p_cmp.add_argument("--trace-b", required=True, dest="trace_b")
    p_cmp.add_argument("--mix-weight", type=float, default=0.01, dest="mix_weight")
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if not type(exc).__module__.startswith(f"{__package__}."):
            raise  # not an error class of this package: a fault of the program, which keeps its traceback
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return ERROR_EXIT
