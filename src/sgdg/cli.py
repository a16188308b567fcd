"""Command-line workflows: graph checks, simulation, fitting, comparison.

Batch-oriented: every command takes explicit inputs plus a mandatory seed
where randomness is involved, and rerunning a command with the same
configuration produces byte-identical outputs. Domain failures exit with
code 3 and a machine-readable JSON record on stderr.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np
from scipy.stats import gaussian_kde

from .evidence import NotConverged, estimate_log_marginal
from .graph import EliminationOrdering, Graph, NotDecomposable, is_decomposable, perfect_elimination_ordering, verify_ordering
from .inference import (
    DimensionMismatch,
    IndependentProperPrior,
    NoninformativePrior,
    NumericalFailure,
    PatternWishartPrior,
    ProprietyViolation,
    Trace,
    run_chain,
    summarize,
)
from .linalg import NotPositiveDefinite
from .model import InvalidDomain, ReparamParams, reparam_inverse, sample_sgdg

ERROR_EXIT = 3

HYPER_DEFAULTS = {"b1": 100.0, "b2": 1e4, "b3": 1e-6, "b4": 1e-6, "b5": 100.0}


class ParseError(ValueError):
    """Raised when an input file cannot be parsed or validated."""


class InvalidParams(ValueError):
    """Raised for inconsistent simulation or prior parameters."""


class DataMismatch(ValueError):
    """Raised when two traces were not fitted on identical data."""


_DOMAIN_ERRORS = (
    ParseError,
    InvalidParams,
    DataMismatch,
    ProprietyViolation,
    NotDecomposable,
    DimensionMismatch,
    NotConverged,
    NotPositiveDefinite,
    InvalidDomain,
    NumericalFailure,
)


# ---------------------------------------------------------------------------
# small IO helpers


def _fmt(x):
    return repr(float(x))


def read_dataset(path):
    """CSV with a header row; rejects missing values rather than imputing."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise ParseError(f"{path}: empty dataset file")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"{path}:{lineno}: expected {len(header)} fields")
                if any(field.strip() == "" for field in row):
                    raise ParseError(f"{path}:{lineno}: missing value")
                rows.append([float(v) for v in row])
    except (OSError, ValueError) as exc:
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
        with open(path) as fh:
            return Graph.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: not a valid graph file ({exc})") from exc


def _dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


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
        key, val = pair.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _float_or_list(text, k, what):
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidParams(f"{what}: {exc}") from exc
    if len(vals) == 1:
        return np.full(k, vals[0])
    if len(vals) != k:
        raise InvalidParams(f"{what} needs 1 or {k} comma-separated values")
    return np.asarray(vals)


def build_prior(regime, hyper, graph):
    k = graph.k
    b1 = float(hyper.get("b1", HYPER_DEFAULTS["b1"]))
    if regime == "noninfo":
        return NoninformativePrior(b1=b1)
    if regime == "proper":
        mu0 = _float_or_list(hyper.get("mu0", "0"), k, "mu0")
        return IndependentProperPrior(
            b1=b1,
            mu0=mu0,
            b2=float(hyper.get("b2", HYPER_DEFAULTS["b2"])),
            b3=float(hyper.get("b3", HYPER_DEFAULTS["b3"])),
            b4=float(hyper.get("b4", HYPER_DEFAULTS["b4"])),
            b5=float(hyper.get("b5", HYPER_DEFAULTS["b5"])),
        )
    if regime == "wishart":
        if "Psi" in hyper:
            try:
                psi_mat = np.asarray(json.loads(Path(hyper["Psi"]).read_text()), dtype=float)
            except (OSError, ValueError) as exc:
                raise InvalidParams(f"Psi: {exc}") from exc
        else:
            psi_mat = np.eye(k)
        if "psi" in hyper:
            psi_vec = _float_or_list(hyper["psi"], k, "psi")
        else:
            # smallest integer degrees that satisfy the propriety gate
            psi_vec = np.array([graph.forward_degree(i) + 1.0 for i in range(k)])
        try:
            return PatternWishartPrior(b1=b1, Psi=psi_mat, psi=psi_vec)
        except ValueError as exc:
            raise InvalidParams(str(exc)) from exc
    raise InvalidParams(f"unknown prior regime {regime!r}")


# ---------------------------------------------------------------------------
# commands


def cmd_check_graph(args):
    g = load_graph(args.graph)
    decomposable = is_decomposable(g)
    report = {
        "k": g.k,
        "n_edges": len(g.edges),
        "decomposable": decomposable,
    }
    if decomposable:
        ordering = perfect_elimination_ordering(g)
        identity_ok = verify_ordering(g, EliminationOrdering.identity(g.k))
        fwd_graph = g if identity_ok else g.relabel(ordering)
        fwd = [fwd_graph.forward_degree(i) for i in range(g.k)]
        report.update(
            {
                "elimination_ordering": [v + 1 for v in ordering.perm],
                "labels_are_elimination_ordering": identity_ok,
                "forward_neighbor_counts": fwd,
                "min_n_noninformative": max(fwd) + 2,
            }
        )
    if args.json:
        _dump_json(report)
        return 0
    print(f"vertices: {report['k']}  edges: {report['n_edges']}")
    if not decomposable:
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


def _simulation_truth(args):
    g = Graph(3, [(0, 1), (1, 2)])
    mu = 5.0 * np.ones(3)
    omega2 = np.ones(3)
    L = np.eye(3)
    if args.case == "A":
        if args.delta is None:
            raise InvalidParams(f"case A needs --delta (template grid: {CASE_DELTAS})")
        delta = np.full(3, args.delta)
        L[0, 1] = L[1, 2] = -0.5
    elif args.case == "B":
        if args.l_value is None:
            raise InvalidParams(f"case B needs --l-value (template grid: {CASE_LVALUES})")
        delta = np.full(3, 2.0)
        L[0, 1] = L[1, 2] = args.l_value
    elif args.case == "C":
        delta = np.array([3.0, -2.0, -4.0])
        L[0, 1] = -0.5
        L[1, 2] = 0.5
    else:
        if args.truth is None:
            raise InvalidParams("case custom needs --truth pointing to a truth JSON file")
        try:
            cfg = json.loads(Path(args.truth).read_text())
            g = Graph.from_json_dict(cfg["graph"])
            mu = np.asarray(cfg["mu"], dtype=float)
            delta = np.asarray(cfg["delta"], dtype=float)
            omega2 = np.asarray(cfg["omega2"], dtype=float)
            L = np.eye(g.k)
            for i, j, val in cfg["L"]:
                L[int(i) - 1, int(j) - 1] = float(val)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise InvalidParams(f"--truth: {exc}") from exc
    try:
        params = ReparamParams(mu, delta, omega2, L, g)
    except (ValueError, InvalidDomain) as exc:
        raise InvalidParams(str(exc)) from exc
    return g, params


def cmd_simulate(args):
    g, params = _simulation_truth(args)
    n = args.n
    if n < 1:
        raise InvalidParams("--n must be positive")
    rng = np.random.default_rng(args.seed)
    data = sample_sgdg(reparam_inverse(params), rng, n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    colnames = [f"x{i + 1}" for i in range(g.k)]
    write_dataset(out / "data.csv", data, colnames)
    g.save(out / "graph.json")
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
    _dump_json(truth, out / "truth.json")
    print(f"wrote {n} x {g.k} dataset to {out / 'data.csv'}")
    return 0


def _posterior_mean_params(trace):
    r = ReparamParams(
        trace.mu.mean(axis=0), trace.delta.mean(axis=0), trace.omega2.mean(axis=0),
        trace.l_matrix(trace.L.mean(axis=0)), trace.graph,
    )
    return reparam_inverse(r)


def write_plot_data(out, trace, data, colnames, seed, n_draws=50_000, grid_points=200):
    """Per-variable histogram bins plus a fitted marginal density grid."""
    rng = np.random.default_rng([int(seed), 982451653])
    fitted = sample_sgdg(_posterior_mean_params(trace), rng, n_draws)
    for j, name in enumerate(colnames):
        col = data[:, j]
        lo, hi = col.min(), col.max()
        pad = 0.15 * (hi - lo if hi > lo else 1.0)
        counts, edges = np.histogram(col, bins=20, range=(lo - pad, hi + pad))
        dens = counts / (counts.sum() * np.diff(edges))
        write_csv_rows(
            out / f"hist_{name}.csv",
            ["bin_left", "bin_right", "count", "density"],
            [
                (edges[b], edges[b + 1], float(counts[b]), dens[b])
                for b in range(len(counts))
            ],
        )
        grid = np.linspace(lo - pad, hi + pad, grid_points)
        kde = gaussian_kde(fitted[:, j])
        write_csv_rows(
            out / f"fitted_{name}.csv",
            ["x", "density"],
            list(zip(grid, kde(grid))),
        )


def cmd_fit(args):
    data, colnames = read_dataset(args.data)
    g = load_graph(args.graph)
    hyper = parse_hyper(args.hyper)
    prior = build_prior(args.prior, hyper, g)
    burn_in = args.burnin if args.burnin is not None else args.iters // 5
    trace = run_chain(
        data,
        g,
        prior,
        iters=args.iters,
        burn_in=burn_in,
        thin=args.thin,
        seed=args.seed,
        fix_delta_zero=args.fix_delta_zero,
        colnames=colnames,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace.save(out / "trace.ndjson")
    rows = summarize(trace)
    write_csv_rows(
        out / "summary.csv",
        ["param", "mean", "sd", "q2.5", "q50", "q97.5", "ess"],
        [
            (r["param"], r["mean"], r["sd"], r["q2.5"], r["q50"], r["q97.5"], r["ess"])
            for r in rows
        ],
    )
    write_plot_data(out, trace, data, colnames, args.seed)
    _dump_json(
        {
            "command": "fit",
            "data": str(args.data),
            "graph": str(args.graph),
            "prior": trace.meta["prior"],
            "iters": int(args.iters),
            "burn_in": int(burn_in),
            "thin": int(args.thin),
            "seed": int(args.seed),
            "fix_delta_zero": bool(args.fix_delta_zero),
            "n": trace.meta["n"],
            "k": trace.meta["k"],
            "retained_draws": len(trace),
            "data_digest": trace.meta["data_digest"],
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
    trace_a = _load_trace(args.trace_a)
    trace_b = _load_trace(args.trace_b)
    if trace_a.meta["data_digest"] != trace_b.meta["data_digest"]:
        raise DataMismatch("traces were not produced from identical data")
    est_a = estimate_log_marginal(trace_a.loglik, mix_weight=args.mix_weight)
    est_b = estimate_log_marginal(trace_b.loglik, mix_weight=args.mix_weight)
    log_bf = est_a.log_marginal - est_b.log_marginal
    report = {
        "trace_a": str(args.trace_a),
        "trace_b": str(args.trace_b),
        "log_marginal_a": est_a.log_marginal,
        "log_marginal_b": est_b.log_marginal,
        "evidence_a": est_a.to_dict(),
        "evidence_b": est_b.to_dict(),
        "log_bayes_factor_a_over_b": log_bf,
    }
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
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
    p_fit.add_argument("--prior", choices=["proper", "wishart", "noninfo"], required=True)
    p_fit.add_argument("--hyper", action="append", metavar="KEY=VALUE")
    p_fit.add_argument("--iters", type=int, default=50_000)
    p_fit.add_argument("--burnin", type=int, default=None)
    p_fit.add_argument("--thin", type=int, default=10)
    p_fit.add_argument("--seed", type=int, required=True)
    p_fit.add_argument("--fix-delta-zero", action="store_true", dest="fix_delta_zero",
                       help="pin the skew loadings at zero (Gaussian graphical baseline)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return ERROR_EXIT


if __name__ == "__main__":
    sys.exit(main())
