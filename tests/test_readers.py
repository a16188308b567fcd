"""Property tests for the input readers: each returns its object or raises its one domain error.

The dataset, graph, trace and `--hyper` readers are called directly; the truth
reader is reached through `sgdg simulate --case custom`, where the property is
that the command exits 0 or 3 and writes nothing to stderr but, on exit 3, one
JSON record. Warnings are raised as errors, so a stray numpy warning fails too.
"""

import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgdg.cli import InvalidParams, ParseError, _load_trace, build_prior, load_graph, main, parse_hyper, read_dataset
from sgdg.graph import MAX_VERTICES, Graph
from sgdg.inference import PRIORS, NoninformativePrior, Trace, run_chain, summarize

EXAMPLES = settings(max_examples=100, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# JSON values of every kind; integers stay within the 4300-digit limit of int/str conversion
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400), st.floats(), st.text(max_size=6)
)
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
numbers = st.one_of(st.integers(-5, 45), st.floats())
special_floats = st.sampled_from([math.inf, -math.inf, math.nan])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


# ---------------------------------------------------------------------------
# dataset CSV

csv_fields = st.one_of(
    st.floats().map(repr), st.integers(-(10**30), 10**30).map(str), st.text(max_size=8),
    st.sampled_from(["", " ", "nan", "inf", "1e999", '"1.5"', '"a,b"', "x/y", ".."]),
)
csv_lines = st.lists(csv_fields, min_size=0, max_size=4).map(",".join)
csv_texts = st.one_of(st.lists(csv_lines, max_size=6).map("\n".join), st.text(max_size=40))


@EXAMPLES
@given(text=csv_texts)
def test_read_dataset_returns_finite_matrix_or_parse_error(work, text):
    path = work / "data.csv"
    path.write_text(text, encoding="utf-8")
    try:
        data, header = read_dataset(path)
    except ParseError:
        return
    assert data.ndim == 2 and data.shape[0] >= 1 and data.shape[1] == len(header)
    assert np.all(np.isfinite(data))


# ---------------------------------------------------------------------------
# graph JSON

# an accepted k stays at or below 40, so that each example stays cheap; larger ones are
# drawn only above the reader's vertex cap, which refuses them before allocating anything
graph_k = st.one_of(st.integers(-3, 40), st.floats(-3.0, 40.0), special_floats, json_scalars.filter(
    lambda v: not isinstance(v, (int, float)) or isinstance(v, bool)),
    st.sampled_from([MAX_VERTICES + 1, 10**9, 1e9, 10**400]))
graph_edges = st.lists(st.one_of(st.lists(numbers, min_size=0, max_size=3), json_scalars), max_size=6)
graph_texts = st.one_of(
    st.fixed_dictionaries({"k": graph_k, "edges": graph_edges}).map(json.dumps),
    st.fixed_dictionaries({"k": graph_k, "edges": graph_edges, "other": json_values}).map(json.dumps),
    st.fixed_dictionaries({"k": graph_k}).map(json.dumps),
    st.lists(json_scalars, max_size=3).map(json.dumps),
    st.text(max_size=20),
)


@EXAMPLES
@given(text=graph_texts)
def test_load_graph_returns_graph_or_parse_error(work, text):
    path = work / "graph.json"
    path.write_text(text, encoding="utf-8")
    try:
        g = load_graph(path)
    except ParseError:
        return
    assert isinstance(g, Graph) and 1 <= g.k <= 40
    assert all(0 <= a < b < g.k for a, b in g.edges)
    record = json.loads(text)  # a count and labels that are JSON integers, not floats or booleans
    assert type(record["k"]) is int and all(type(label) is int for edge in record["edges"] for label in edge)


# ---------------------------------------------------------------------------
# truth JSON, through `sgdg simulate --case custom`


def run_quietly(argv):
    """Exit code and stderr of `main(argv)`, with every warning raised as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    return code, err.getvalue()


truth_numbers = st.one_of(st.floats(-10.0, 10.0), st.floats(), st.integers(-3, 3))


@st.composite
def truths(draw):
    """Truth records on k <= 4 vertices: mostly well formed, with numbers of any size.

    About one part in ten of each part is any JSON value instead.
    """
    def part(usual):
        return draw(json_values) if draw(st.integers(0, 9)) == 5 else draw(usual)

    k = draw(st.integers(1, 4))
    cells = [[i, j] for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    edges = draw(st.lists(st.sampled_from(cells), unique_by=tuple, max_size=len(cells))) if cells else []
    entries = st.tuples(st.integers(-1, 5), st.integers(-1, 5), truth_numbers).map(list)
    if edges:
        entries = st.one_of(st.tuples(st.sampled_from(edges), truth_numbers).map(lambda t: [*t[0], t[1]]), entries)
    record = {
        "graph": part(st.just({"k": k, "edges": edges})),
        "mu": part(st.lists(truth_numbers, min_size=k, max_size=k)),
        "delta": part(st.lists(truth_numbers, min_size=k, max_size=k)),
        "omega2": part(st.lists(st.floats(0.01, 10.0) | truth_numbers, min_size=k, max_size=k)),
        "L": part(st.lists(entries, max_size=4)),
    }
    return part(st.just(record))


@EXAMPLES
@given(truth=truths())
def test_custom_truth_exits_0_or_3_with_one_record(work, truth):
    (work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    out = work / "sim"
    if out.exists():
        for f in out.iterdir():
            f.unlink()
        out.rmdir()
    code, err = run_quietly(["simulate", "--case", "custom", "--truth", work / "truth.json",
                             "--n", 5, "--seed", 1, "--out", out])
    if code == 0:
        assert err == ""
        assert np.all(np.isfinite(read_dataset(out / "data.csv")[0]))
    else:
        assert code == 3 and err.count("\n") == 1
        assert json.loads(err)["error"] in ("InvalidParams", "InvalidDomain")
        assert not out.exists()


# ---------------------------------------------------------------------------
# trace NDJSON


@pytest.fixture(scope="module")
def trace_lines(work):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((30, 3))
    trace = run_chain(data, Graph(3, [(0, 1), (1, 2)]), NoninformativePrior(b1=100.0),
                      iters=20, burn_in=10, thin=5, seed=3)
    trace.save(work / "valid.ndjson")
    return (work / "valid.ndjson").read_text().splitlines(keepends=True)


@st.composite
def mutated_lines(draw, lines):
    """`lines` with one line replaced by other text, another JSON value, or the record with one field changed."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["text", "json", "field", "drop-field", "delete", "truncate"]))
    record = json.loads(lines[i])
    if kind == "text":
        lines[i] = draw(st.text(max_size=30)) + "\n"
    elif kind == "json":
        lines[i] = json.dumps(draw(json_values)) + "\n"
    elif kind == "field":
        record[draw(st.sampled_from(sorted(record) + ["type"]))] = draw(json_values)
        lines[i] = json.dumps(record) + "\n"
    elif kind == "drop-field":
        del record[draw(st.sampled_from(sorted(record)))]
        lines[i] = json.dumps(record) + "\n"
    elif kind == "delete":
        del lines[i]
    else:
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    return "".join(lines)


@EXAMPLES
@given(data=st.data())
def test_load_trace_returns_usable_trace_or_parse_error(work, trace_lines, data):
    path = work / "mutated.ndjson"
    path.write_text(data.draw(mutated_lines(trace_lines)), encoding="utf-8")
    try:
        trace = _load_trace(path)
    except ParseError as exc:
        assert str(exc).startswith(str(path))
        return
    assert isinstance(trace, Trace) and "data_digest" in trace.meta
    assert len(trace) >= 1 and trace.loglik.shape == (len(trace),) and np.all(np.isfinite(trace.loglik))
    assert len(summarize(trace)) == 3 * trace.meta["k"] + len(trace.meta["edge_order"])


# ---------------------------------------------------------------------------
# --hyper key=value pairs

hyper_keys = st.sampled_from(sorted({f.name for cls in PRIORS.values() for f in fields(cls)} - {"Psi"})
                             + ["B2", "b6", ""])
hyper_values = st.one_of(
    st.floats().map(repr), st.text(max_size=8),
    st.lists(st.one_of(st.floats(), st.integers(-3, 3)), min_size=0, max_size=4).map(lambda v: ",".join(map(str, v))),
)
hyper_pairs = st.lists(
    st.one_of(st.tuples(hyper_keys, hyper_values).map("=".join), st.text(max_size=8)), max_size=4
)


@EXAMPLES
@given(regime=st.sampled_from(sorted(PRIORS)), pairs=hyper_pairs)
def test_hyper_builds_prior_or_invalid_params(regime, pairs):
    g = Graph(3, [(0, 1), (1, 2)])
    try:
        prior = build_prior(regime, parse_hyper(pairs), g)
    except InvalidParams:
        return
    assert isinstance(prior, PRIORS[regime])
    for f in fields(prior):
        value = np.asarray(getattr(prior, f.name))
        if f.name == "mu0":
            assert np.all(np.isfinite(value))
        elif f.name != "Psi":
            assert np.all(value > 0)
