"""The library API that the README's "Library use" section documents."""

import numpy as np

import sgdg

# reference oracles of the test suite (tests/oracles.py), not package API
ORACLE_NAMES = (
    "CsnParams",
    "SingularBlock",
    "UnsupportedCovarianceStructure",
    "csn_conditional",
    "csn_log_density",
    "sample_csn",
    "to_csn",
    "ci_factorization_check",
    "DimensionTooLarge",
)


def test_readme_library_snippet_runs():
    from sgdg import Graph, NoninformativePrior, bayes_factor, run_chain, summarize
    from sgdg.datasets import load_mathmarks, mathmarks_graph

    data, names = load_mathmarks()
    g = mathmarks_graph()
    assert isinstance(g, Graph) and len(names) == g.k
    trace = run_chain(data, g, NoninformativePrior(b1=100.0),
                      iters=300, burn_in=100, thin=10, seed=1)
    rows = summarize(trace)
    assert len(trace) == 20
    assert {row["param"] for row in rows} >= {f"delta_{i + 1}" for i in range(g.k)}
    assert all(np.isfinite(row["mean"]) and np.isfinite(row["sd"]) for row in rows)
    baseline = run_chain(data, g, NoninformativePrior(b1=100.0),
                         iters=300, burn_in=100, thin=10, seed=2, fix_delta_zero=True)
    assert np.isfinite(bayes_factor(trace, baseline))


def test_oracles_are_not_package_api():
    for module in (sgdg, sgdg.csn, sgdg.model):
        present = [name for name in ORACLE_NAMES if hasattr(module, name)]
        assert present == [], module.__name__
