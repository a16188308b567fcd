"""The library API that the README's "Library use" section documents."""

import ast
from pathlib import Path

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
    "separates",
    "assemble_precision",
    "verify_pattern",
    "reparam_forward",
)

# public names that no package code calls, kept as documented API
UNCALLED_API = {
    "bayes_factor": "the README's library example compares two fits with it",
    "mean_vector": "the paper's closed-form mean of the model",
    "covariance_matrix": "the paper's closed-form covariance of the model",
    "sgdg_log_density": "the validated density; the benchmark's tracer times it",
    "load_mathmarks": "loads the bundled case-study data",
    "mathmarks_graph": "loads the bundled case-study graph",
    "has_carcass": "tells whether the carcass data are installed",
    "load_carcass": "loads the carcass data when installed",
    "carcass_graph": "loads the carcass graph when installed",
}


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


def test_readme_parameter_snippet_runs():
    from sgdg import Graph, SgdgParams, perfect_elimination_ordering, sample_sgdg, sgdg_log_density

    star = Graph(3, [(0, 1), (0, 2)])
    perm = perfect_elimination_ordering(star)
    assert perm == (1, 0, 2)
    g = star.relabel(perm)
    assert g == Graph(3, [(0, 1), (1, 2)])
    L = np.eye(3)
    L[0, 1], L[1, 2] = -0.5, 0.4
    p = SgdgParams(mu=np.zeros(3), alpha=np.array([2.0, 0.0, -1.0]), L=L, kappa2=np.ones(3), graph=g)
    x = sample_sgdg(p, np.random.default_rng(1), 5)
    assert x.shape == (5, 3) and np.all(np.isfinite(sgdg_log_density(p, x)))


def test_oracles_are_not_package_api():
    for module in (sgdg, sgdg.csn, sgdg.graph, sgdg.linalg, sgdg.model):
        present = [name for name in ORACLE_NAMES if hasattr(module, name)]
        assert present == [], module.__name__


def test_every_public_name_has_a_caller_in_the_package():
    # a caller is a load of the name, or an attribute of that name, in package code;
    # the imports of the re-exports in __init__.py are not loads, so they do not count
    defined, loaded = set(), set()
    for path in sorted(Path(sgdg.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                targets = []
            defined.update(name for name in targets if not name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    uncalled = defined - loaded
    assert uncalled - UNCALLED_API.keys() == set(), "test-only names belong in tests/oracles.py"
    assert UNCALLED_API.keys() <= uncalled, "an allowlisted name now has a caller: drop it from UNCALLED_API"
