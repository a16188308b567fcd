"""Shared test oracles, independent of the implementation paths they check."""

from itertools import combinations, permutations

import numpy as np
import pytest

from sgdg.graph import Graph, NotDecomposable, perfect_elimination_ordering
from sgdg.linalg import CholFactor


def has_chordless_cycle(g):
    """Brute-force search for a chordless cycle of length >= 4."""
    for m in range(4, g.k + 1):
        for sub in combinations(range(g.k), m):
            first = sub[0]
            for rest in permutations(sub[1:]):
                if rest[0] > rest[-1]:
                    continue  # skip mirror images
                cyc = (first,) + rest
                ring = [(cyc[t], cyc[(t + 1) % m]) for t in range(m)]
                if not all(g.has_edge(a, b) for a, b in ring):
                    continue
                ring_set = {(min(a, b), max(a, b)) for a, b in ring}
                chords = [
                    (a, b)
                    for a, b in combinations(cyc, 2)
                    if (min(a, b), max(a, b)) not in ring_set
                ]
                if not any(g.has_edge(a, b) for a, b in chords):
                    return True
    return False


def oracle_is_chordal(g):
    return not has_chordless_cycle(g)


def ordering_refused(g):
    """Whether `perfect_elimination_ordering` refuses g with NotDecomposable."""
    try:
        perfect_elimination_ordering(g)
    except NotDecomposable:
        return True
    return False


def random_graph(rng, k, p=None):
    if p is None:
        p = rng.uniform(0.15, 0.85)
    edges = [(i, j) for i, j in combinations(range(k), 2) if rng.uniform() < p]
    return Graph(k, edges)


def random_decomposable_graph(rng, k, relabeled=True):
    """A random chordal graph, screened by the brute-force oracle."""
    while True:
        g = random_graph(rng, k)
        if oracle_is_chordal(g):
            break
    if relabeled:
        g = g.relabel(perfect_elimination_ordering(g))
    return g


def random_pattern_factor(rng, g, lo=0.15, hi=1.2):
    """Generic factor on the graph pattern; entries bounded away from zero."""
    k = g.k
    L = np.eye(k)
    for a, b in g.edges:
        i, j = min(a, b), max(a, b)
        L[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi)
    D = rng.uniform(0.4, 2.5, size=k)
    return CholFactor(L, D)


def dense_ldl_oracle(q):
    """Textbook forward-elimination factorization q = L' D L, L unit upper."""
    q = np.array(q, dtype=float)
    k = q.shape[0]
    L = np.eye(k)
    D = np.zeros(k)
    for i in range(k):
        D[i] = q[i, i]
        assert D[i] > 0, "oracle hit a nonpositive pivot"
        L[i, i + 1 :] = q[i, i + 1 :] / D[i]
        q[i + 1 :, i + 1 :] -= D[i] * np.outer(L[i, i + 1 :], L[i, i + 1 :])
    return L, D


def gauss_legendre_grid(lo, hi, n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * nodes, half * weights


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def chain_graph(k=3):
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criteria verdict lines collected during the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)
