"""Undirected graphs, decomposability checks, and perfect elimination orderings.

Vertices are 0-based integers ``0..k-1`` in process; the JSON file format
(``{"k": int, "edges": [[i, j], ...]}``) uses 1-based labels. A graph read
from JSON has at most `MAX_VERTICES` vertices.
"""

import json
from itertools import combinations


# The ordering search is quadratic in k: on an edgeless graph `check-graph` took
# 0.8 s at k = 1000 and 1.4 s at k = 2000 (2-vCPU host, 0.7 s of it interpreter start).
# Capping k before `Graph` allocates one adjacency set per vertex keeps a short file
# such as {"k": 1e9, "edges": []} from asking for 10^9 sets.
MAX_VERTICES = 2000


class NotDecomposable(ValueError):
    """Raised when an operation requires a decomposable (chordal) graph."""


class Graph:
    """Immutable undirected graph on vertices 0..k-1 with no self-loops."""

    __slots__ = ("k", "edges", "_adj")

    def __init__(self, k, edges=()):
        if k < 1:
            raise ValueError("vertex count must be positive")
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < k and 0 <= b < k):
                raise ValueError(f"edge ({a},{b}) out of range for k={k}")
            norm.add((min(a, b), max(a, b)))
        self.k = int(k)
        self.edges = frozenset(norm)
        adj = [set() for _ in range(k)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = tuple(frozenset(s) for s in adj)

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges

    def neighbors(self, i):
        return self._adj[i]

    def forward_neighbors(self, i):
        """Sorted neighbors j of i with j > i (under the current labels)."""
        return sorted(j for j in self._adj[i] if j > i)

    def forward_degree(self, i):
        return sum(1 for j in self._adj[i] if j > i)

    def relabel(self, perm):
        """Rename vertex perm[p] to p; perm must be a permutation of 0..k-1."""
        if sorted(perm) != list(range(self.k)):
            raise ValueError("perm is not a permutation of 0..k-1")
        pos = {v: p for p, v in enumerate(perm)}
        return Graph(self.k, [(pos[a], pos[b]) for a, b in self.edges])

    def sorted_edges(self):
        return sorted(self.edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.k == other.k and self.edges == other.edges

    def __hash__(self):
        return hash((self.k, self.edges))

    def __repr__(self):
        return f"Graph(k={self.k}, edges={self.sorted_edges()})"

    def to_json_dict(self):
        """1-based dict matching the on-disk graph format."""
        return {"k": self.k, "edges": [[a + 1, b + 1] for a, b in self.sorted_edges()]}

    @classmethod
    def from_json_dict(cls, d):
        k = int(d["k"])
        if k > MAX_VERTICES:
            raise ValueError(f"k = {k} exceeds the vertex cap of {MAX_VERTICES}")
        return cls(k, [(int(a) - 1, int(b) - 1) for a, b in d["edges"]])

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _mcs_ordering(g):
    """Maximum cardinality search; first-visited vertex takes the last slot.

    Ties go to the largest vertex index, so freely orderable vertices end up
    in increasing label order (K_n maps to the identity) and rerunning on a
    graph already relabeled by this function reproduces the identity.
    """
    k = g.k
    weight = [0] * k
    visited = [False] * k
    perm = [0] * k
    for slot in range(k - 1, -1, -1):
        best = max((v for v in range(k) if not visited[v]), key=lambda v: (weight[v], v))
        visited[best] = True
        perm[slot] = best
        for u in g.neighbors(best):
            if not visited[u]:
                weight[u] += 1
    return tuple(perm)


def verify_ordering(g):
    """True iff g's labels 0..k-1 are a perfect vertex elimination scheme.

    Checks that the later-eliminated neighbors of each vertex are mutually
    adjacent (zero fill-in condition).
    """
    for i in range(g.k):
        for a, b in combinations(g.forward_neighbors(i), 2):
            if not g.has_edge(a, b):
                return False
    return True


def perfect_elimination_ordering(g):
    """A deterministic perfect elimination ordering of a decomposable graph.

    Returns the tuple perm of vertices in elimination order, so that
    `g.relabel(perm)` has labels that form the ordering. Raises
    NotDecomposable when g is not chordal.
    """
    perm = _mcs_ordering(g)
    if not verify_ordering(g.relabel(perm)):
        raise NotDecomposable("graph has a chordless cycle of length >= 4")
    return perm
