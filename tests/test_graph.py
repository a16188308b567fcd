from itertools import permutations

import pytest

from sgdg.graph import (
    MAX_VERTICES,
    Graph,
    NotDecomposable,
    perfect_elimination_ordering,
    verify_ordering,
)

from conftest import chain_graph, oracle_is_chordal, ordering_refused, random_graph
from oracles import separates


FOUR_CYCLE = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
TRIANGLE = Graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
STAR = Graph(4, [(3, 0), (3, 1), (3, 2)])  # center 3, leaves 0..2


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_edges_stored_once(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert len(g.edges) == 1

    def test_adjacency_symmetric(self):
        g = chain_graph(4)
        for i in range(4):
            for j in g.neighbors(i):
                assert i in g.neighbors(j)

    def test_forward_neighbor_counts_sum_to_edges(self):
        g = Graph(5, [(0, 1), (0, 4), (2, 3), (1, 4)])
        assert sum(g.forward_degree(i) for i in range(5)) == len(g.edges)
        assert g.forward_degree(4) == 0

    def test_relabel_needs_a_permutation_of_the_vertices(self):
        g = Graph(3, [(0, 1), (0, 2)])
        assert g.relabel((1, 2, 0)) == Graph(3, [(2, 0), (2, 1)])  # vertex perm[p] becomes p
        for perm in ((0, 1), (0, 1, 2, 3), (0, 0, 1), (1, 2, 3)):
            with pytest.raises(ValueError, match="not a permutation"):
                g.relabel(perm)

    def test_json_round_trip(self, tmp_path):
        g = Graph(4, [(0, 2), (1, 3)])
        path = tmp_path / "g.json"
        g.save(path)
        assert Graph.load(path) == g
        assert g.to_json_dict() == {"k": 4, "edges": [[1, 3], [2, 4]]}

    def test_json_vertex_cap(self):
        assert Graph.from_json_dict({"k": MAX_VERTICES, "edges": [[1, MAX_VERTICES]]}).k == MAX_VERTICES
        with pytest.raises(ValueError, match=f"exceeds the vertex cap of {MAX_VERTICES}"):
            Graph.from_json_dict({"k": MAX_VERTICES + 1, "edges": []})


class TestIsDecomposable:
    """`perfect_elimination_ordering` is the chordality test: it raises on exactly the non-chordal graphs."""

    def test_four_cycle_is_not(self):
        assert ordering_refused(FOUR_CYCLE)

    def test_triangle_is(self):
        assert not ordering_refused(TRIANGLE)

    def test_empty_graph_is(self):
        assert not ordering_refused(Graph(5))

    def test_chorded_four_cycle_is(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        assert oracle_is_chordal(g)  # every cycle of length >= 4 has a chord
        assert not ordering_refused(g)

    def test_single_vertex(self):
        assert not ordering_refused(Graph(1))
        assert perfect_elimination_ordering(Graph(1)) == (0,)

    def test_agrees_with_brute_force_oracle(self, rng):
        for _ in range(300):
            g = random_graph(rng, int(rng.integers(4, 9)))
            assert ordering_refused(g) == (not oracle_is_chordal(g))


class TestPerfectEliminationOrdering:
    def test_chain_returns_identity(self):
        g = chain_graph(3)
        ordering = perfect_elimination_ordering(g)
        assert verify_ordering(g)
        assert ordering == (0, 1, 2)

    def test_complete_graph_returns_lexicographically_smallest(self):
        assert perfect_elimination_ordering(K4) == (0, 1, 2, 3)

    def test_star_output_is_in_brute_forced_valid_set(self):
        valid = {
            perm
            for perm in permutations(range(4))
            if verify_ordering(STAR.relabel(perm))
        }
        assert perfect_elimination_ordering(STAR) in valid

    def test_nondecomposable_raises(self):
        with pytest.raises(NotDecomposable):
            perfect_elimination_ordering(FOUR_CYCLE)

    def test_output_always_verifies(self, rng):
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(4, 9)))
            if not oracle_is_chordal(g):
                continue
            assert verify_ordering(g.relabel(perfect_elimination_ordering(g)))

    def test_relabel_idempotence(self, rng):
        for _ in range(60):
            g = random_graph(rng, int(rng.integers(4, 9)))
            if not oracle_is_chordal(g):
                continue
            relabeled = g.relabel(perfect_elimination_ordering(g))
            assert perfect_elimination_ordering(relabeled) == tuple(range(g.k))


class TestVerifyOrdering:
    def test_chain_identity(self):
        assert verify_ordering(chain_graph(3))

    def test_chain_middle_vertex_first_fails(self):
        # eliminating the middle vertex first requires its endpoints adjacent
        assert not verify_ordering(chain_graph(3).relabel((1, 0, 2)))

    def test_complete_graph_any_ordering(self):
        for perm in permutations(range(3)):
            assert verify_ordering(TRIANGLE.relabel(perm))

    def test_matches_triple_enumeration(self, rng):
        # direct Definition-style check on the relabeled graph
        for _ in range(40):
            g = random_graph(rng, 5)
            perm = tuple(rng.permutation(5))
            rel = g.relabel(perm)
            expected = True
            for i in range(5):
                for j in range(i + 1, 5):
                    for l in range(j + 1, 5):
                        if rel.has_edge(j, i) and rel.has_edge(l, i) and not rel.has_edge(l, j):
                            expected = False
            assert verify_ordering(rel) == expected


class TestSeparates:
    def test_chain_ends_separated_by_middle(self):
        assert separates(chain_graph(3), 0, 2)

    def test_direct_edge_never_separated(self):
        g = Graph(4, [(0, 3), (1, 2)])
        assert not separates(g, 0, 3)

    def test_five_chain_ends(self):
        assert separates(chain_graph(5), 0, 4)

    def test_requires_increasing_pair(self):
        with pytest.raises(ValueError):
            separates(chain_graph(3), 2, 0)

    def test_low_detour_defeats_separation(self):
        # F(3,4) is empty here, so the low-labeled detour 3-0-4 stays available
        g = Graph(5, [(0, 3), (0, 4)])
        assert not separates(g, 3, 4)
