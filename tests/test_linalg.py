import numpy as np
import pytest

from sgdg.graph import Graph
from sgdg.linalg import CholFactor, NotPositiveDefinite, modified_cholesky, solve_unit_triangular
from sgdg.model import SgdgParams

from conftest import (
    chain_graph,
    dense_ldl_oracle,
    random_decomposable_graph,
    random_pattern_factor,
)
from oracles import assemble_precision, verify_pattern


class TestCholFactorInvariants:
    def test_requires_unit_diagonal(self):
        with pytest.raises(ValueError):
            CholFactor(np.diag([2.0, 1.0]), np.ones(2))

    def test_requires_upper_triangular(self):
        L = np.eye(2)
        L[1, 0] = 0.3
        with pytest.raises(ValueError):
            CholFactor(L, np.ones(2))

    def test_requires_positive_diagonal(self):
        with pytest.raises(NotPositiveDefinite):
            CholFactor(np.eye(2), np.array([1.0, 0.0]))


class TestModifiedCholesky:
    def test_identity(self):
        f = modified_cholesky(np.eye(3))
        assert np.array_equal(f.L, np.eye(3))
        assert np.array_equal(f.D, np.ones(3))

    def test_two_by_two_hand_computed(self):
        # Q = [[2,-1],[-1,1]] factors with D = (2, 1/2) and L01 = -1/2
        q = np.array([[2.0, -1.0], [-1.0, 1.0]])
        f = modified_cholesky(q)
        assert f.D == pytest.approx([2.0, 0.5], abs=1e-14)
        assert f.L[0, 1] == pytest.approx(-0.5, abs=1e-14)
        assert np.linalg.norm(q - assemble_precision(f)) < 1e-12

    def test_chain_precision_has_no_fill(self, rng):
        g = chain_graph(3)
        q = assemble_precision(random_pattern_factor(rng, g))
        f = modified_cholesky(q)
        assert abs(f.L[0, 2]) < 1e-12

    def test_not_positive_definite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            modified_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            modified_cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 9))
            a = rng.standard_normal((k, k))
            q = a @ a.T + k * np.eye(k)
            f = modified_cholesky(q)
            L_ref, D_ref = dense_ldl_oracle(q)
            assert np.allclose(f.L, L_ref, atol=1e-10)
            assert np.allclose(f.D, D_ref, atol=1e-10)

    def test_round_trip_uniqueness(self, rng):
        for _ in range(100):
            g = random_decomposable_graph(rng, int(rng.integers(2, 9)))
            f = random_pattern_factor(rng, g)
            back = modified_cholesky(assemble_precision(f))
            assert np.allclose(back.L, f.L, atol=1e-10)
            assert np.allclose(back.D, f.D, atol=1e-10)


class TestVerifyPattern:
    def test_chain_graph_factor(self, rng):
        g = chain_graph(3)
        q = assemble_precision(random_pattern_factor(rng, g))
        assert verify_pattern(modified_cholesky(q), g)

    def test_complete_graph_unconstrained(self, rng):
        k = 4
        g = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
        a = rng.standard_normal((k, k))
        assert verify_pattern(modified_cholesky(a @ a.T + k * np.eye(k)), g)

    def test_scrambled_ordering_shows_fill_in(self, rng):
        # star with the hub labeled first is not an elimination ordering:
        # eliminating the hub fills in every leaf pair, matching the oracle
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        q = 4.0 * np.eye(4)
        for a, b in g.edges:
            q[a, b] = q[b, a] = rng.uniform(0.3, 0.9)
        f = modified_cholesky(q)
        L_ref, _ = dense_ldl_oracle(q)
        assert np.allclose(f.L, L_ref, atol=1e-10)
        assert not verify_pattern(f, g)
        assert abs(f.L[1, 2]) > 1e-12  # fill-in created by the bad ordering

    def test_pattern_equivalence_random_graphs(self, rng):
        for _ in range(100):
            g = random_decomposable_graph(rng, int(rng.integers(2, 9)))
            q = assemble_precision(random_pattern_factor(rng, g))
            assert verify_pattern(modified_cholesky(q), g)

    def test_pattern_within_allows_zero_on_edge(self):
        # the model's pattern check asks only for zeros off the edges; the oracle also asks for nonzeros on them
        g = chain_graph(3)
        f = CholFactor(np.eye(3), np.ones(3))
        assert SgdgParams(np.zeros(3), np.zeros(3), f, g).factor is f
        assert not verify_pattern(f, g)


class TestAssemblePrecision:
    def test_diagonal_case(self):
        f = CholFactor(np.eye(2), np.array([4.0, 9.0]))
        assert np.array_equal(assemble_precision(f), np.diag([4.0, 9.0]))

    def test_chain_factor_round_trip(self):
        L = np.eye(3)
        L[0, 1] = -0.5
        L[1, 2] = -0.5
        f = CholFactor(L, np.ones(3))
        back = modified_cholesky(assemble_precision(f))
        assert np.allclose(back.L, L, atol=1e-12)
        assert np.allclose(back.D, np.ones(3), atol=1e-12)

    def test_missing_edge_entry_is_zero(self, rng):
        q = assemble_precision(random_pattern_factor(rng, chain_graph(3)))
        assert abs(q[0, 2]) < 1e-15

    def test_result_is_spd(self, rng):
        g = random_decomposable_graph(rng, 6)
        q = assemble_precision(random_pattern_factor(rng, g))
        assert np.all(np.linalg.eigvalsh(q) > 0)

    def test_determinant_identity(self, rng):
        for _ in range(20):
            g = random_decomposable_graph(rng, int(rng.integers(2, 8)))
            f = random_pattern_factor(rng, g)
            q = assemble_precision(f)
            assert np.linalg.det(q) == pytest.approx(np.prod(f.D), rel=1e-10)


class TestSolveUnitTriangular:
    def test_identity(self):
        f = CholFactor(np.eye(3), np.ones(3))
        b = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(solve_unit_triangular(f.L, b), b)

    def test_two_by_two_residual(self):
        L = np.eye(2)
        L[0, 1] = -0.5
        f = CholFactor(L, np.ones(2))
        x = solve_unit_triangular(f.L, np.array([1.0, 1.0]))
        assert np.linalg.norm(L @ x - [1.0, 1.0]) < 1e-14

    def test_random_sparse_matches_dense_solve(self, rng):
        g = random_decomposable_graph(rng, 8)
        f = random_pattern_factor(rng, g)
        b = rng.standard_normal(8)
        assert np.allclose(solve_unit_triangular(f.L, b), np.linalg.solve(f.L, b), atol=1e-12)

    def test_matrix_right_hand_side(self, rng):
        g = random_decomposable_graph(rng, 5)
        f = random_pattern_factor(rng, g)
        B = rng.standard_normal((5, 7))
        assert np.allclose(solve_unit_triangular(f.L, B), np.linalg.solve(f.L, B), atol=1e-12)
