import numpy as np
import pytest
from scipy.stats import multivariate_normal

from sgdg.csn import csn_log_density, sample_csn
from sgdg.graph import EliminationOrdering, Graph, separates, verify_ordering
from sgdg.linalg import CholFactor, assemble_precision, modified_cholesky
from sgdg.model import (
    DimensionTooLarge,
    InvalidDomain,
    ReparamParams,
    SgdgParams,
    ci_factorization_check,
    covariance_matrix,
    mean_vector,
    reparam_forward,
    reparam_inverse,
    sample_sgdg,
    sgdg_log_density,
    to_csn,
)

from conftest import (
    chain_graph,
    gauss_legendre_grid,
    random_decomposable_graph,
    random_pattern_factor,
)


def chain_params(alpha=(2.0, 2.0, 2.0), l12=-0.5, l23=-0.5, kappa2=(1.0, 1.0, 1.0), mu=None):
    g = chain_graph(3)
    L = np.eye(3)
    L[0, 1] = l12
    L[1, 2] = l23
    mu = np.zeros(3) if mu is None else np.asarray(mu, float)
    return SgdgParams(mu, np.asarray(alpha, float), CholFactor(L, np.asarray(kappa2, float)), g)


def figure_like_params(alpha):
    g = Graph(2, [(0, 1)])
    L = np.eye(2)
    L[0, 1] = -0.5
    return SgdgParams(np.zeros(2), np.full(2, alpha), CholFactor(L, np.ones(2)), g)


class TestParamsValidation:
    def test_pattern_containment_enforced(self):
        g = chain_graph(3)
        L = np.eye(3)
        L[0, 2] = 0.4  # not an edge
        with pytest.raises(InvalidDomain):
            SgdgParams(np.zeros(3), np.zeros(3), CholFactor(L, np.ones(3)), g)

    def test_zero_entries_on_edges_allowed(self):
        p = chain_params(l12=0.0)
        assert p.factor.L[0, 1] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SgdgParams(np.zeros(2), np.zeros(3), CholFactor(np.eye(3), np.ones(3)), chain_graph(3))

    def test_identity_ordering_helper(self):
        assert verify_ordering(chain_graph(4), EliminationOrdering.identity(4))
        assert not verify_ordering(Graph(3, [(0, 1), (0, 2)]), EliminationOrdering.identity(3))


class TestLogDensity:
    def test_zero_skew_equals_multivariate_normal(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 7))
            g = random_decomposable_graph(rng, k)
            f = random_pattern_factor(rng, g)
            mu = rng.standard_normal(k)
            p = SgdgParams(mu, np.zeros(k), f, g)
            x = rng.standard_normal((8, k)) * 1.5 + mu
            q = assemble_precision(f)
            ref = multivariate_normal(mean=mu, cov=np.linalg.inv(q)).logpdf(x)
            assert np.allclose(sgdg_log_density(p, x), ref, atol=1e-10)

    def test_two_dim_quadrature_is_one(self):
        for alpha in (2.0, 4.0):
            p = figure_like_params(alpha)
            sd = np.sqrt(np.diag(covariance_matrix(p)))
            m = mean_vector(p)
            g1, w1 = gauss_legendre_grid(m[0] - 8 * sd[0], m[0] + 8 * sd[0], 200)
            g2, w2 = gauss_legendre_grid(m[1] - 8 * sd[1], m[1] + 8 * sd[1], 200)
            xx, yy = np.meshgrid(g1, g2, indexing="ij")
            dens = np.exp(sgdg_log_density(p, np.column_stack([xx.ravel(), yy.ravel()])))
            assert w1 @ dens.reshape(200, 200) @ w2 == pytest.approx(1.0, abs=1e-6)

    def test_three_dim_quadrature_is_one(self):
        p = chain_params(alpha=(1.0, -2.0, 0.5), l12=-0.6, l23=0.4, kappa2=(1.0, 1.5, 0.8))
        sd = np.sqrt(np.diag(covariance_matrix(p)))
        m = mean_vector(p)
        grids = [gauss_legendre_grid(m[i] - 8 * sd[i], m[i] + 8 * sd[i], 110) for i in range(3)]
        xs = np.meshgrid(*[g for g, _ in grids], indexing="ij")
        pts = np.column_stack([x.ravel() for x in xs])
        dens = np.exp(sgdg_log_density(p, pts)).reshape(110, 110, 110)
        total = np.einsum("i,j,k,ijk->", grids[0][1], grids[1][1], grids[2][1], dens)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mode_and_tilt_with_positive_skew(self):
        p = figure_like_params(2.0)
        gr = np.linspace(-3, 3, 401)
        xx, yy = np.meshgrid(gr, gr, indexing="ij")
        lp = sgdg_log_density(p, np.column_stack([xx.ravel(), yy.ravel()])).reshape(401, 401)
        i, j = np.unravel_index(lp.argmax(), lp.shape)
        assert gr[i] > 0.3 and gr[j] > 0.3  # mode pushed into the positive quadrant
        f = np.exp(lp - lp.max())
        w = f / f.sum()
        m1, m2 = (w * xx).sum(), (w * yy).sum()
        assert (w * (xx - m1) * (yy - m2)).sum() > 0.1  # positively tilted contours

    def test_matches_csn_layer(self, rng):
        p = chain_params(alpha=(1.5, -1.0, 2.0), kappa2=(0.7, 1.3, 1.1), mu=(0.5, -1.0, 2.0))
        x = rng.standard_normal((30, 3)) * 2
        assert np.allclose(csn_log_density(to_csn(p), x), sgdg_log_density(p, x), atol=1e-10)


class TestReparam:
    def test_zero_alpha(self):
        p = chain_params(alpha=(0.0, 0.0, 0.0), kappa2=(1.0, 2.0, 3.0))
        r = reparam_forward(p)
        assert np.array_equal(r.delta, np.zeros(3))
        assert np.allclose(r.omega2, [1.0, 2.0, 3.0])

    def test_unit_alpha_and_kappa(self):
        p = chain_params(alpha=(1.0, 1.0, 1.0))
        r = reparam_forward(p)
        assert np.allclose(r.delta, 1 / np.sqrt(2))
        assert np.allclose(r.omega2, 2.0)

    def test_round_trip(self, rng):
        g = chain_graph(3)
        max_err = 0.0
        for _ in range(1000):
            f = random_pattern_factor(rng, g)
            p = SgdgParams(rng.standard_normal(3), rng.standard_normal(3) * 3, f, g)
            back = reparam_inverse(reparam_forward(p))
            max_err = max(
                max_err,
                np.abs(back.mu - p.mu).max(),
                np.abs(back.alpha - p.alpha).max(),
                np.abs(back.factor.L - p.factor.L).max(),
                np.abs(back.factor.D - p.factor.D).max(),
            )
        assert max_err < 1e-12

    def test_invalid_domain(self):
        with pytest.raises(InvalidDomain):
            ReparamParams(np.zeros(3), np.zeros(3), np.array([1.0, -1.0, 1.0]), np.eye(3), chain_graph(3))

    def test_sign_of_skew_recovered(self):
        r = ReparamParams(np.zeros(3), np.array([0.5, -2.0, 0.0]), np.full(3, 1.5), np.eye(3), Graph(3))
        p = reparam_inverse(r)
        assert np.sign(p.alpha[0]) == 1 and np.sign(p.alpha[1]) == -1 and p.alpha[2] == 0


class TestSampler:
    def test_zero_skew_recovers_precision(self, rng):
        p = chain_params(alpha=(0.0, 0.0, 0.0), kappa2=(1.0, 2.0, 0.5))
        n = 10**6
        x = sample_sgdg(p, rng, n)
        q = assemble_precision(p.factor)
        qhat = np.linalg.inv(np.cov(x, rowvar=False))
        assert np.abs(qhat - q).max() < 0.02 * np.abs(q).max()

    def test_case_c_middle_component_symmetric(self, rng):
        L = np.eye(3)
        L[0, 1] = -0.5
        L[1, 2] = 0.5
        r = ReparamParams(5 * np.ones(3), np.array([3.0, -2.0, -4.0]), np.ones(3), L, chain_graph(3))
        x = sample_sgdg(reparam_inverse(r), rng, 10**6)
        x2 = x[:, 1] - x[:, 1].mean()
        skew = (x2**3).mean() / (x2**2).mean() ** 1.5
        assert abs(skew) < 0.05

    def test_mean_matches_analytic(self, rng):
        p = chain_params(alpha=(2.0, 2.0, 2.0))
        n = 10**6
        x = sample_sgdg(p, rng, n)
        se = np.sqrt(np.diag(covariance_matrix(p)) / n)
        assert np.all(np.abs(x.mean(0) - mean_vector(p)) < 3 * se)

    def test_agrees_with_csn_sampler_moments(self, rng):
        p = chain_params(alpha=(1.0, -1.5, 0.5), mu=(1.0, 0.0, -1.0))
        n = 300_000
        x1 = sample_sgdg(p, rng, n)
        x2 = sample_csn(to_csn(p), rng, n)
        se = np.sqrt(np.diag(covariance_matrix(p)) / n)
        assert np.all(np.abs(x1.mean(0) - x2.mean(0)) < 5 * se)


class TestMoments:
    def test_zero_skew(self):
        p = chain_params(alpha=(0.0, 0.0, 0.0), kappa2=(1.0, 2.0, 0.5), mu=(1.0, 2.0, 3.0))
        assert np.allclose(mean_vector(p), p.mu)
        q = assemble_precision(p.factor)
        assert np.allclose(covariance_matrix(p), np.linalg.inv(q), atol=1e-12)

    def test_monte_carlo_agreement(self, rng):
        p = chain_params(alpha=(2.0, 2.0, 2.0))
        n = 10**6
        x = sample_sgdg(p, rng, n)
        cov = covariance_matrix(p)
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(x.mean(0) - mean_vector(p)) < 3 * se_mean)
        chat = np.cov(x, rowvar=False)
        dd = np.diag(cov)
        se_cov = np.sqrt((np.outer(dd, dd) + cov**2) / n)
        assert np.all(np.abs(chat - cov) < 3 * se_cov)

    def test_inverse_covariance_keeps_graph_zeros(self):
        p = chain_params(alpha=(2.0, -1.0, 3.0), kappa2=(0.8, 1.2, 1.7))
        prec = np.linalg.inv(covariance_matrix(p))
        assert abs(prec[0, 2]) < 1e-10


class TestFactorizationCheck:
    def test_chain_nonadjacent_pair_factorizes(self):
        p = chain_params(alpha=(1.5, -2.0, 1.0))
        assert ci_factorization_check(p, 0, 2)

    def test_chain_adjacent_pair_does_not(self):
        p = chain_params(alpha=(1.5, -2.0, 1.0))
        assert not ci_factorization_check(p, 0, 1)

    def test_complete_graph_generic_pair_does_not(self, rng):
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        f = random_pattern_factor(rng, g)
        p = SgdgParams(np.zeros(3), np.array([1.0, 0.5, -1.5]), f, g)
        assert not ci_factorization_check(p, 0, 2)

    def test_gaussian_case_with_missing_edge(self):
        p = chain_params(alpha=(0.0, 0.0, 0.0))
        assert ci_factorization_check(p, 0, 2)

    def test_dimension_guard(self, rng):
        g = random_decomposable_graph(rng, 5)
        p = SgdgParams(np.zeros(5), np.zeros(5), random_pattern_factor(rng, g), g)
        with pytest.raises(DimensionTooLarge):
            ci_factorization_check(p, 0, 2)

    def test_separation_implies_factorization_on_nondecomposable_pattern(self, rng):
        # four-cycle precision; the fill-in of the natural ordering adds (1,3)
        four_cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        q = 4.0 * np.eye(4)
        for a, b in four_cycle.edges:
            q[a, b] = q[b, a] = rng.uniform(0.3, 0.8) * rng.choice([-1, 1])
        f = modified_cholesky(q)
        assert abs(f.L[0, 2]) < 1e-12  # separation zero survives despite fill-in
        filled = Graph(4, list(four_cycle.edges) + [(1, 3)])
        p = SgdgParams(np.zeros(4), np.array([1.0, -1.0, 0.8, 1.2]), f, filled)
        assert separates(four_cycle, 0, 2)
        assert ci_factorization_check(p, 0, 2, nodes=120)

    def test_edge_set_determines_factorization(self, rng):
        # factorization holds exactly for the non-edges, fails for edges
        for _ in range(6):
            g = random_decomposable_graph(rng, int(rng.integers(3, 5)))
            f = random_pattern_factor(rng, g)
            alpha = rng.choice([-1.0, 1.0], size=g.k) * rng.uniform(0.8, 2.5, size=g.k)
            p = SgdgParams(rng.standard_normal(g.k) * 0.3, alpha, f, g)
            for i in range(g.k):
                for j in range(i + 1, g.k):
                    assert ci_factorization_check(p, i, j, nodes=120) == (not g.has_edge(i, j))
