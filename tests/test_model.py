import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

import sgdg.model
from sgdg.graph import Graph, verify_ordering
from sgdg.linalg import modified_cholesky
from sgdg.model import (
    _MAX_NODES,
    _T_CHUNK,
    MAX_ABS_ALPHA,
    InvalidDomain,
    ReparamParams,
    SgdgParams,
    covariance_matrix,
    log_density,
    marginal_densities,
    mean_vector,
    reparam_inverse,
    sample_sgdg,
    sgdg_log_density,
)

from conftest import (
    chain_graph,
    gauss_legendre_grid,
    random_decomposable_graph,
    random_pattern_factor,
)
from oracles import (
    DimensionTooLarge,
    assemble_precision,
    ci_factorization_check,
    csn_log_density,
    reparam_forward,
    sample_csn,
    separates,
    to_csn,
)


def chain_params(alpha=(2.0, 2.0, 2.0), l12=-0.5, l23=-0.5, kappa2=(1.0, 1.0, 1.0), mu=None):
    g = chain_graph(3)
    L = np.eye(3)
    L[0, 1] = l12
    L[1, 2] = l23
    mu = np.zeros(3) if mu is None else np.asarray(mu, float)
    return SgdgParams(mu, np.asarray(alpha, float), L, np.asarray(kappa2, float), g)


def figure_like_params(alpha):
    g = Graph(2, [(0, 1)])
    L = np.eye(2)
    L[0, 1] = -0.5
    return SgdgParams(np.zeros(2), np.full(2, alpha), L, np.ones(2), g)


class TestParamsValidation:
    def test_pattern_containment_enforced(self):
        g = chain_graph(3)
        L = np.eye(3)
        L[0, 2] = 0.4  # not an edge
        with pytest.raises(InvalidDomain):
            SgdgParams(np.zeros(3), np.zeros(3), L, np.ones(3), g)

    def test_zero_entries_on_edges_allowed(self):
        p = chain_params(l12=0.0)
        assert p.L[0, 1] == 0.0

    def test_pattern_check_matches_support_loop(self, rng):
        # both parameter classes refuse exactly the L whose entries above 1e-12 leave the edge set
        values = np.array([0.0, 1e-13, 1e-12, -1e-12, 2e-12, -0.5, 0.7])
        for _ in range(300):
            g = random_decomposable_graph(rng, int(rng.integers(1, 6)))
            k = g.k
            L = np.eye(k) + np.triu(rng.choice(values, size=(k, k)), 1)
            within = all(abs(L[i, j]) <= 1e-12 or g.has_edge(i, j) for i in range(k) for j in range(i + 1, k))
            for build in (lambda: SgdgParams(np.zeros(k), np.zeros(k), L, np.ones(k), g),
                          lambda: ReparamParams(np.zeros(k), np.zeros(k), np.ones(k), L, g)):
                if within:
                    build()
                else:
                    with pytest.raises(InvalidDomain, match="graph pattern"):
                        build()

    def test_reparam_l_structure_refused_as_value_error(self):
        g = chain_graph(3)
        lower = np.eye(3)
        lower[1, 0] = 0.3
        for L in (np.eye(2), np.ones((3, 4)), np.diag([2.0, 1.0, 1.0]), lower):
            with pytest.raises(ValueError) as info:
                ReparamParams(np.zeros(3), np.zeros(3), np.ones(3), L, g)
            assert type(info.value) is ValueError

    def test_alpha_whose_square_overflows_refused(self):
        L, kappa2 = np.eye(2), np.ones(2)
        assert SgdgParams(np.zeros(2), np.array([MAX_ABS_ALPHA, -MAX_ABS_ALPHA]), L, kappa2, Graph(2)).k == 2
        for alpha in (1e200, -np.nextafter(MAX_ABS_ALPHA, np.inf), np.inf, np.nan):
            with pytest.raises(InvalidDomain, match="alpha"):
                SgdgParams(np.zeros(2), np.array([alpha, 0.5]), L, kappa2, Graph(2))
        # delta 1e200 with omega^2 1 is alpha 1e200, whose kappa^2 = 1 / (1 + alpha^2) would round to 0
        r = ReparamParams(np.zeros(2), np.array([1e200, 0.5]), np.ones(2), np.eye(2), Graph(2))
        with pytest.raises(InvalidDomain, match="alpha"):
            reparam_inverse(r)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SgdgParams(np.zeros(2), np.zeros(3), np.eye(3), np.ones(3), chain_graph(3))

    def test_identity_ordering_helper(self):
        assert verify_ordering(chain_graph(4))
        assert not verify_ordering(Graph(3, [(0, 1), (0, 2)]))


class TestFactorInvariants:
    """The factor (L, kappa^2) of `SgdgParams`: L unit upper triangular, kappa^2 positive."""

    def test_requires_unit_diagonal(self):
        with pytest.raises(ValueError):
            SgdgParams(np.zeros(2), np.zeros(2), np.diag([2.0, 1.0]), np.ones(2), Graph(2, [(0, 1)]))

    def test_requires_upper_triangular(self):
        L = np.eye(2)
        L[1, 0] = 0.3
        with pytest.raises(ValueError):
            SgdgParams(np.zeros(2), np.zeros(2), L, np.ones(2), Graph(2, [(0, 1)]))

    def test_requires_positive_diagonal(self):
        with pytest.raises(InvalidDomain):
            SgdgParams(np.zeros(2), np.zeros(2), np.eye(2), np.array([1.0, 0.0]), Graph(2, [(0, 1)]))


class TestLogDensity:
    def test_zero_skew_equals_multivariate_normal(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 7))
            g = random_decomposable_graph(rng, k)
            f = random_pattern_factor(rng, g)
            mu = rng.standard_normal(k)
            p = SgdgParams(mu, np.zeros(k), *f, g)
            x = rng.standard_normal((8, k)) * 1.5 + mu
            q = assemble_precision(*f)
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

    def test_finite_deep_in_skew_tail(self):
        # k = 1 at x = -60: 2 phi(x) Phi(x), with Phi(-60) far below the smallest double
        out = log_density(np.zeros(1), np.ones(1), np.eye(1), np.ones(1), np.array([[-60.0]]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(np.log(2.0) + norm.logpdf(-60.0) + norm.logcdf(-60.0), rel=1e-12)


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
            p = SgdgParams(rng.standard_normal(3), rng.standard_normal(3) * 3, *f, g)
            back = reparam_inverse(reparam_forward(p))
            max_err = max(
                max_err,
                np.abs(back.mu - p.mu).max(),
                np.abs(back.alpha - p.alpha).max(),
                np.abs(back.L - p.L).max(),
                np.abs(back.kappa2 - p.kappa2).max(),
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
        q = assemble_precision(p.L, p.kappa2)
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
        q = assemble_precision(p.L, p.kappa2)
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


class TestMarginalDensities:
    def _params(self):
        return chain_params(alpha=(1.0, -2.0, 0.5), l12=-0.6, l23=0.4, kappa2=(1.0, 1.5, 0.8), mu=(1.0, 0.0, -1.0))

    def test_equals_the_joint_density_integrated_over_the_others(self):
        # the oracle integrates exp(log_density) over the two other coordinates, 12 SDs each way
        p = self._params()
        m, sd = mean_vector(p), np.sqrt(np.diag(covariance_matrix(p)))
        quad = [gauss_legendre_grid(m[i] - 12 * sd[i], m[i] + 12 * sd[i], 110) for i in range(3)]
        points = np.array([np.linspace(m[i] - 5 * sd[i], m[i] + 5 * sd[i], 41) for i in range(3)])
        dens = marginal_densities(p, points)
        for j in range(3):
            others = [i for i in range(3) if i != j]
            (ga, wa), (gb, wb) = (quad[i] for i in others)
            xa, xb = np.meshgrid(ga, gb, indexing="ij")
            x = np.empty((xa.size, 3))
            x[:, others[0]], x[:, others[1]] = xa.ravel(), xb.ravel()
            expected = []
            for z in points[j]:
                x[:, j] = z
                expected.append(np.outer(wa, wb).ravel() @ np.exp(sgdg_log_density(p, x)))
            expected = np.array(expected)
            np.testing.assert_allclose(dens[j], expected, rtol=0, atol=1e-12 * expected.max())

    def test_moments_equal_the_closed_forms(self):
        p = self._params()
        m, var = mean_vector(p), np.diag(covariance_matrix(p))
        sd = np.sqrt(var)
        z = np.array([np.linspace(m[i] - 14 * sd[i], m[i] + 14 * sd[i], 4001) for i in range(3)])
        dens = marginal_densities(p, z)
        for j in range(3):
            w = np.full(z.shape[1], z[j, 1] - z[j, 0])  # trapezoid weights
            w[[0, -1]] /= 2
            assert w @ dens[j] == pytest.approx(1.0, abs=1e-12)
            mean = w @ (z[j] * dens[j])
            assert mean == pytest.approx(m[j], abs=1e-12 * sd[j])
            assert w @ ((z[j] - mean) ** 2 * dens[j]) == pytest.approx(var[j], rel=1e-12)

    @pytest.fixture
    def wofz_sizes(self, monkeypatch):
        """The size of each argument `marginal_densities` passes to the Faddeeva function."""
        sizes = []
        wofz = sgdg.model.wofz

        def recording(x):
            sizes.append(np.size(x))
            return wofz(x)

        monkeypatch.setattr(sgdg.model, "wofz", recording)
        return sizes

    @pytest.mark.parametrize("alpha", [1e3, -1e3])
    def test_high_skew_matches_azzalini_within_the_chunk_bound(self, wofz_sizes, alpha):
        # k = 1 with b / s = alpha needs about 26 |alpha| frequency nodes, several chunks
        p = SgdgParams(np.array([2.0]), np.array([alpha]), np.eye(1), np.array([0.5]), Graph(1))
        b = alpha / np.sqrt(0.5 * (1.0 + alpha**2))
        s = b / alpha
        omega = np.hypot(b, s)
        grid = 2.0 + np.linspace(-4.0, 4.0, 200) * omega
        dens = marginal_densities(p, grid[np.newaxis])[0]
        z = (grid - 2.0) / omega
        expected = 2.0 / omega * norm.pdf(z) * norm.cdf(alpha * z)
        np.testing.assert_allclose(dens, expected, rtol=0, atol=1e-12 * expected.max())
        assert np.all(dens >= 0.0)
        assert len(wofz_sizes) > 1 and max(wofz_sizes) <= _T_CHUNK

    def test_nearly_noiseless_marginal_is_bounded_and_smoothed(self, wofz_sizes):
        # b / s = 1e150 (kappa^2 = 4, so b = 0.5): exact inversion would need about 1e152 nodes;
        # the work stops at _MAX_NODES and the result is the half-normal limit 2/b phi(x/b)
        p = SgdgParams(np.zeros(1), np.array([1e150]), np.eye(1), np.array([4.0]), Graph(1))
        x = np.linspace(-0.5, 2.5, 200)
        dens = marginal_densities(p, x[np.newaxis])[0]
        assert sum(wofz_sizes) <= _MAX_NODES
        limit = np.where(x > 0, 4.0 * norm.pdf(2.0 * x), 0.0)
        far = np.abs(x) > 0.05  # away from the jump at 0, which the smoothing rounds off
        np.testing.assert_allclose(dens[far], limit[far], rtol=0, atol=1e-6 * limit.max())
        assert np.all(dens >= 0.0)


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
        p = SgdgParams(np.zeros(3), np.array([1.0, 0.5, -1.5]), *f, g)
        assert not ci_factorization_check(p, 0, 2)

    def test_gaussian_case_with_missing_edge(self):
        p = chain_params(alpha=(0.0, 0.0, 0.0))
        assert ci_factorization_check(p, 0, 2)

    def test_dimension_guard(self, rng):
        g = random_decomposable_graph(rng, 5)
        p = SgdgParams(np.zeros(5), np.zeros(5), *random_pattern_factor(rng, g), g)
        with pytest.raises(DimensionTooLarge):
            ci_factorization_check(p, 0, 2)

    def test_separation_implies_factorization_on_nondecomposable_pattern(self, rng):
        # four-cycle precision; the fill-in of the natural ordering adds (1,3)
        four_cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        q = 4.0 * np.eye(4)
        for a, b in four_cycle.edges:
            q[a, b] = q[b, a] = rng.uniform(0.3, 0.8) * rng.choice([-1, 1])
        L, D = modified_cholesky(q)
        assert abs(L[0, 2]) < 1e-12  # separation zero survives despite fill-in
        filled = Graph(4, list(four_cycle.edges) + [(1, 3)])
        p = SgdgParams(np.zeros(4), np.array([1.0, -1.0, 0.8, 1.2]), L, D, filled)
        assert separates(four_cycle, 0, 2)
        assert ci_factorization_check(p, 0, 2, nodes=120)

    def test_edge_set_determines_factorization(self, rng):
        # factorization holds exactly for the non-edges, fails for edges
        for _ in range(6):
            g = random_decomposable_graph(rng, int(rng.integers(3, 5)))
            f = random_pattern_factor(rng, g)
            alpha = rng.choice([-1.0, 1.0], size=g.k) * rng.uniform(0.8, 2.5, size=g.k)
            p = SgdgParams(rng.standard_normal(g.k) * 0.3, alpha, *f, g)
            for i in range(g.k):
                for j in range(i + 1, g.k):
                    assert ci_factorization_check(p, i, j, nodes=120) == (not g.has_edge(i, j))
