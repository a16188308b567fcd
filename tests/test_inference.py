import errno
import re
import threading
import traceback
import warnings
from copy import deepcopy
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.signal import lfilter

from sgdg import csn, inference
from sgdg.csn import TAIL_SWITCH, sample_truncated_normal
from sgdg.datasets import load_mathmarks, mathmarks_graph
from sgdg.graph import Graph, NotDecomposable
from sgdg.inference import (
    FLAT_MU_REGIMES,
    DataStats,
    DimensionMismatch,
    EmptyTrace,
    GibbsState,
    IndependentProperPrior,
    NoninformativePrior,
    NumericalFailure,
    PatternWishartPrior,
    ProprietyViolation,
    Trace,
    _gaussian_draw,
    _observed_loglik,
    check_propriety,
    effective_sample_size,
    flat_mu_baseline_draws,
    gibbs_sweep,
    gibbs_update_delta,
    gibbs_update_L,
    gibbs_update_mu,
    gibbs_update_omega2,
    gibbs_update_u,
    l_row_conditional_params,
    l_row_groups,
    min_n_noninformative,
    mu_conditional_params,
    omega2_conditional_params,
    resolve_hyperparams,
    run_chain,
    summarize,
    u_conditional_params,
)
from sgdg.linalg import solve_unit_triangular
from sgdg.model import ReparamParams, log_density, reparam_inverse, sample_sgdg, sgdg_log_density

import oracles
from conftest import chain_graph, random_decomposable_graph


# ---------------------------------------------------------------------------
# independent unnormalized joint, written straight from the hierarchical model


def log_joint(state, u, data, graph, prior, include_delta=True):
    n, k = data.shape
    if np.any(u < 0):
        return -np.inf
    y = (data - state.mu) @ state.L.T
    resid = y - u * state.delta
    out = 0.5 * n * np.log(state.omega2).sum()
    out -= 0.5 * (state.omega2 * (resid**2).sum(axis=0)).sum()
    out -= 0.5 * (u**2).sum()
    if include_delta:
        out += 0.5 * np.log(state.omega2).sum()
        out -= (state.omega2 * state.delta**2).sum() / (2.0 * prior.b1)
    edges = graph.sorted_edges()
    if prior.regime == "proper":
        out -= ((state.mu - prior.mu0) ** 2).sum() / (2.0 * prior.b2)
        out += ((prior.b3 - 1.0) * np.log(state.omega2) - prior.b4 * state.omega2).sum()
        out -= sum(state.L[i, j] ** 2 for i, j in edges) / (2.0 * prior.b5)
    elif prior.regime == "wishart":
        out += ((prior.psi / 2.0 - 1.0) * np.log(state.omega2)).sum()
        lpsil = np.einsum("ij,jk,ik->i", state.L, prior.Psi, state.L)
        out -= 0.5 * (state.omega2 * lpsil).sum()
    else:
        out -= np.log(state.omega2).sum()
    return out


def random_state(rng, graph, n, zero_delta=False):
    """A random state and a random n x k latent block u for it."""
    k = graph.k
    L = np.eye(k)
    for a, b in graph.edges:
        L[min(a, b), max(a, b)] = rng.standard_normal()
    state = GibbsState(
        mu=rng.standard_normal(k),
        delta=np.zeros(k) if zero_delta else rng.standard_normal(k),
        omega2=rng.uniform(0.3, 2.5, k),
        L=L,
    )
    return state, np.abs(rng.standard_normal((n, k)))


def priors_for(k, rng):
    psi_margin = rng.uniform(0.5, 2.0, size=k)
    return [
        IndependentProperPrior(b1=0.8, mu0=rng.standard_normal(k) * 0.5, b2=2.0, b3=2.5, b4=1.5, b5=0.7),
        PatternWishartPrior(b1=1.2, Psi=np.eye(k) + 0.2, psi=np.arange(k, dtype=float)[::-1] + 1 + psi_margin),
        NoninformativePrior(b1=1.5),
    ]


# ---------------------------------------------------------------------------


class TestPriors:
    def test_positive_hyperparameters_required(self):
        with pytest.raises(ValueError):
            NoninformativePrior(b1=0.0)
        with pytest.raises(ValueError):
            IndependentProperPrior(b1=1.0, mu0=np.zeros(2), b2=-1.0, b3=1.0, b4=1.0, b5=1.0)

    @pytest.mark.parametrize("field", ["b1", "b2", "b3", "b4", "b5"])
    def test_proper_fields_must_be_finite(self, field):
        fields = {"b1": 1.0, "b2": 1.0, "b3": 1.0, "b4": 1.0, "b5": 1.0, field: np.inf}
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite$"):
            IndependentProperPrior(mu0=np.zeros(2), **fields)

    def test_flat_mu_prior_fields_must_be_finite(self):
        with pytest.raises(ValueError, match="^b1 must be positive and finite$"):
            NoninformativePrior(b1=np.inf)
        with pytest.raises(ValueError, match="^b1 must be positive and finite$"):
            PatternWishartPrior(b1=np.inf, Psi=np.eye(2), psi=np.full(2, 2.0))
        with pytest.raises(ValueError, match="^psi must be a positive finite vector matching Psi$"):
            PatternWishartPrior(b1=1.0, Psi=np.eye(2), psi=np.array([2.0, np.inf]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.allclose warned on inf - inf before the check
            with pytest.raises(ValueError, match="^Psi must be finite$"):
                PatternWishartPrior(b1=1.0, Psi=np.array([[np.inf, 0.0], [0.0, 1.0]]), psi=np.full(2, 2.0))

    def test_wishart_requires_spd_psi(self):
        with pytest.raises(ValueError):
            PatternWishartPrior(b1=1.0, Psi=np.array([[1.0, 2.0], [2.0, 1.0]]), psi=np.ones(2))


class TestProprietyGates:
    def test_chain_minimum_sample_size(self, rng):
        g = chain_graph(3)
        check_propriety(NoninformativePrior(b1=100.0), rng.standard_normal((3, 3)), g)
        with pytest.raises(ProprietyViolation, match="n >= "):
            check_propriety(NoninformativePrior(b1=100.0), rng.standard_normal((2, 3)), g)

    def test_wishart_boundary_is_strict(self, rng):
        g = chain_graph(3)
        data = rng.standard_normal((100, 3))
        fwd = np.array([g.forward_degree(i) for i in range(3)], dtype=float)
        at_boundary = PatternWishartPrior(b1=1.0, Psi=np.eye(3), psi=np.maximum(fwd, 0.5))
        with pytest.raises(ProprietyViolation):
            check_propriety(at_boundary, data, g)
        above = PatternWishartPrior(b1=1.0, Psi=np.eye(3), psi=fwd + 0.01)
        check_propriety(above, data, g)

    def test_proper_always_ok(self, rng):
        prior = IndependentProperPrior(b1=1.0, mu0=np.zeros(3), b2=1.0, b3=1.0, b4=1.0, b5=1.0)
        check_propriety(prior, rng.standard_normal((1, 3)), chain_graph(3))

    def test_constant_column_refused_under_noninfo_only(self, rng):
        g = chain_graph(3)
        data = rng.standard_normal((40, 3))
        data[:, 1] = 3.0
        with pytest.raises(ProprietyViolation, match=re.escape("column(s) [2] are constant")):
            check_propriety(NoninformativePrior(b1=100.0), data, g)
        data[0, 1] = np.nextafter(3.0, 4.0)  # a range of one ulp is constant to working precision
        with pytest.raises(ProprietyViolation, match=re.escape("column(s) [2] are constant")):
            check_propriety(NoninformativePrior(b1=100.0), data, g)
        data[0, 1] = 3.0 + 1e-8  # a small but real spread is not
        check_propriety(NoninformativePrior(b1=100.0), data, g)
        data[:, 1] = 3.0
        for prior in priors_for(3, rng)[:2]:  # proper and pattern-Wishart
            check_propriety(prior, data, g)

    def test_collinear_clique_refused_under_noninfo(self, rng):
        g = chain_graph(3)
        data = rng.standard_normal((40, 3))
        data[:, 2] = 2.0 * data[:, 1]
        with pytest.raises(ProprietyViolation, match=re.escape("clique(s) [[2, 3]] are rank-deficient")):
            check_propriety(NoninformativePrior(b1=100.0), data, g)
        data[:, 2] += 1e-6 * rng.standard_normal(40)
        check_propriety(NoninformativePrior(b1=100.0), data, g)

    def test_general_position_does_not_depend_on_units(self):
        # independent columns on scales 300 decades apart (sample correlation 0.17) are in general position
        data = np.random.default_rng(0).standard_normal((50, 2)) * [1e150, 1e-150]
        check_propriety(NoninformativePrior(b1=100.0), data, Graph(2, [(0, 1)]))
        data[:, 1] = 1e-300 * data[:, 0]  # the same column in other units is not
        with pytest.raises(ProprietyViolation, match=re.escape("clique(s) [[1, 2]] are rank-deficient")):
            check_propriety(NoninformativePrior(b1=100.0), data, Graph(2, [(0, 1)]))

    def test_general_position_of_data_near_the_top_of_the_float_range(self):
        # the squares of entries near 1e160 overflow; the verdicts are those of the same data in small units
        g = Graph(2, [(0, 1)])
        data = np.random.default_rng(0).standard_normal((50, 2)) * [1.0, 1e160]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_propriety(NoninformativePrior(b1=100.0), data, g)
            data[:, 1] = 1e160 * data[:, 0]
            with pytest.raises(ProprietyViolation, match=re.escape("clique(s) [[1, 2]] are rank-deficient")):
                check_propriety(NoninformativePrior(b1=100.0), data, g)
            data[:, 1] = 1e300
            with pytest.raises(ProprietyViolation, match=re.escape("column(s) [2] are constant")):
                check_propriety(NoninformativePrior(b1=100.0), data, g)

    def test_min_n_noninformative_is_the_smallest_accepted_n(self, rng):
        prior = NoninformativePrior(b1=100.0)
        for _ in range(30):
            g = random_decomposable_graph(rng, int(rng.integers(1, 7)))
            need = min_n_noninformative(g)
            check_propriety(prior, rng.standard_normal((need, g.k)), g)
            with pytest.raises(ProprietyViolation):
                check_propriety(prior, rng.standard_normal((need - 1, g.k)), g)


class TestResolveHyperparams:
    def test_noninformative_is_all_zero(self):
        r = resolve_hyperparams(NoninformativePrior(b1=1.0), 3)
        assert r.v_mu == 0.0
        assert np.all(r.s_omega == 0) and np.all(r.r_omega == 0)
        assert np.all(r.V_L == 0) and np.all(r.Psi == 0)

    def test_proper_values(self):
        prior = IndependentProperPrior(b1=1.0, mu0=np.zeros(3), b2=1e4, b3=2.0, b4=3.0, b5=100.0)
        r = resolve_hyperparams(prior, 3)
        assert r.v_mu == pytest.approx(1e-4)
        assert np.all(r.s_omega == 2.0) and np.all(r.r_omega == 3.0)
        assert np.allclose(r.V_L, np.eye(3) / 100.0)
        assert np.all(r.Psi == 0)

    def test_wishart_identity_case(self, rng):
        g = chain_graph(3)
        prior = PatternWishartPrior(b1=1.0, Psi=np.eye(3), psi=np.array([2.0, 2.0, 1.0]))
        r = resolve_hyperparams(prior, 3)
        assert np.allclose(r.s_omega, prior.psi / 2)
        assert np.all(r.r_omega == 0) and np.all(r.V_L == 0)
        assert np.array_equal(r.Psi, prior.Psi)
        # the state terms enter through the conditionals
        state, u = random_state(rng, g, 6)
        state = replace(state, omega2=np.array([2.0, 3.0, 4.0]), L=np.eye(3))
        y0 = rng.standard_normal((6, 3))
        flat = replace(r, Psi=np.zeros((3, 3)))
        sum_sq = ((y0 - u * state.delta) ** 2).sum(axis=0)
        rate = omega2_conditional_params(state, sum_sq, 6, r)[1]
        rate_flat = omega2_conditional_params(state, sum_sq, 6, flat)[1]
        assert np.allclose(rate - rate_flat, 0.5)  # L_i Psi L_i' = 1 for L = I
        (group,) = l_row_groups(g, r)  # rows 0 and 1, one free entry each
        (group_flat,) = l_row_groups(g, flat)
        prec = l_row_conditional_params(state, y0.T @ y0, u.T @ y0, r, group)[1]
        prec_flat = l_row_conditional_params(state, y0.T @ y0, u.T @ y0, flat, group_flat)[1]
        assert np.allclose(prec - prec_flat, [[[2.0]], [[3.0]]])  # omega_i^2 Psi on row i's support

    def test_psi_term_formed_only_where_psi_is_nonzero(self, rng):
        # the rate leaves out L_i Psi L_i' / 2 outside the wishart regime, with the same bytes
        g = chain_graph(3)
        for prior in priors_for(3, rng):
            r = resolve_hyperparams(prior, 3)
            assert r.regime == prior.regime
            state, u = random_state(rng, g, 6)
            y = rng.standard_normal((6, 3))
            lpsil = np.einsum("ij,jk,ik->i", state.L, r.Psi, state.L)
            resid = y - u * state.delta
            sum_sq = (resid**2).sum(axis=0) + state.delta**2 / prior.b1  # the delta prior is one more residual
            rate = r.r_omega + 0.5 * lpsil + 0.5 * sum_sq
            assert np.array_equal(omega2_conditional_params(state, sum_sq, 7, r)[1], rate), prior.regime

    def test_resolved_once_per_chain(self, rng, monkeypatch):
        import sgdg.inference

        regimes = []

        def counting(prior, *args, **kwargs):
            regimes.append(prior.regime)
            return resolve_hyperparams(prior, *args, **kwargs)

        monkeypatch.setattr(sgdg.inference, "resolve_hyperparams", counting)
        data = rng.standard_normal((20, 3))
        for prior in priors_for(3, rng):
            run_chain(data, chain_graph(3), prior, iters=30, thin=1, seed=5)
        assert regimes == ["proper", "wishart", "noninfo"]

def band_graph(k, width):
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, min(k, i + width + 1))])


def l_update_row_by_row(state, u, y0, graph, resolved, rng):
    """Reference L block: each row with free entries in turn, one draw per row.

    A row's cross moment is read from u' y0. A row with one free entry, of
    precision p, is h / p + z / sqrt(p); a larger row is prec^-1 (h + r z) with
    r r' = prec.
    """
    gram = y0.T @ y0
    cross = u.T @ y0
    new_l = state.L.copy()
    for i in range(graph.k):
        fwd = graph.forward_neighbors(i)
        if fwd:
            w = state.omega2[i]
            block = np.ix_(fwd, fwd + [i])
            s = w * gram[block] + resolved.V_L[block] + w * resolved.Psi[block]
            prec, zeta = s[:, :-1], s[:, -1]
            h = w * state.delta[i] * cross[i, fwd] - zeta
            z = rng.standard_normal(len(fwd))
            if len(fwd) == 1:
                new_l[i, fwd] = h / prec[0] + z / np.sqrt(prec[0])
            else:
                r = np.linalg.cholesky(prec)
                new_l[i, fwd] = np.linalg.solve(prec, h + (r * z).sum(axis=1))
    return new_l


# ---------------------------------------------------------------------------
# the earlier sweep algorithm, kept as the reference for changes in rounding


def three_call_draw(prec, h, z):
    """The earlier Gaussian draw: solve for the mean, factor prec = r r', solve r' x = z."""
    mean = np.linalg.solve(prec, h[..., np.newaxis])[..., 0]
    r = np.linalg.cholesky(prec)
    return mean + np.linalg.solve(np.swapaxes(r, -1, -2), z[..., np.newaxis])[..., 0]


def sweep_three_call(state, data, graph, resolved, rng, fix_delta_zero):
    """The sweep algorithm in the earlier arithmetic.

    The skew model's sum t is formed as sum(u o L x) on the data, the mu mean
    goes through a triangular solve and delta's mean is the earlier delta
    conditional, sum(u o (X - mu) L') / q, at the new mu. The omega^2
    residuals and the Gram matrix y0' y0 are formed on the n x k data, the
    skew model's omega^2 conditional adds the delta prior's half unit of shape
    and rate term delta^2 / (2 b1) to the data's, and the rows of L are drawn
    in row order, each with its own cross product u_i' y0[:, fwd] and the
    three-call draw. The u block and the gamma draw are the library's; the
    baseline draws no u, and its u terms are zero. Returns the state and u.
    """
    n, k = data.shape
    y = (data - state.mu) @ state.L.T
    u = np.zeros((n, k)) if fix_delta_zero else gibbs_update_u(state, y, rng)
    w = state.omega2
    q_omega = state.L.T @ (w[:, np.newaxis] * state.L)
    total = data.sum(axis=0)
    if fix_delta_zero:
        prec, h = n * q_omega, q_omega @ total
        z = rng.standard_normal(k)
    else:
        s = u.sum(axis=0)
        q = (u**2).sum(axis=0) + 1.0 / resolved.b1
        t = (u * (data @ state.L.T)).sum(axis=0)
        prec = state.L.T @ ((w * (n - s**2 / q))[:, np.newaxis] * state.L)
        h = q_omega @ (total - solve_unit_triangular(state.L, s * t / q))
        z = rng.standard_normal(2 * k)
    state.mu = three_call_draw(prec + resolved.v_mu * np.eye(k), h + resolved.v_mu * resolved.mu0, z[:k])
    if not fix_delta_zero:
        state.delta = (u * ((data - state.mu) @ state.L.T)).sum(axis=0) / q + z[k:] / np.sqrt(w * q)
    y0 = data - state.mu
    sum_sq = ((y0 @ state.L.T - u * state.delta) ** 2).sum(axis=0)
    shape, rate = omega2_conditional_params(state, sum_sq, n, resolved)
    if not fix_delta_zero:
        shape, rate = shape + 0.5, rate + state.delta**2 / (2.0 * resolved.b1)
    state.omega2 = rng.gamma(shape=shape, scale=1.0 / rate)
    gram = y0.T @ y0
    new_l = state.L.copy()
    for i in range(graph.k):
        fwd = graph.forward_neighbors(i)
        if fwd:
            w = state.omega2[i]
            block = np.ix_(fwd, fwd + [i])
            s = w * gram[block] + resolved.V_L[block] + w * resolved.Psi[block]
            prec, zeta = s[:, :-1], s[:, -1]
            h = w * state.delta[i] * (u[:, i] @ y0[:, fwd]) - zeta
            new_l[i, fwd] = three_call_draw(prec, h, rng.standard_normal(len(fwd)))
    state.L = new_l
    return state, u


class TestLRowGroups:
    GRAPHS = {
        "marks": mathmarks_graph(),
        "band-8-3": band_graph(8, 3),
        "complete-4": band_graph(4, 3),
        "chain-5": chain_graph(5),
    }

    @pytest.mark.parametrize("name", GRAPHS)
    def test_same_draws_as_row_by_row(self, rng, name):
        g = self.GRAPHS[name]
        for prior in priors_for(g.k, rng):
            resolved = resolve_hyperparams(prior, g.k)
            groups = l_row_groups(g, resolved)
            assert [grp.fwd.shape[1] for grp in groups] == sorted({len(g.forward_neighbors(i))
                                                                   for i in range(g.k)} - {0})
            state, u = random_state(rng, g, 12)
            y0 = rng.standard_normal((12, g.k)) * 1.3 + 0.4
            seed = int(rng.integers(2**32))
            stacked_rng, row_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            stacked = gibbs_update_L(state, y0.T @ y0, u.T @ y0, groups, resolved, stacked_rng)
            reference = l_update_row_by_row(state, u, y0, g, resolved, row_rng)
            assert np.array_equal(stacked, reference), prior.regime
            assert stacked_rng.bit_generator.state == row_rng.bit_generator.state

    def test_failing_row_is_named(self, rng):
        g = band_graph(4, 3)
        state, u = random_state(rng, g, 12)
        y0 = rng.standard_normal((12, 4))
        # column 3 makes the precisions of rows 1 and 2 singular; the groups run by
        # ascending forward degree, so row 2 (degree 2) fails before row 1 (degree 3)
        y0[:, 2] = 0.0
        resolved = resolve_hyperparams(NoninformativePrior(b1=1.0), 4)
        with pytest.raises(inference.NumericalFailure, match="L block, row 2: ") as info:
            gibbs_update_L(state, y0.T @ y0, u.T @ y0, l_row_groups(g, resolved), resolved, rng)
        # row 2's precision is omega_2^2 times the gram of columns 3 and 4 of y0, which is singular
        smallest = np.linalg.eigvalsh(state.omega2[1] * (y0.T @ y0)[np.ix_([2, 3], [2, 3])])[0]
        assert str(info.value).endswith(f"(smallest eigenvalue {smallest:.6g})")

    def test_floating_point_error_names_the_row(self, rng, monkeypatch):
        # an omega^2 near the top of the float range for row 2 overflows that row's
        # precision omega_2^2 (X - mu)'(X - mu); rows 1 to 3 form one group of degree 1
        real = inference.gibbs_update_omega2

        def huge_for_row_2(*args):
            draw = real(*args)
            draw[1] = 1e308
            return draw

        monkeypatch.setattr(inference, "gibbs_update_omega2", huge_for_row_2)
        data = rng.standard_normal((30, 4)) * 3.0
        with pytest.raises(NumericalFailure) as info:
            run_chain(data, chain_graph(4), NoninformativePrior(b1=1.0), iters=10, thin=1, seed=1)
        assert str(info.value).startswith("sweep 1, L block, row 2: floating-point overflow "), str(info.value)

    def test_graph_lookups_once_per_chain(self, rng, monkeypatch):
        calls = []
        lookup = Graph.forward_neighbors

        def counting(graph, i):
            calls.append(i)
            return lookup(graph, i)

        monkeypatch.setattr(Graph, "forward_neighbors", counting)
        g = mathmarks_graph()
        data = rng.standard_normal((30, g.k))
        counts = []
        for iters in (10, 40):
            calls.clear()
            run_chain(data, g, NoninformativePrior(b1=1.0), iters=iters, thin=1, seed=5)
            counts.append(len(calls))
        # k to check the elimination ordering, k for the cliques of the noninformative
        # general-position test and k to build the row groups of L
        assert counts == [3 * g.k, 3 * g.k]


class TestGaussianDraw:
    GRAPHS = {**TestLRowGroups.GRAPHS, "k1": Graph(1)}
    FIELDS = ("delta", "mu", "omega2", "L")

    @pytest.mark.parametrize("fix_delta_zero", [False, True], ids=["skew", "delta-zero"])
    @pytest.mark.parametrize("name", GRAPHS)
    def test_one_sweep_matches_three_call_algorithm(self, rng, name, fix_delta_zero):
        g = self.GRAPHS[name]
        for prior in priors_for(g.k, rng):
            resolved = resolve_hyperparams(prior, g.k)
            groups = l_row_groups(g, resolved)
            start, _ = random_state(rng, g, 12, zero_delta=fix_delta_zero)
            data = rng.standard_normal((12, g.k)) * 1.3 + 0.4
            seed = int(rng.integers(2**32))
            new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            new = deepcopy(start)
            new_u = gibbs_sweep(new, DataStats.of(data), groups, resolved, new_rng, fix_delta_zero)
            assert (new_u is None) == fix_delta_zero
            old, old_u = sweep_three_call(deepcopy(start), data, g, resolved, old_rng, fix_delta_zero)
            pairs = [(f, getattr(new, f), getattr(old, f)) for f in self.FIELDS]
            for f, got, ref in pairs + ([] if fix_delta_zero else [("u", new_u, old_u)]):
                # relative to the field's largest entry
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max(),
                                           err_msg=f"{prior.regime} {f}")
            assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_one_entry_closed_form_equals_three_call_draw(self, rng):
        for _ in range(2000):
            G = int(rng.integers(1, 9))
            prec = np.exp(rng.uniform(-8, 8, (G, 1, 1)))
            h = rng.standard_normal((G, 1)) * np.exp(rng.uniform(-8, 8, (G, 1)))
            z = rng.standard_normal((G, 1))
            assert np.array_equal(_gaussian_draw(prec, h, z), three_call_draw(prec, h, z))

    def test_non_positive_one_entry_precision_is_named(self, rng):
        g = chain_graph(3)  # rows 1 and 2 have one free entry each
        state, u = random_state(rng, g, 12)
        y0 = rng.standard_normal((12, 3))
        # row 2's one free entry, L[1, 2] 0-based, gets precision omega2[1] * y0[:, 2]' y0[:, 2] = 0;
        # without the check, h / p would be 0 / 0
        y0[:, 2] = 0.0
        resolved = resolve_hyperparams(NoninformativePrior(b1=1.0), 3)
        with pytest.raises(NumericalFailure, match="L block, row 2: ") as info:
            gibbs_update_L(state, y0.T @ y0, u.T @ y0, l_row_groups(g, resolved), resolved, rng)
        assert str(info.value).endswith("(smallest eigenvalue 0)")  # a 1 x 1 precision is its own eigenvalue

    def test_indefinite_mu_precision_is_named(self, rng):
        g = chain_graph(3)
        state, _ = random_state(rng, g, 12)
        state.omega2[1] = -0.5  # under the noninformative prior the precision is n L' diag(omega^2) L
        data = rng.standard_normal((12, 3))
        resolved = resolve_hyperparams(NoninformativePrior(b1=1.0), 3)
        _, prec = mu_conditional_params(state, DataStats.of(data), resolved, None)
        with pytest.raises(NumericalFailure, match="^mu block: ") as info:
            gibbs_update_mu(state, DataStats.of(data), resolved, None, rng)
        assert str(info.value).endswith(f"(smallest eigenvalue {np.linalg.eigvalsh(prec)[0]:.6g})")

    def test_lapack_calls_per_sweep(self, rng, monkeypatch):
        calls = []

        def counting(gufunc):
            def wrapper(*args):
                calls.append(gufunc.__name__)
                return gufunc(*args)
            return wrapper

        lapack = inference._umath_linalg
        monkeypatch.setattr(inference, "_umath_linalg", SimpleNamespace(
            cholesky_lo=counting(lapack.cholesky_lo), solve1=counting(lapack.solve1)))
        g = mathmarks_graph()
        data = rng.standard_normal((30, g.k))
        counts = []
        for iters in (10, 40):
            calls.clear()
            run_chain(data, g, NoninformativePrior(b1=1.0), iters=iters, thin=1, seed=5)
            counts.append(len(calls))
        # one Cholesky factorization and one solve each for the mu block and for the
        # group of rows with two free entries; the rows with one free entry need none
        assert counts[1] - counts[0] == 4 * 30

    def test_equals_the_numpy_linalg_draw_bit_for_bit(self, rng):
        # `_gaussian_draw` calls numpy's private LAPACK gufuncs; a numpy that changes them fails here
        def linalg_draw(prec, h, z):
            r = np.linalg.cholesky(prec)
            rz = (r * z[..., np.newaxis, :]).sum(axis=-1)
            return np.linalg.solve(prec, (h + rz)[..., np.newaxis])[..., 0]

        decades = []
        for _ in range(400):
            G, m = int(rng.integers(1, 9)), int(rng.integers(2, 7))
            q = np.linalg.qr(rng.standard_normal((G, m, m)))[0]
            # eigenvalues spread over 0 to 10 decades, around a scale of 1e-3 to 1e3
            cond = rng.uniform(0, 10, (G, 1))
            eig = 10.0 ** (rng.uniform(-3, 3, (G, 1)) + cond * rng.uniform(0, 1, (G, m)))
            prec = (q * eig[:, np.newaxis, :]) @ np.swapaxes(q, -1, -2)
            prec = 0.5 * (prec + np.swapaxes(prec, -1, -2))
            h = rng.standard_normal((G, m)) * 10.0 ** rng.uniform(-3, 3, (G, 1))
            z = rng.standard_normal((3, G, m))  # three draws per matrix, as `flat_mu_baseline_draws` takes
            for args in ((prec[0], h[0], z[0, 0]), (prec, h, z[0]), (prec, h, z)):
                assert np.array_equal(_gaussian_draw(*args), linalg_draw(*args))
            decades.append(np.log10(np.linalg.cond(prec)).max())
        assert min(decades) < 2 and max(decades) > 8

    def test_indefinite_member_of_a_stack_raises_linalg_error(self, rng):
        prec = np.stack([2.0 * np.eye(3), np.diag([1.0, -1.0, 1.0]), np.eye(3)])
        h, z = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # `run_chain`'s state
            with pytest.raises(np.linalg.LinAlgError):
                _gaussian_draw(prec, h, z)
            # an overflow outside the LAPACK calls stays a floating-point error
            with pytest.raises(FloatingPointError):
                _gaussian_draw(np.eye(3), np.full(3, 1e308), np.full(3, 1e308))
        with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's default state under the suite's filter
            with pytest.raises(np.linalg.LinAlgError):
                _gaussian_draw(prec, h, z)


class TestConditionalCollapse:
    def test_u_update_collapses_to_half_normal_when_delta_zero(self, rng):
        g = chain_graph(3)
        state, _ = random_state(rng, g, 20, zero_delta=True)
        data = rng.standard_normal((20, 3))
        mean, var = u_conditional_params(state, (data - state.mu) @ state.L.T)
        assert np.all(mean == 0.0)
        assert np.all(var == 1.0)


class TestBaselineSweep:
    """The baseline sweep draws no u and reads no n x k array: of `DataStats`, everything but `xc`."""

    @pytest.mark.parametrize("name", TestGaussianDraw.GRAPHS)
    def test_reads_the_data_only_through_the_statistics(self, rng, name):
        g = TestGaussianDraw.GRAPHS[name]
        for prior in priors_for(g.k, rng):
            resolved = resolve_hyperparams(prior, g.k)
            groups = l_row_groups(g, resolved)
            data = rng.standard_normal((12, g.k)) * 1.3 + 0.4
            stats = DataStats.of(data)
            start, _ = random_state(rng, g, 12, zero_delta=True)
            seed = int(rng.integers(2**32))
            ends = []
            for view in (stats, replace(stats, xc=np.full_like(stats.xc, np.nan))):
                state, sweep_rng = deepcopy(start), np.random.default_rng(seed)
                logliks = []
                for _ in range(5):
                    gibbs_sweep(state, view, groups, resolved, sweep_rng, fix_delta_zero=True)
                    logliks.append(_observed_loglik(state, view, fix_delta_zero=True))
                ends.append((state, logliks, sweep_rng.bit_generator.state))
            (real, real_ll, real_rng), (blind, blind_ll, blind_rng) = ends
            for f in TestGaussianDraw.FIELDS:
                assert np.array_equal(getattr(blind, f), getattr(real, f)), f"{prior.regime} {f}"
            assert blind_ll == real_ll and np.all(np.isfinite(real_ll)), prior.regime
            assert blind_rng == real_rng

    def test_truncated_normal_calls_per_sweep(self, rng, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sample_truncated_normal(*args, **kwargs)

        monkeypatch.setattr(inference, "sample_truncated_normal", counting)
        data, g = load_mathmarks()[0], mathmarks_graph()
        for fix_delta_zero, per_sweep in ((True, 0), (False, 1)):
            for prior in priors_for(g.k, rng):
                calls.clear()
                run_chain(data, g, prior, iters=40, thin=1, seed=5, fix_delta_zero=fix_delta_zero)
                assert len(calls) == 40 * per_sweep, (fix_delta_zero, prior.regime)


class TestUBlockRowBlocks:
    """Skew sweeps whose u block is large enough to split into row blocks."""

    K = 3
    N = 3 * csn.PARALLEL_MIN // K + 1  # three row blocks at three CPUs

    def data(self, rng):
        return rng.standard_normal((self.N, self.K)) + np.abs(rng.standard_normal((self.N, self.K)))

    def test_floating_point_error_in_a_helper_block_names_the_u_block(self, rng, monkeypatch):
        caller = threading.get_ident()

        def invalid_in_helper_blocks(t, u):
            if threading.get_ident() != caller:
                np.sqrt(np.full(1, -1.0))

        for name in ("_product_form", "_log_form"):
            monkeypatch.setattr(csn, name, invalid_in_helper_blocks)
        monkeypatch.setattr(csn, "_usable_cpus", lambda: 2)
        g, data = chain_graph(self.K), self.data(rng)
        resolved = resolve_hyperparams(NoninformativePrior(b1=1.5), self.K)
        state, _ = random_state(rng, g, self.N)
        with np.errstate(invalid="raise"), pytest.raises(NumericalFailure, match=r"^u block: floating-point invalid"):
            gibbs_sweep(state, DataStats.of(data), l_row_groups(g, resolved), resolved, rng)

    def test_trace_does_not_depend_on_the_cpu_count(self, rng, tmp_path, monkeypatch):
        data, g = self.data(rng), chain_graph(self.K)
        blocks = []
        real = csn._product_form

        def counting(t, u):
            blocks.append(t.shape[0])
            real(t, u)

        monkeypatch.setattr(csn, "_product_form", counting)
        traces = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(csn, "_usable_cpus", lambda: cpus)
            blocks.clear()
            trace = run_chain(data, g, NoninformativePrior(b1=1.0), iters=12, burn_in=4, thin=2, seed=31)
            assert len(blocks) == 12 * cpus, cpus  # every sweep took the product form, split over cpus blocks
            trace.save(tmp_path / f"cpus{cpus}.ndjson")
            traces.append((tmp_path / f"cpus{cpus}.ndjson").read_bytes())
        assert traces[1] == traces[0]
        assert traces[2] == traces[0]


def gaussian_slice_gap(rng, h, prec, joint_at):
    """|conditional log ratio - joint log ratio| of N(prec^-1 h, prec^-1) at two points about its mean."""
    mean = np.linalg.solve(prec, h)
    a = mean + rng.standard_normal(mean.shape[0])
    b = mean + rng.standard_normal(mean.shape[0])
    lhs = -0.5 * ((a - mean) @ prec @ (a - mean) - (b - mean) @ prec @ (b - mean))
    return abs(lhs - (joint_at(a) - joint_at(b)))


class FixedNormals:
    """A stand-in generator whose standard normals are the given numbers."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, size):
        assert size == self.z.size
        return self.z.copy()


def mu_slice_gap(rng, state, stats, resolved, latent, joint_with):
    """The gap of mu's law with delta integrated out.

    delta's conditional precision omega^2 o q does not depend on mu, so
    integrating delta out of the joint leaves, up to a constant, the joint at
    delta's conditional mean (t - s o L mu) / q: the law is checked against
    that profile. A latent of None (delta = 0) checks mu | delta against the joint.
    """
    h, prec = mu_conditional_params(state, stats, resolved, latent)
    if latent is None:
        return gaussian_slice_gap(rng, h, prec, lambda v: joint_with(mu=v))
    s, q, t = latent
    return gaussian_slice_gap(rng, h, prec, lambda v: joint_with(mu=v, delta=(t - s * (state.L @ v)) / q))


def delta_slice_gap(rng, state, latent, joint_with):
    """The gap of delta | mu at the state's mu, in one coordinate picked at random.

    The law is read off the block's draws from fixed normals, which give its
    mean and its mean plus one scale.
    """
    k = state.mu.shape[0]
    mean = gibbs_update_delta(state, latent, FixedNormals(np.zeros(k)))
    sd = gibbs_update_delta(state, latent, FixedNormals(np.ones(k))) - mean
    i = int(rng.integers(k))
    a, b = mean[i] + sd[i] * rng.standard_normal(2)
    lhs = -0.5 * ((a - mean[i]) ** 2 - (b - mean[i]) ** 2) / sd[i] ** 2
    da, db = mean.copy(), mean.copy()
    da[i], db[i] = a, b
    return abs(lhs - (joint_with(mu=state.mu, delta=da) - joint_with(mu=state.mu, delta=db)))


def omega2_slice_gap(rng, state, sum_sq, count, resolved, joint_with):
    """The gap in one coordinate of omega^2, picked at random."""
    shape, rate = omega2_conditional_params(state, sum_sq, count, resolved)
    i = int(rng.integers(state.omega2.shape[0]))
    a, b = rng.uniform(0.2, 3.0, size=2)
    lhs = (shape[i] - 1.0) * (np.log(a) - np.log(b)) - rate[i] * (a - b)
    oa, ob = state.omega2.copy(), state.omega2.copy()
    oa[i], ob[i] = a, b
    return abs(lhs - (joint_with(omega2=oa) - joint_with(omega2=ob)))


def l_row_slice_gap(rng, state, gram, cross, groups, resolved, joint_with):
    """The gap in one row of L with free entries, picked at random in row order, or 0 if there is none."""
    rows = sorted(((grp, g) for grp in groups for g in range(len(grp.rows))),
                  key=lambda pair: pair[0].rows[pair[1]])
    if not rows:
        return 0.0
    grp, g = rows[int(rng.integers(len(rows)))]
    i, fwd = grp.rows[g], list(grp.fwd[g])
    h_l, prec_l = l_row_conditional_params(state, gram, cross, resolved, grp)

    def joint_at(values):
        L = state.L.copy()
        L[i, fwd] = values
        return joint_with(L=L)

    return gaussian_slice_gap(rng, h_l[g], prec_l[g], joint_at)


def slice_ratio_worst(rng, graph, prior, n, include_delta=True):
    """Largest mismatch between conditional log ratios and joint log ratios.

    The skew conditionals (include_delta) read the mu block's sums s, q and
    t = sum(u o L x), the omega^2 residuals, with the delta prior's
    delta^2 / b1 as one more squared residual, and the Gram matrix y0' y0 of
    the L rows directly on the n x k data; the Gaussian baseline's read them as
    the library's baseline sweep does, through `DataStats.sum_sq` and
    `DataStats.gram`, with no u sums and no cross moment. The mu block reads
    `DataStats` in both.
    """
    data = rng.standard_normal((n, graph.k)) * 1.3 + 0.4
    stats = DataStats.of(data)
    state, u = random_state(rng, graph, n, zero_delta=not include_delta)
    resolved = resolve_hyperparams(prior, graph.k)
    y0 = data - state.mu
    y = y0 @ state.L.T

    def joint_with(u=u, **kw):
        return log_joint(replace(state, **kw), u, data, graph, prior, include_delta=include_delta)

    worst = 0.0

    # u entry
    mean_u, var_u = u_conditional_params(state, y)
    j, i = int(rng.integers(n)), int(rng.integers(graph.k))
    a, b = rng.uniform(0.05, 2.0, size=2)
    lhs = -0.5 * ((a - mean_u[j, i]) ** 2 - (b - mean_u[j, i]) ** 2) / var_u[i]
    ua, ub = u.copy(), u.copy()
    ua[j, i], ub[j, i] = a, b
    rhs = joint_with(u=ua) - joint_with(u=ub)
    worst = max(worst, abs(lhs - rhs))

    if include_delta:
        latent = (u.sum(axis=0), (u**2).sum(axis=0) + 1.0 / prior.b1, (u * (data @ state.L.T)).sum(axis=0))
        sum_sq = ((y - u * state.delta) ** 2).sum(axis=0) + state.delta**2 / prior.b1
        count, gram, cross = n + 1, y0.T @ y0, u.T @ y0
    else:
        d = stats.offset(state.mu)
        latent, sum_sq, count = None, stats.sum_sq(d, state.L), n
        gram, cross = stats.gram(d), None
    worst = max(worst, mu_slice_gap(rng, state, stats, resolved, latent, joint_with))
    if include_delta:  # delta | mu at a mu other than the state's
        worst = max(worst, delta_slice_gap(rng, replace(state, mu=state.mu + rng.standard_normal(graph.k)), latent,
                                           joint_with))
    worst = max(worst, omega2_slice_gap(rng, state, sum_sq, count, resolved, joint_with))
    worst = max(worst, l_row_slice_gap(rng, state, gram, cross, l_row_groups(graph, resolved), resolved,
                                         joint_with))
    return worst


class TestSliceRatios:
    """Every full conditional must match the joint's slice ratios exactly."""

    TOL = 1e-8

    def test_all_conditionals_all_regimes(self, rng):
        worst = 0.0
        for rep in range(50):
            k = int(rng.integers(2, 5))
            g = chain_graph(k) if rep % 2 == 0 else Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
            n = int(rng.integers(3, 9))
            for prior in priors_for(k, rng):
                worst = max(worst, slice_ratio_worst(rng, g, prior, n))
        assert worst < self.TOL

    def test_gaussian_baseline_conditionals(self, rng):
        worst = 0.0
        for _ in range(25):
            k = int(rng.integers(2, 5))
            g = chain_graph(k)
            for prior in priors_for(k, rng):
                worst = max(worst, slice_ratio_worst(rng, g, prior, 6, include_delta=False))
        assert worst < self.TOL

    @pytest.mark.parametrize("fix_delta_zero", [False, True], ids=["skew", "baseline"])
    def test_conditionals_of_the_inputs_a_sweep_forms(self, rng, monkeypatch, fix_delta_zero):
        # only the sweep knows the model: it forms the mu block's u sums, the omega^2 residuals
        # and their count, and the L rows' moments. The laws built from the inputs that a real
        # sweep passes to the (mu, delta), omega^2 and L blocks must match the joint of its state.
        gaps = {"gibbs_update_mu": mu_slice_gap, "gibbs_update_delta": delta_slice_gap,
                "gibbs_update_omega2": omega2_slice_gap, "gibbs_update_L": l_row_slice_gap}
        seen = []
        for name in gaps:
            def capture(state, *args, _name=name, _real=getattr(inference, name)):
                seen.append((_name, deepcopy(state), args[:-1]))  # all but the generator
                return _real(state, *args)

            monkeypatch.setattr(inference, name, capture)
        worst = 0.0
        for rep in range(10):
            k = int(rng.integers(2, 5))
            g = chain_graph(k) if rep % 2 else Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
            n = int(rng.integers(3, 9))
            data = rng.standard_normal((n, k)) * 1.3 + 0.4
            for prior in priors_for(k, rng):
                seen.clear()
                state, u = random_state(rng, g, n, zero_delta=fix_delta_zero)
                resolved = resolve_hyperparams(prior, k)
                drawn = gibbs_sweep(state, DataStats.of(data), l_row_groups(g, resolved), resolved, rng,
                                    fix_delta_zero)
                u = u if drawn is None else drawn  # the baseline reads no u: any u gives its joint up to a constant
                assert [name for name, _, _ in seen] == [name for name in gaps
                                                         if not (fix_delta_zero and name == "gibbs_update_delta")]
                for name, at_call, args in seen:
                    def joint_with(at_call=at_call, u=u, **kw):
                        return log_joint(replace(at_call, **kw), u, data, g, prior, include_delta=not fix_delta_zero)

                    worst = max(worst, gaps[name](rng, at_call, *args, joint_with))
        assert worst < self.TOL

    def test_scalar_model_textbook_augmentation(self, rng):
        # k = 1: all four blocks reduce to the scalar skew-normal scheme
        g = Graph(1)
        prior = IndependentProperPrior(b1=1.0, mu0=np.zeros(1), b2=1.0, b3=2.0, b4=2.0, b5=1.0)
        worst = max(slice_ratio_worst(rng, g, prior, 12) for _ in range(20))
        assert worst < self.TOL


def capture_skew_block_inputs(monkeypatch):
    """{block function: (its state, its inputs but the generator)} of the last call, for the skew sweep's blocks."""
    seen = {}
    for name in ("gibbs_update_mu", "gibbs_update_omega2", "gibbs_update_L"):
        def capture(state, *args, _name=name, _real=getattr(inference, name)):
            seen[_name] = (deepcopy(state), args[:-1])
            return _real(state, *args)

        monkeypatch.setattr(inference, name, capture)
    return seen


def direct_sums(data, u, before, after, b1):
    """t, u'(X - mu') and the omega^2 sums on the n x k data in extended precision, each with its scale.

    `u` is the sweep's new u, `before` the state that the (mu, delta) block
    reads and `after` the one that the omega^2 block reads, with the new (mu', delta'). A
    scale is the same sum over the magnitudes of its terms; the omega^2 sums'
    is their positive part, sum((L (x - mu'))^2) + delta'^2 (sum(u o u) + 1 / b1).
    """
    ld = np.longdouble
    x, u, L = data.astype(ld), u.astype(ld), before.L.astype(ld)
    mu, delta = after.mu.astype(ld), after.delta.astype(ld)
    y = (x - mu) @ L.T
    t = (u * (x @ L.T)).sum(axis=0), np.einsum("ri,rj,ij->i", np.abs(u), np.abs(x), np.abs(L))
    cross = u.T @ (x - mu), np.abs(u).T @ np.abs(x - mu)
    sum_sq = (((y - u * delta) ** 2).sum(axis=0) + delta**2 / b1,
              (y**2).sum(axis=0) + delta**2 * ((u * u).sum(axis=0) + 1 / ld(b1)))
    return t, cross, sum_sq


class TestSkewSweepStatistics:
    """After the u block the skew sweep reads k x k statistics; its block inputs must equal the n x k forms."""

    BOUND = 1e-13  # relative to each sum's scale (`direct_sums`); measured at most 3.1e-15

    @staticmethod
    def skewed_chain_start(rng, g, alpha, offset, n):
        """n rows drawn at a state with delta o omega = +-alpha, every column shifted by offset of its sds, and that state."""
        k = g.k
        L = np.eye(k)
        for i, j in g.sorted_edges():
            L[i, j] = rng.uniform(-0.8, 0.8)
        omega2 = rng.uniform(0.5, 2.0, k)
        delta = rng.choice([-1.0, 1.0], k) * alpha / np.sqrt(omega2)
        mu = rng.standard_normal(k) * 3.0
        data = sample_sgdg(reparam_inverse(ReparamParams(mu, delta, omega2, L, g)), rng, n)
        shift = offset * data.std(axis=0) * rng.choice([-1.0, 1.0], k)
        return data + shift, GibbsState(mu + shift, delta, omega2, L)

    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4], ids=["centred", "offset-1e2", "offset-1e4"])
    def test_statistics_equal_the_direct_sums(self, rng, monkeypatch, offset):
        # strongly skewed states, at alpha up to 3000, and data whose mean is up to 1e4 sds
        # from zero, where the omega^2 sums cancel most and the cross moment would lose
        # digits to the mean; the states are the chain's own, so u fits the data as it does
        seen = capture_skew_block_inputs(monkeypatch)
        worst = {"t": 0.0, "cross": 0.0, "sum_sq": 0.0}
        for alpha in (0.5, 3.0, 30.0, 300.0, 3000.0):
            for g in (chain_graph(4), Graph(3, [(0, 1), (0, 2), (1, 2)])):
                data, state = self.skewed_chain_start(rng, g, alpha, offset, int(rng.integers(20, 300)))
                for prior in priors_for(g.k, rng):
                    resolved = resolve_hyperparams(prior, g.k)
                    stats, groups, sweep_state = DataStats.of(data), l_row_groups(g, resolved), deepcopy(state)
                    for _ in range(3):
                        with np.errstate(over="raise", divide="raise", invalid="raise"):
                            u = gibbs_sweep(sweep_state, stats, groups, resolved, rng)
                        before, (_, _, (_, _, t)) = seen["gibbs_update_mu"]
                        after, (sum_sq, count, _) = seen["gibbs_update_omega2"]
                        _, (_, cross, _, _) = seen["gibbs_update_L"]
                        ref = dict(zip(worst, direct_sums(data, u, before, after, prior.b1)))
                        assert count == data.shape[0] + 1
                        # every sum kept more than OMEGA2_GUARD of its positive part: these are the k x k sums
                        assert (ref["sum_sq"][0] > inference.OMEGA2_GUARD * ref["sum_sq"][1]).all()
                        for name, got in (("t", t), ("cross", cross), ("sum_sq", sum_sq)):
                            exact, scale = ref[name]
                            worst[name] = max(worst[name], float(np.max(np.abs(got - exact) / scale)))
        assert max(worst.values()) < self.BOUND, worst

    def test_omega2_sums_against_mpmath(self, rng, monkeypatch):
        seen = capture_skew_block_inputs(monkeypatch)
        g = chain_graph(2)
        data, state = self.skewed_chain_start(rng, g, 300.0, 1e4, 8)
        prior = NoninformativePrior(b1=1.5)
        resolved = resolve_hyperparams(prior, g.k)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            u = gibbs_sweep(state, DataStats.of(data), l_row_groups(g, resolved), resolved, rng)
        before, _ = seen["gibbs_update_mu"]
        after, (sum_sq, _, _) = seen["gibbs_update_omega2"]
        with mpmath.workdps(60):
            def exact(a):
                return mpmath.matrix(np.atleast_2d(a).tolist())

            x, u, L, mu, delta = (exact(a) for a in (data, u, before.L, after.mu, after.delta))
            for i in range(g.k):
                ref = sum((sum(L[i, j] * (x[r, j] - mu[j]) for j in range(g.k)) - u[r, i] * delta[i]) ** 2
                          for r in range(data.shape[0])) + delta[i] ** 2 / prior.b1
                # these sums keep 0.03 and 0.17 of their positive parts; measured 8.6e-15 and 2.1e-15
                assert abs(sum_sq[i] - ref) <= 1e-13 * ref, (i, float(abs(sum_sq[i] - ref) / ref))

    def test_cancelled_sums_take_the_direct_pass(self, rng, monkeypatch):
        # near-constant columns, explained almost wholly by the skew term (delta o omega = 1e5 and
        # small delta, so that u is large) about a mu that the prior pins at 2: the omega^2 sums
        # keep far less than OMEGA2_GUARD of their positive part, and the sweep must sum the n
        # residuals, bit for bit as before
        seen = capture_skew_block_inputs(monkeypatch)
        g = chain_graph(3)
        n = 40
        data = 3.0 + 1e-6 * rng.standard_normal((n, g.k))
        prior = IndependentProperPrior(b1=1.5, mu0=np.full(g.k, 2.0), b2=1e-12, b3=2.0, b4=2.0, b5=1.0)
        resolved = resolve_hyperparams(prior, g.k)
        stats, groups = DataStats.of(data), l_row_groups(g, resolved)
        tripped = 0
        for _ in range(5):
            L = np.eye(g.k) + np.diag(rng.uniform(-1e-3, 1e-3, g.k - 1), 1)
            state = GibbsState(mu=np.full(g.k, 2.0), delta=np.full(g.k, 1e-3), omega2=np.full(g.k, 1e16), L=L)
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                u = gibbs_sweep(state, stats, groups, resolved, rng)
            before, _ = seen["gibbs_update_mu"]
            after, (sum_sq, _, _) = seen["gibbs_update_omega2"]
            _, _, (exact, positive) = direct_sums(data, u, before, after, resolved.b1)
            tripped += int((exact <= inference.OMEGA2_GUARD * positive).any())
            y = (stats.xc + stats.offset(before.mu)) @ before.L.T
            resid = y + before.L @ (before.mu - after.mu) - u * after.delta
            assert np.array_equal(sum_sq, (resid**2).sum(axis=0) + after.delta**2 / resolved.b1)
        assert tripped == 5


class TestDataStats:
    """`DataStats` centres X once; every view of X - mu is xc + offset(mu)."""

    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e6], ids=["centred", "1e2", "1e4", "1e6"])
    def test_gram_and_sum_sq_against_extended_precision(self, rng, offset):
        # data whose mean is up to 1e6 sds from zero, where a Gram matrix about xbar alone
        # loses the part of the mean that xbar rounds off (1.9e-10 relative at 1e6 sds)
        n, k = 88, 8
        worst = 0.0
        for _ in range(5):
            sd = rng.uniform(0.5, 3.0, k)
            data = (rng.standard_normal((n, k)) + offset * rng.choice([-1.0, 1.0], k)) * sd
            stats = DataStats.of(data)
            L = np.triu(rng.uniform(-0.8, 0.8, (k, k)), 1) + np.eye(k)
            for mu in (stats.xbar, stats.xbar + rng.standard_normal(k) * sd):
                y0 = data.astype(np.longdouble) - mu.astype(np.longdouble)
                gram, scale = y0.T @ y0, np.abs(y0).T @ np.abs(y0)
                sum_sq = ((y0 @ L.T.astype(np.longdouble)) ** 2).sum(axis=0)
                d = stats.offset(mu)
                worst = max(worst, float(np.max(np.abs(stats.gram(d) - gram) / scale)),
                            float(np.max(np.abs(stats.sum_sq(d, L) - sum_sq) / sum_sq)))
        assert worst < 1e-14, worst


def sweep_before_one_centre(state, data, groups, resolved, rng, fix_delta_zero):
    """The sweep in the arithmetic it had before `DataStats` centred the data once.

    r and the Gram matrix and `sum_sq` about xbar alone, d = xbar - mu there;
    the skew model's u block on (X - mu) L' of the raw data, its omega^2 sums
    and cross moment with d = xbar - mu' + xbar_lo, and ||r L_i'||^2 written
    out. The blocks are the library's. Returns the state and u (None for the
    baseline).
    """
    n = data.shape[0]
    total = data.sum(axis=0)
    xbar = total / n
    xc = data - xbar
    r = np.linalg.qr(xc, mode="r")
    scatter = r.T @ r
    xbar_lo = xc.mean(axis=0)
    xc -= xbar_lo
    moments = SimpleNamespace(n=n, total=total)  # what the mu block reads

    def gram(mu):
        d = xbar - mu
        return scatter + n * (d[:, np.newaxis] * d)

    u = None
    L, mu = state.L, state.mu
    if fix_delta_zero:
        state.mu = gibbs_update_mu(state, moments, resolved, None, rng)
        sum_sq = ((r @ L.T) ** 2).sum(axis=0) + n * (L @ (xbar - state.mu)) ** 2
        count, cross = n, None
    else:
        y = (data - mu) @ L.T
        u = gibbs_update_u(state, y, rng)
        s, uxc = u.sum(axis=0), u.T @ xc
        tc = (uxc * L).sum(axis=1)
        q = np.einsum("ij,ij->j", u, u) + 1.0 / resolved.b1
        latent = (s, q, tc + s * (L @ xbar))
        state.mu = gibbs_update_mu(state, moments, resolved, latent, rng)
        delta = state.delta = gibbs_update_delta(state, latent, rng)
        d = xbar - state.mu + xbar_lo
        ld = L @ d
        rl = r @ L.T
        positive = (rl * rl).sum(axis=0) + n * ld**2 + delta**2 * q
        sum_sq = positive - 2.0 * delta * (tc + s * ld)
        if np.count_nonzero(sum_sq <= inference.OMEGA2_GUARD * positive):
            resid = y + L @ (mu - state.mu) - u * delta
            sum_sq = (resid**2).sum(axis=0) + delta**2 / resolved.b1
        count, cross = n + 1, uxc + s[:, np.newaxis] * d
    state.omega2 = gibbs_update_omega2(state, sum_sq, count, resolved, rng)
    state.L = gibbs_update_L(state, gram(state.mu), cross, groups, resolved, rng)
    return state, u


class TestOneCentre:
    @pytest.mark.parametrize("name", TestGaussianDraw.GRAPHS)
    def test_one_sweep_matches_the_sweep_before_one_centre(self, rng, name):
        # the skew sweep under every prior and the baseline sweep under "proper", the one
        # regime where the baseline runs a chain
        g = TestGaussianDraw.GRAPHS[name]
        for prior in priors_for(g.k, rng):
            for fix_delta_zero in (False, True) if prior.regime == "proper" else (False,):
                resolved = resolve_hyperparams(prior, g.k)
                groups = l_row_groups(g, resolved)
                start, _ = random_state(rng, g, 30, zero_delta=fix_delta_zero)
                data = rng.standard_normal((30, g.k)) * 1.3 + 0.4
                seed = int(rng.integers(2**32))
                new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                new = deepcopy(start)
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    new_u = gibbs_sweep(new, DataStats.of(data), groups, resolved, new_rng, fix_delta_zero)
                    old, old_u = sweep_before_one_centre(deepcopy(start), data, groups, resolved, old_rng,
                                                         fix_delta_zero)
                pairs = [(f, getattr(new, f), getattr(old, f)) for f in TestGaussianDraw.FIELDS]
                for f, got, ref in pairs + ([] if fix_delta_zero else [("u", new_u, old_u)]):
                    # relative to the field's largest entry
                    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max(),
                                               err_msg=f"{prior.regime} {fix_delta_zero} {f}")
                assert new_rng.bit_generator.state == old_rng.bit_generator.state


class TestObservedLoglik:
    def test_array_loglik_matches_validated_density(self, rng):
        for k in range(1, 6):
            complete = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
            for g in (chain_graph(k), complete):
                n = int(rng.integers(3, 9))
                state, _ = random_state(rng, g, n)
                data = rng.standard_normal((n, k)) * 1.3 + 0.4
                r = ReparamParams(state.mu, state.delta, state.omega2, state.L, g)
                ref = sgdg_log_density(reparam_inverse(r), data).sum()
                assert _observed_loglik(state, DataStats.of(data)) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 88, 2000])
    def test_baseline_closed_form_matches_log_density(self, rng, n):
        g = band_graph(8, 2)  # k = 8; the noninformative prior needs n >= 4
        data = rng.standard_normal((n, g.k)) * 1.3 + 0.4
        stats = DataStats.of(data)
        states = [random_state(rng, g, n, zero_delta=True)[0] for _ in range(4)]
        for prior in priors_for(g.k, rng):
            if n < min_n_noninformative(g) and prior.regime == "noninfo":
                continue  # the gate refuses the chain
            trace = run_chain(data, g, prior, iters=12, burn_in=0, thin=3, seed=int(rng.integers(2**32)),
                              fix_delta_zero=True)
            for s in range(len(trace)):
                state = GibbsState(trace.mu[s], trace.delta[s], trace.omega2[s], trace.l_matrix(trace.L[s]))
                states.append(state)
                ref = log_density(state.mu, state.delta, state.L, state.omega2, data).sum()
                assert trace.loglik[s] == pytest.approx(ref, rel=1e-12, abs=0), prior.regime
        for state in states:  # alpha = 0 and kappa^2 = omega^2 at delta = 0
            ref = log_density(state.mu, state.delta, state.L, state.omega2, data).sum()
            assert _observed_loglik(state, stats, fix_delta_zero=True) == pytest.approx(ref, rel=1e-12, abs=0)


class TestStartState:
    """A chain starts from `DataStats` at delta = 0, and the first sweep takes the generator's first outputs."""

    PROPER = IndependentProperPrior(b1=1.0, mu0=np.zeros(3), b2=10.0, b3=2.0, b4=1.0, b5=1.0)

    @pytest.mark.parametrize("fix_delta_zero", [False, True], ids=["skew", "baseline"])
    def test_first_sweep_draws_from_a_fresh_generator(self, rng, fix_delta_zero):
        g = chain_graph(3)
        data = rng.standard_normal((25, 3)) * 2.0 + 7.0
        trace = run_chain(data, g, self.PROPER, iters=1, burn_in=0, thin=1, seed=9, fix_delta_zero=fix_delta_zero)
        stats, resolved = DataStats.of(data), resolve_hyperparams(self.PROPER, g.k)
        state = inference._initial_state(stats, g)
        assert np.array_equal(state.mu, data.mean(axis=0)) and np.all(state.delta == 0.0)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            u = gibbs_sweep(state, stats, l_row_groups(g, resolved), resolved, np.random.default_rng(9),
                            fix_delta_zero)
        if not fix_delta_zero:  # at delta = 0 the u conditional is HN(0, 1)
            half_normal = sample_truncated_normal(np.zeros(data.shape), 1.0, 0.0, np.random.default_rng(9))
            assert np.array_equal(u, half_normal)
        for f in ("mu", "delta", "omega2"):
            assert np.array_equal(getattr(trace, f)[0], getattr(state, f)), f
        assert np.array_equal(trace.L[0], trace.edge_values(state.L))

    @pytest.mark.parametrize("fix_delta_zero", [False, True], ids=["skew", "baseline"])
    def test_covariance_that_is_not_finite_refused(self, fix_delta_zero):
        # the scatter matrix is finite, but the trace of the sample covariance overflows
        k = 40
        data = np.random.default_rng(3).standard_normal((10, k)) * 2.5e153
        assert np.isfinite(DataStats.of(data).scatter).all()
        prior = IndependentProperPrior(b1=1.0, mu0=np.zeros(k), b2=1.0, b3=2.0, b4=1.0, b5=1.0)
        with pytest.raises(NumericalFailure, match="^start state: the sample covariance of the data is not finite$"):
            run_chain(data, chain_graph(k), prior, iters=10, thin=1, seed=1, fix_delta_zero=fix_delta_zero)

    def test_one_row_starts_at_the_identity_covariance(self, rng):
        g = chain_graph(3)
        data = rng.standard_normal((1, 3))
        state = inference._initial_state(DataStats.of(data), g)
        assert np.array_equal(state.mu, data[0]) and np.array_equal(state.L, np.eye(3))
        np.testing.assert_allclose(state.omega2, 1.0, rtol=2e-6)  # the inverse of I plus the ridge
        wishart = PatternWishartPrior(b1=1.0, Psi=np.eye(3), psi=np.array([2.0, 2.0, 1.0]))
        for prior, fix_delta_zero in ((self.PROPER, False), (self.PROPER, True), (wishart, False)):
            trace = run_chain(data, g, prior, iters=20, thin=1, seed=2, fix_delta_zero=fix_delta_zero)
            assert len(trace) == 16 and np.isfinite(trace.loglik).all(), (prior.regime, fix_delta_zero)


class TestRunChain:
    def _prior(self):
        return NoninformativePrior(b1=100.0)

    def _simulated(self, rng, n=60):
        g = chain_graph(3)
        L = np.eye(3)
        L[0, 1] = -0.5
        L[1, 2] = -0.5
        r = ReparamParams(5 * np.ones(3), np.full(3, 2.0), np.ones(3), L, g)
        return sample_sgdg(reparam_inverse(r), rng, n), g

    def test_deterministic_given_seed(self, rng):
        data, g = self._simulated(rng)
        t1 = run_chain(data, g, self._prior(), iters=300, burn_in=100, thin=5, seed=7)
        t2 = run_chain(data, g, self._prior(), iters=300, burn_in=100, thin=5, seed=7)
        assert np.array_equal(t1.mu, t2.mu)
        assert np.array_equal(t1.L, t2.L)
        assert np.array_equal(t1.loglik, t2.loglik)
        t3 = run_chain(data, g, self._prior(), iters=300, burn_in=100, thin=5, seed=8)
        assert not np.array_equal(t1.mu, t3.mu)

    def test_trace_shapes_and_meta(self, rng):
        data, g = self._simulated(rng)
        t = run_chain(data, g, self._prior(), iters=250, burn_in=50, thin=4, seed=1)
        assert len(t) == 50
        assert t.mu.shape == (50, 3) and t.L.shape == (50, 2)
        assert t.meta["sweep_order"] == ["u", "mu", "omega2", "L"]
        assert t.meta["edge_order"] == [[1, 2], [2, 3]]

    def test_fix_delta_zero_keeps_delta_at_zero(self, rng):
        data, g = self._simulated(rng)
        t = run_chain(data, g, self._prior(), iters=200, burn_in=50, thin=3, seed=3, fix_delta_zero=True)
        assert np.all(t.delta == 0.0)

    def test_floating_point_error_in_the_log_likelihood_named(self, rng, monkeypatch):
        data, g = self._simulated(rng)
        real = inference._observed_loglik
        monkeypatch.setattr(inference, "_observed_loglik",
                            lambda *args: real(*args) * np.float64(1e308) * np.float64(1e308))
        with pytest.raises(NumericalFailure) as info:
            run_chain(data, g, self._prior(), iters=20, burn_in=5, thin=5, seed=1)
        assert str(info.value).startswith("sweep 10, log likelihood: floating-point overflow ")

    @pytest.mark.parametrize("block", ["u", "mu", "omega2"])
    def test_floating_point_error_names_the_block(self, rng, block):
        g = chain_graph(3)
        data = rng.standard_normal((12, 3))
        state, _ = random_state(rng, g, 12, zero_delta=True)
        if block == "u":
            state.delta[1] = 1e200  # omega_2^2 delta_2^2 in the truncated-normal variance overflows
        elif block == "mu":
            state.omega2[1] = 1e308  # so does the precision L' diag(omega^2 o (n - s o s / q)) L
        else:
            # the baseline on one row of zeros: mu is drawn within about 1e-154 of it, so the
            # omega^2 rates (L (xbar - mu))^2 / 2 fall below 1e-308 and their reciprocals overflow
            data = np.zeros((1, 3))
            state = GibbsState(np.zeros(3), np.zeros(3), np.full(3, 1e308), np.eye(3))
        resolved = resolve_hyperparams(NoninformativePrior(b1=1.0), 3)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            with pytest.raises(NumericalFailure) as info:
                gibbs_sweep(state, DataStats.of(data), l_row_groups(g, resolved), resolved, rng,
                            fix_delta_zero=block == "omega2")
        assert re.match(rf"{block} block: floating-point overflow encountered in \w+$", str(info.value)), info.value

    def test_omega2_draw_outside_its_domain_named(self, rng):
        # an infinite rate, which numpy's default state lets through, gives a gamma scale
        # 1 / rate of 0, and so a draw of 0
        state, _ = random_state(rng, chain_graph(3), 5)
        resolved = resolve_hyperparams(NoninformativePrior(b1=1.0), 3)
        with pytest.raises(NumericalFailure) as info:
            gibbs_update_omega2(state, np.array([1.0, np.inf, 1.0]), 5, resolved, rng)
        assert str(info.value) == "omega2 block: draw left the positive domain"

    def test_omega2_rate_overflow_in_the_wishart_term_named(self, rng):
        # L_i Psi L_i' overflows to inf for the rows with a free entry without a floating-point
        # error (einsum raises none), so the gamma scale 1 / rate is 0 and so is their draw
        data = rng.standard_normal((30, 3))
        prior = PatternWishartPrior(b1=100.0, Psi=np.finfo(float).max * np.eye(3), psi=np.array([2.0, 2.0, 1.0]))
        with pytest.raises(NumericalFailure) as info:
            run_chain(data, chain_graph(3), prior, iters=10, thin=1, seed=1)
        assert str(info.value) == "sweep 1, omega2 block: floating-point overflow in L_i Psi L_i' of row(s) [1, 2]"

    def test_propriety_refusal(self, rng):
        data, g = self._simulated(rng, n=2)
        with pytest.raises(ProprietyViolation):
            run_chain(data, g, self._prior(), iters=100, seed=1)

    def test_bad_labeling_refused(self, rng):
        g = Graph(3, [(0, 1), (0, 2)])  # star centered at 0: labels are no PEO
        data = rng.standard_normal((30, 3))
        with pytest.raises(NotDecomposable):
            run_chain(data, g, self._prior(), iters=100, seed=1)

    def test_dimension_mismatch(self, rng):
        data = rng.standard_normal((30, 4))
        with pytest.raises(DimensionMismatch):
            run_chain(data, chain_graph(3), self._prior(), iters=100, seed=1)

    def test_mu0_of_wrong_length_refused_before_sampling(self, monkeypatch):
        sweeps = []
        monkeypatch.setattr(inference, "gibbs_sweep", lambda *args, **kwargs: sweeps.append(1))
        data, g = load_mathmarks()[0], mathmarks_graph()
        prior = IndependentProperPrior(1.0, np.zeros(3), 1e4, 1e-6, 1e-6, 100.0)
        with pytest.raises(DimensionMismatch, match="mu0"):
            run_chain(data, g, prior, iters=20, seed=1)
        assert sweeps == []
        for mu0 in (0.0, np.zeros(g.k)):  # a scalar or one entry per vertex passes
            check_propriety(replace(prior, mu0=np.asarray(mu0)), data, g)

    def test_seed_required(self, rng):
        data, g = self._simulated(rng)
        with pytest.raises(TypeError):
            run_chain(data, g, self._prior(), iters=100)

    def test_trace_save_load_round_trip(self, rng, tmp_path):
        data, g = self._simulated(rng)
        t = run_chain(data, g, self._prior(), iters=200, burn_in=100, thin=5, seed=2)
        path = tmp_path / "trace.ndjson"
        t.save(path)
        back = Trace.load(path)
        assert np.array_equal(back.mu, t.mu)
        assert np.array_equal(back.loglik, t.loglik)
        assert back.meta == t.meta
        expected_l = np.eye(3)
        expected_l[0, 1], expected_l[1, 2] = t.L[0]
        assert np.array_equal(back.l_matrix(back.L[0]), expected_l)
        assert np.array_equal(back.edge_values(expected_l), t.L[0])
        assert back.meta["schema"] == t.meta["schema"] == 1

    @pytest.mark.parametrize("schema", [None, 0, 2, 1.0, "1", True])
    def test_missing_or_unknown_schema_refused(self, rng, tmp_path, schema):
        data, g = self._simulated(rng)
        t = run_chain(data, g, self._prior(), iters=20, burn_in=10, thin=5, seed=2)
        if schema is None:
            del t.meta["schema"]
        else:
            t.meta["schema"] = schema
        path = tmp_path / "trace.ndjson"
        t.save(path)
        with pytest.raises(ValueError, match=f"^the meta record's schema is {schema!r}, not 1$"):
            Trace.load(path)

    def test_failed_save_leaves_existing_trace(self, rng, tmp_path, monkeypatch):
        data, g = self._simulated(rng)
        earlier = run_chain(data, g, self._prior(), iters=200, burn_in=100, thin=5, seed=1)
        path = tmp_path / "trace.ndjson"
        earlier.save(path)
        before = path.read_bytes()
        t = run_chain(data, g, self._prior(), iters=200, burn_in=100, thin=5, seed=2)
        budget = len(oracles.trace_text(t)) // 2
        opened = []

        class FullDisk:
            """A file that takes `budget` characters, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh, self.written = fh, 0

            def write(self, text):
                room = budget - self.written
                self.fh.write(text[:room])
                self.written += min(len(text), room)
                if len(text) > room:
                    raise OSError(errno.ENOSPC, "No space left on device")

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        def open_full_disk(file, mode):
            opened.append(FullDisk(open(file, mode)))
            return opened[-1]

        monkeypatch.setattr(inference, "open", open_full_disk, raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            t.save(path)
        assert opened[0].written == budget
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.ndjson"]

    def test_failed_fsync_leaves_existing_trace(self, rng, tmp_path, monkeypatch):
        data, g = self._simulated(rng)
        path = tmp_path / "trace.ndjson"
        run_chain(data, g, self._prior(), iters=200, burn_in=100, thin=5, seed=1).save(path)
        before = path.read_bytes()
        t = run_chain(data, g, self._prior(), iters=200, burn_in=100, thin=5, seed=2)

        def failing_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(inference.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="Input/output error"):
            t.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.ndjson"]

    @pytest.mark.parametrize("prior_index", [0, 1, 2], ids=["proper", "wishart", "noninfo"])
    @pytest.mark.parametrize("fix_delta_zero", [False, True], ids=["skew", "baseline"])
    def test_save_writes_one_json_dumps_line_per_record(self, rng, tmp_path, prior_index, fix_delta_zero):
        data, g = self._simulated(rng)
        prior = priors_for(3, rng)[prior_index]
        t = run_chain(data, g, prior, iters=120, burn_in=20, thin=2, seed=5, fix_delta_zero=fix_delta_zero)
        t.save(tmp_path / "trace.ndjson")
        assert (tmp_path / "trace.ndjson").read_text() == oracles.trace_text(t)

    # 12 values are three rows of four here, so non-finite rows fall in every block
    @pytest.mark.parametrize("block_values", [inference.SAVE_BLOCK_VALUES, 12, 1])
    def test_save_writes_json_tokens_for_extreme_and_non_finite_values(self, tmp_path, monkeypatch, block_values):
        monkeypatch.setattr(inference, "SAVE_BLOCK_VALUES", block_values)
        big = 1.7976931348623157e308
        values = np.array([-0.0, 5e-324, big, -big, np.nan, np.inf, -np.inf, 1.0, 0.1])
        meta = {"k": 1, "edge_order": [], "graph": {"k": 1, "edges": []}}
        column = values[:, None]
        for mu, omega2 in ((column, column[::-1]), (column[::-1], column)):
            t = Trace(mu, -column, omega2, np.empty((len(values), 0)), np.linspace(-1.0, 1.0, len(values)), meta)
            t.save(tmp_path / "trace.ndjson")
            text = (tmp_path / "trace.ndjson").read_text()
            assert text == oracles.trace_text(t)
            assert '"L": []' in text and "NaN" in text and "-Infinity" in text and "5e-324" in text

    def test_quick_posterior_recovery(self, rng):
        # coarse sanity run; the acceptance suite runs the real recovery study
        data, g = self._simulated(rng, n=500)
        t = run_chain(data, g, self._prior(), iters=6000, burn_in=2000, thin=4, seed=11)
        for est, truth in ((t.mu, 5.0), (t.delta, 2.0), (t.omega2, 1.0)):
            post_mean = est.mean(axis=0)
            post_sd = est.std(axis=0)
            assert np.all(np.abs(post_mean - truth) < 4 * post_sd)


def ar1(rho, n, seed):
    """n steps of x_t = rho x_{t-1} + z_t with standard normal z, from x_0 = z_0."""
    return lfilter([1.0], [1.0, -rho], np.random.default_rng(seed).standard_normal(n))


class TestEffectiveSampleSize:
    LENGTHS = [*range(1, 12), 17, 64, 101, 1000, 5000]

    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.5, 0.99])
    def test_equals_the_all_lag_oracle_on_ar1(self, rho):
        for n in self.LENGTHS:
            x = ar1(rho, n, seed=n)
            for scale in (1.0, 1e-300, 1e300):
                assert effective_sample_size(x * scale) == oracles.effective_sample_size(x * scale), (n, scale)

    def test_equals_the_all_lag_oracle_on_constant_and_trend(self):
        for n in self.LENGTHS:
            trend = np.arange(n, dtype=float)  # its sequence runs to lag 0.37 n, the longest here
            for x in (np.full(n, 2.5), trend, trend * 1e-300, trend * 1e300):
                assert effective_sample_size(x) == oracles.effective_sample_size(x), n
        assert effective_sample_size(np.full(100, 2.5)) == 100.0

    def test_ar1_near_its_asymptotic_value(self):
        # ESS of AR(1) tends to n (1 - rho) / (1 + rho). At n = 20000 and rho = 0.9
        # the ratio to it had SD about 0.1 across 200 seeds (range 0.64 to 1.19),
        # and 0.87 to 1.17 with mean 0.99 over these 20 seeds.
        n, rho = 20000, 0.9
        ratios = [effective_sample_size(ar1(rho, n, seed)) / (n * (1 - rho) / (1 + rho)) for seed in range(20)]
        assert all(abs(r - 1.0) < 0.25 for r in ratios), ratios
        assert abs(np.mean(ratios) - 1.0) < 0.05


class TestSummarize:
    def test_constant_trace_has_zero_sd(self):
        g = chain_graph(2)
        meta = {"k": 2, "edge_order": [[1, 2]], "graph": g.to_json_dict()}
        ones = np.ones((5, 2))
        t = Trace(ones, ones, ones, np.ones((5, 1)), np.zeros(5), meta)
        rows = summarize(t)
        assert all(r["sd"] == 0.0 for r in rows)
        assert {r["param"] for r in rows} == {
            "mu_1", "mu_2", "delta_1", "delta_2", "omega2_1", "omega2_2", "L_1_2"
        }

    def test_quantiles_equal_the_per_column_quantiles(self, rng):
        # one np.quantile call over every column gives each column's own quantiles, bit for bit
        g = band_graph(6, 2)
        edges = len(g.edges)
        meta = {"k": 6, "edge_order": [[a + 1, b + 1] for a, b in g.sorted_edges()], "graph": g.to_json_dict()}
        for draws in (1, 2, 7, 400):
            draw = lambda width: rng.standard_normal((draws, width)) * np.exp(rng.uniform(-30, 30, width))
            t = Trace(draw(6), np.round(draw(6)), draw(6), draw(edges), np.zeros(draws), meta)
            for row, (name, x) in zip(summarize(t), inference._param_columns(t)):
                assert [row["q2.5"], row["q50"], row["q97.5"]] == np.quantile(x, [0.025, 0.5, 0.975]).tolist(), name

    def test_empty_trace_raises(self):
        g = chain_graph(2)
        meta = {"k": 2, "edge_order": [[1, 2]], "graph": g.to_json_dict()}
        empty = np.empty((0, 2))
        t = Trace(empty, empty, empty, np.empty((0, 1)), np.empty(0), meta)
        with pytest.raises(EmptyTrace):
            summarize(t)


def banded_gaussian_data(rng, k=40, width=3, n=30):
    """n draws of a Gaussian on a banded chordal graph with a random factor; returns (data, graph)."""
    g = band_graph(k, width)
    L = np.eye(k)
    for i, j in g.edges:
        L[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.4)
    params = ReparamParams(rng.uniform(-5.0, 5.0, k), np.zeros(k), rng.uniform(0.5, 2.0, k), L, g)
    return sample_sgdg(reparam_inverse(params), rng, n), g


def simulation_case_c(rng, n=200):
    """n draws of the paper's simulation case C: the 3-vertex chain with delta = (3, -2, -4)."""
    g = chain_graph(3)
    L = np.eye(3)
    L[0, 1], L[1, 2] = -0.5, 0.5
    params = ReparamParams(np.full(3, 5.0), np.array([3.0, -2.0, -4.0]), np.ones(3), L, g)
    return sample_sgdg(reparam_inverse(params), rng, n), g


def sweep_z_scores(data, g, prior, draws, seed):
    """z-scores of the change that one library baseline sweep makes to exact draws.

    `draws` exact draws come from `run_chain` and each is swept once by
    `gibbs_sweep`. A sweep leaves the posterior invariant, so for every scalar
    parameter the paired differences f(after) - f(before) have mean zero, for
    f the parameter and its square about the exact draws' mean. Returns the
    z-score of each mean difference: the first moments, then the second.
    """
    trace = run_chain(data, g, prior, iters=draws, burn_in=0, thin=1, seed=seed, fix_delta_zero=True)
    stats, resolved = DataStats.of(data), resolve_hyperparams(prior, g.k)
    groups = l_row_groups(g, resolved)
    sweep_rng = np.random.default_rng(seed + 1)
    before = np.hstack([trace.mu, trace.omega2, trace.L])
    after = np.empty_like(before)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for s in range(draws):
            state = GibbsState(trace.mu[s].copy(), np.zeros(g.k), trace.omega2[s].copy(),
                               trace.l_matrix(trace.L[s]))
            gibbs_sweep(state, stats, groups, resolved, sweep_rng, fix_delta_zero=True)
            after[s] = np.concatenate([state.mu, state.omega2, trace.edge_values(state.L)])
    centre = before.mean(axis=0)
    diffs = np.hstack([after - before, (after - centre) ** 2 - (before - centre) ** 2])
    return diffs.mean(axis=0) / (diffs.std(axis=0, ddof=1) / np.sqrt(draws))


class TestFlatMuBaseline:
    """The Gaussian baseline's exact draws under the flat-mu priors."""

    def test_run_chain_draws_exactly_under_the_flat_mu_priors(self, rng, monkeypatch):
        sweeps, starts = [], []
        for name, calls in (("gibbs_sweep", sweeps), ("_initial_state", starts)):
            real = getattr(inference, name)
            monkeypatch.setattr(inference, name, lambda *args, _real=real, _calls=calls, **kwargs:
                                _calls.append(1) or _real(*args, **kwargs))
        data, g = simulation_case_c(rng, n=50)
        for prior in priors_for(g.k, rng):
            sweeps.clear()
            starts.clear()
            trace = run_chain(data, g, prior, iters=70, burn_in=10, thin=3, seed=4, fix_delta_zero=True)
            assert len(trace) == 20 and np.all(trace.delta == 0.0)
            if prior.regime not in FLAT_MU_REGIMES:
                assert len(sweeps) == 70 and len(starts) == 1  # the proper prior is not conjugate: the chain runs
                continue
            assert sweeps == [] and starts == []  # no chain, so no start state
            draw_rng = np.random.default_rng(4)
            resolved = resolve_hyperparams(prior, g.k)
            mu, omega2, L, loglik = flat_mu_baseline_draws(DataStats.of(data), l_row_groups(g, resolved), resolved,
                                                           20, draw_rng)
            for got, want in ((trace.mu, mu), (trace.omega2, omega2), (trace.L, L), (trace.loglik, loglik)):
                assert np.array_equal(got, want), prior.regime

    @pytest.mark.parametrize("name", TestGaussianDraw.GRAPHS)
    def test_loglik_is_the_closed_form_at_each_draw(self, rng, name):
        g = TestGaussianDraw.GRAPHS[name]
        data = rng.standard_normal((12, g.k)) * 1.3 + 0.4
        stats = DataStats.of(data)
        for prior in priors_for(g.k, rng)[1:]:  # the flat-mu priors
            trace = run_chain(data, g, prior, iters=40, burn_in=0, thin=1, seed=int(rng.integers(2**32)),
                              fix_delta_zero=True)
            assert np.all(trace.omega2 > 0) and np.all(np.isfinite(trace.L))
            for s in range(len(trace)):
                state = GibbsState(trace.mu[s], trace.delta[s], trace.omega2[s], trace.l_matrix(trace.L[s]))
                closed_form = _observed_loglik(state, stats, fix_delta_zero=True)
                assert trace.loglik[s] == pytest.approx(closed_form, rel=1e-12, abs=0), prior.regime

    INPUTS = {
        "k3-n200": (simulation_case_c, 20_000),
        "k40-n30": (banded_gaussian_data, 2000),
    }

    @pytest.mark.parametrize("regime", FLAT_MU_REGIMES)
    @pytest.mark.parametrize("name", INPUTS)
    def test_exact_draws_keep_their_distribution_through_a_sweep(self, rng, name, regime):
        # a mean z^2 more than 5 of its standard deviations sqrt(2 / P) above 1 fails, as does
        # any |z| above 5. Three mutants of the exact draw fail: a gamma shape off by one half
        # and a nu variance of 1/n in every case, A without Psi in the k = 40 "wishart" case
        # (Psi is zero under "noninfo"). The unmutated draws passed on other data seeds too.
        make, draws = self.INPUTS[name]
        data, g = make(rng)
        prior = next(p for p in priors_for(g.k, rng) if p.regime == regime)
        z = sweep_z_scores(data, g, prior, draws, seed=7)
        assert np.abs(z).max() < 5.0
        assert (z**2).mean() < 1.0 + 5.0 * np.sqrt(2.0 / z.size)

    def test_failing_back_substitution_is_named(self):
        # one row of zeros on a 30-vertex chain, with Psi = 1e-100 I and gamma shapes of 0.01:
        # the omega^2 draws go down to 1e-40 and far below, and mu_i = nu_i - L_i,i+1 mu_i+1
        # grows by a factor of about 1 / sqrt(omega_i^2) a row, until a product overflows
        k = 30
        prior = PatternWishartPrior(b1=1.0, Psi=1e-100 * np.eye(k), psi=np.array([1.02] * (k - 1) + [0.02]))
        with pytest.raises(NumericalFailure) as info:
            run_chain(np.zeros((1, k)), chain_graph(k), prior, iters=1, burn_in=0, thin=1, seed=2,
                      fix_delta_zero=True)
        assert re.match(r"exact draw, row [0-9]+: floating-point overflow encountered in multiply$",
                        str(info.value)), info.value
        # raised by the back substitution, not by a row's draw
        assert traceback.extract_tb(info.value.__cause__.__traceback__)[-1].name == "flat_mu_baseline_draws"

    def test_failing_row_is_named(self, rng):
        # column 2 on a scale of 1e-160: its residual sum of squares on column 3 is about
        # 1e-318, so omega_2^2 overflows; rows 1 to 3 form one group of degree 1
        data = rng.standard_normal((50, 4))
        data[:, 1] *= 1e-160
        g = chain_graph(4)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            with pytest.raises(NumericalFailure, match="^exact draw, row 2: floating-point overflow "):
                resolved = resolve_hyperparams(NoninformativePrior(b1=1.0), 4)
                flat_mu_baseline_draws(DataStats.of(data), l_row_groups(g, resolved), resolved, 10, rng)
