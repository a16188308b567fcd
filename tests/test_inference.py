from dataclasses import replace

import numpy as np
import pytest

from sgdg.graph import Graph, NotDecomposable
from sgdg.inference import (
    DimensionMismatch,
    EmptyTrace,
    GibbsState,
    IndependentProperPrior,
    NoninformativePrior,
    PatternWishartPrior,
    ProprietyViolation,
    Trace,
    _observed_loglik,
    check_propriety,
    delta_conditional_params,
    l_row_conditional_params,
    mu_conditional_params,
    omega2_conditional_params,
    prior_from_dict,
    prior_to_dict,
    resolve_hyperparams,
    run_chain,
    summarize,
    u_conditional_params,
)
from sgdg.model import ReparamParams, reparam_inverse, sample_sgdg, sgdg_log_density

from conftest import chain_graph


# ---------------------------------------------------------------------------
# independent unnormalized joint, written straight from the hierarchical model


def log_joint(state, data, graph, prior, include_delta=True):
    n, k = data.shape
    if np.any(state.u < 0):
        return -np.inf
    y = (data - state.mu) @ state.L.T
    resid = y - state.u * state.delta
    out = 0.5 * n * np.log(state.omega2).sum()
    out -= 0.5 * (state.omega2 * (resid**2).sum(axis=0)).sum()
    out -= 0.5 * (state.u**2).sum()
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
    k = graph.k
    L = np.eye(k)
    for a, b in graph.edges:
        L[min(a, b), max(a, b)] = rng.standard_normal()
    return GibbsState(
        mu=rng.standard_normal(k),
        delta=np.zeros(k) if zero_delta else rng.standard_normal(k),
        omega2=rng.uniform(0.3, 2.5, k),
        L=L,
        u=np.abs(rng.standard_normal((n, k))),
    )


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

    def test_wishart_requires_spd_psi(self):
        with pytest.raises(ValueError):
            PatternWishartPrior(b1=1.0, Psi=np.array([[1.0, 2.0], [2.0, 1.0]]), psi=np.ones(2))

    def test_dict_round_trip(self, rng):
        for prior in priors_for(3, rng):
            back = prior_from_dict(prior_to_dict(prior))
            assert back.regime == prior.regime
            assert back.b1 == prior.b1


class TestProprietyGates:
    def test_chain_minimum_sample_size(self):
        g = chain_graph(3)
        assert check_propriety(NoninformativePrior(b1=100.0), 3, g).ok
        report = check_propriety(NoninformativePrior(b1=100.0), 2, g)
        assert not report.ok and "n >= " in report.messages[0]

    def test_wishart_boundary_is_strict(self):
        g = chain_graph(3)
        fwd = np.array([g.forward_degree(i) for i in range(3)], dtype=float)
        at_boundary = PatternWishartPrior(b1=1.0, Psi=np.eye(3), psi=np.maximum(fwd, 0.5))
        assert not check_propriety(at_boundary, 100, g).ok
        above = PatternWishartPrior(b1=1.0, Psi=np.eye(3), psi=fwd + 0.01)
        assert check_propriety(above, 100, g).ok

    def test_proper_always_ok(self):
        prior = IndependentProperPrior(b1=1.0, mu0=np.zeros(3), b2=1.0, b3=1.0, b4=1.0, b5=1.0)
        assert check_propriety(prior, 1, chain_graph(3)).ok


class TestResolveHyperparams:
    def test_noninformative_is_all_zero(self):
        r = resolve_hyperparams(NoninformativePrior(b1=1.0), chain_graph(3))
        assert r.v_mu == 0.0
        assert np.all(r.s_omega == 0) and np.all(r.r_omega == 0)
        assert all(np.all(v == 0) for v in r.V_L)

    def test_proper_values(self):
        prior = IndependentProperPrior(b1=1.0, mu0=np.zeros(3), b2=1e4, b3=2.0, b4=3.0, b5=100.0)
        r = resolve_hyperparams(prior, chain_graph(3))
        assert r.v_mu == pytest.approx(1e-4)
        assert np.all(r.s_omega == 2.0) and np.all(r.r_omega == 3.0)
        assert np.allclose(r.V_L[0], np.eye(3) / 100.0)

    def test_wishart_identity_case(self):
        g = chain_graph(3)
        prior = PatternWishartPrior(b1=1.0, Psi=np.eye(3), psi=np.array([2.0, 2.0, 1.0]))
        r = resolve_hyperparams(prior, g, omega2=np.array([2.0, 3.0, 4.0]), L=np.eye(3))
        assert np.allclose(r.r_omega, 0.5)  # L_i Psi L_i' = 1 for L = I
        assert np.allclose(r.s_omega, prior.psi / 2)
        assert np.allclose(r.V_L[1], 3.0 * np.eye(3))

    def test_wishart_requires_state(self):
        with pytest.raises(ValueError):
            resolve_hyperparams(
                PatternWishartPrior(b1=1.0, Psi=np.eye(3), psi=np.full(3, 3.0)), chain_graph(3)
            )


class TestConditionalCollapse:
    def test_u_update_collapses_to_half_normal_when_delta_zero(self, rng):
        g = chain_graph(3)
        state = random_state(rng, g, 20, zero_delta=True)
        data = rng.standard_normal((20, 3))
        mean, var = u_conditional_params(state, (data - state.mu) @ state.L.T)
        assert np.all(mean == 0.0)
        assert np.all(var == 1.0)


def slice_ratio_worst(rng, graph, prior, n, include_delta=True):
    """Largest mismatch between conditional log ratios and joint log ratios."""
    data = rng.standard_normal((n, graph.k)) * 1.3 + 0.4
    state = random_state(rng, graph, n, zero_delta=not include_delta)
    resolved = resolve_hyperparams(prior, graph, omega2=state.omega2, L=state.L)
    y0 = data - state.mu
    y = y0 @ state.L.T

    def joint_with(**kw):
        return log_joint(replace(state, **kw), data, graph, prior, include_delta=include_delta)

    worst = 0.0

    # u entry
    mean_u, var_u = u_conditional_params(state, y)
    j, i = int(rng.integers(n)), int(rng.integers(graph.k))
    a, b = rng.uniform(0.05, 2.0, size=2)
    lhs = -0.5 * ((a - mean_u[j, i]) ** 2 - (b - mean_u[j, i]) ** 2) / var_u[i]
    ua, ub = state.u.copy(), state.u.copy()
    ua[j, i], ub[j, i] = a, b
    rhs = joint_with(u=ua) - joint_with(u=ub)
    worst = max(worst, abs(lhs - rhs))

    # delta coordinate
    if include_delta:
        mean_d, var_d = delta_conditional_params(state, y, prior.b1)
        i = int(rng.integers(graph.k))
        a, b = rng.standard_normal(2)
        lhs = -0.5 * ((a - mean_d[i]) ** 2 - (b - mean_d[i]) ** 2) / var_d[i]
        da, db = state.delta.copy(), state.delta.copy()
        da[i], db[i] = a, b
        rhs = joint_with(delta=da) - joint_with(delta=db)
        worst = max(worst, abs(lhs - rhs))

    # mu block
    mean_m, prec_m = mu_conditional_params(state, data, resolved)
    a = mean_m + rng.standard_normal(graph.k)
    b = mean_m + rng.standard_normal(graph.k)
    lhs = -0.5 * ((a - mean_m) @ prec_m @ (a - mean_m) - (b - mean_m) @ prec_m @ (b - mean_m))
    rhs = joint_with(mu=a) - joint_with(mu=b)
    worst = max(worst, abs(lhs - rhs))

    # omega2 coordinate
    shape, rate = omega2_conditional_params(state, y, resolved, prior.b1, include_skew_terms=include_delta)
    i = int(rng.integers(graph.k))
    a, b = rng.uniform(0.2, 3.0, size=2)
    lhs = (shape[i] - 1.0) * (np.log(a) - np.log(b)) - rate[i] * (a - b)
    oa, ob = state.omega2.copy(), state.omega2.copy()
    oa[i], ob[i] = a, b
    rhs = joint_with(omega2=oa) - joint_with(omega2=ob)
    worst = max(worst, abs(lhs - rhs))

    # one row of L
    rows = [i for i in range(graph.k) if graph.forward_neighbors(i)]
    if rows:
        i = rows[int(rng.integers(len(rows)))]
        fwd = graph.forward_neighbors(i)
        mean_l, prec_l = l_row_conditional_params(state, y0, y0.T @ y0, resolved, i, fwd)
        a = mean_l + rng.standard_normal(len(fwd))
        b = mean_l + rng.standard_normal(len(fwd))
        lhs = -0.5 * ((a - mean_l) @ prec_l @ (a - mean_l) - (b - mean_l) @ prec_l @ (b - mean_l))
        la, lb = state.L.copy(), state.L.copy()
        la[i, fwd], lb[i, fwd] = a, b
        rhs = joint_with(L=la) - joint_with(L=lb)
        worst = max(worst, abs(lhs - rhs))

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

    def test_scalar_model_textbook_augmentation(self, rng):
        # k = 1: all five conditionals reduce to the scalar skew-normal scheme
        g = Graph(1)
        prior = IndependentProperPrior(b1=1.0, mu0=np.zeros(1), b2=1.0, b3=2.0, b4=2.0, b5=1.0)
        worst = max(slice_ratio_worst(rng, g, prior, 12) for _ in range(20))
        assert worst < self.TOL


class TestObservedLoglik:
    def test_array_loglik_matches_validated_density(self, rng):
        for k in range(1, 6):
            complete = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
            for g in (chain_graph(k), complete):
                n = int(rng.integers(3, 9))
                state = random_state(rng, g, n)
                data = rng.standard_normal((n, k)) * 1.3 + 0.4
                r = ReparamParams(state.mu, state.delta, state.omega2, state.L, g)
                ref = sgdg_log_density(reparam_inverse(r), data).sum()
                assert _observed_loglik(state, data) == pytest.approx(ref, rel=1e-12)


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
        assert t.meta["sweep_order"] == ["u", "delta", "mu", "omega2", "L"]
        assert t.meta["edge_order"] == [[1, 2], [2, 3]]

    def test_fix_delta_zero_keeps_delta_at_zero(self, rng):
        data, g = self._simulated(rng)
        t = run_chain(data, g, self._prior(), iters=200, burn_in=50, thin=3, seed=3, fix_delta_zero=True)
        assert np.all(t.delta == 0.0)

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

    def test_seed_required(self, rng):
        data, g = self._simulated(rng)
        with pytest.raises(ValueError):
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

    def test_quick_posterior_recovery(self, rng):
        # coarse sanity run; the acceptance suite runs the real recovery study
        data, g = self._simulated(rng, n=500)
        t = run_chain(data, g, self._prior(), iters=6000, burn_in=2000, thin=4, seed=11)
        for est, truth in ((t.mu, 5.0), (t.delta, 2.0), (t.omega2, 1.0)):
            post_mean = est.mean(axis=0)
            post_sd = est.std(axis=0)
            assert np.all(np.abs(post_mean - truth) < 4 * post_sd)


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

    def test_empty_trace_raises(self):
        g = chain_graph(2)
        meta = {"k": 2, "edge_order": [[1, 2]], "graph": g.to_json_dict()}
        empty = np.empty((0, 2))
        t = Trace(empty, empty, empty, np.empty((0, 1)), np.empty(0), meta)
        with pytest.raises(EmptyTrace):
            summarize(t)
