"""Acceptance suite: one test per criterion at its stated tolerance.

Each passing criterion records a verdict line echoed in the terminal summary;
a failing criterion shows up as an ordinary pytest failure.
"""

import time
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from sgdg.cli import main as cli_main
from sgdg.datasets import has_carcass, load_carcass, carcass_graph, load_mathmarks, mathmarks_graph
from sgdg.evidence import bayes_factor, estimate_log_marginal
from sgdg.graph import Graph
from sgdg.inference import (
    DataStats,
    GibbsState,
    IndependentProperPrior,
    NoninformativePrior,
    PatternWishartPrior,
    ProprietyViolation,
    check_propriety,
    gibbs_sweep,
    l_row_groups,
    resolve_hyperparams,
    run_chain,
    summarize,
)
from sgdg.linalg import modified_cholesky
from sgdg.model import (
    ReparamParams,
    SgdgParams,
    covariance_matrix,
    mean_vector,
    reparam_inverse,
    sample_sgdg,
    sgdg_log_density,
)

from conftest import (
    chain_graph,
    gauss_legendre_grid,
    ordering_refused,
    random_decomposable_graph,
    random_pattern_factor,
)
from oracles import assemble_precision, ci_factorization_check, verify_pattern
from test_inference import priors_for, slice_ratio_worst

RESULTS = []


def record(num, msg):
    RESULTS.append(f"criterion {num:>2}: PASS  {msg}")


def diffuse_case_study_prior(k):
    return IndependentProperPrior(
        b1=100.0, mu0=np.zeros(k), b2=1e4, b3=1e-6, b4=1e-6, b5=100.0
    )


# ---------------------------------------------------------------------------
# shared heavyweight chains


@pytest.fixture(scope="module")
def math_fits():
    data, _ = load_mathmarks()
    g = mathmarks_graph()
    prior = diffuse_case_study_prior(5)
    start = time.time()
    gg = run_chain(data, g, prior, iters=50_000, burn_in=10_000, thin=10, seed=101,
                   fix_delta_zero=True)
    sgdg = run_chain(data, g, prior, iters=50_000, burn_in=10_000, thin=10, seed=102)
    return gg, sgdg, time.time() - start


@pytest.fixture(scope="module")
def simulation_fits():
    g = chain_graph(3)
    rng = np.random.default_rng(55)

    def generate(delta, l12, l23):
        L = np.eye(3)
        L[0, 1], L[1, 2] = l12, l23
        r = ReparamParams(5 * np.ones(3), np.asarray(delta, float), np.ones(3), L, g)
        return sample_sgdg(reparam_inverse(r), rng, 200)

    prior = NoninformativePrior(b1=100.0)
    fits = {}
    data_ab = generate((2.0, 2.0, 2.0), -0.5, -0.5)
    fits["AB"] = run_chain(data_ab, g, prior, iters=50_000, burn_in=10_000, thin=10, seed=77)
    data_c = generate((3.0, -2.0, -4.0), -0.5, 0.5)
    fits["C"] = run_chain(data_c, g, prior, iters=50_000, burn_in=10_000, thin=10, seed=77)
    return fits


# ---------------------------------------------------------------------------


def test_criterion_01_gaussian_reduction():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        g = random_decomposable_graph(rng, k)
        L, D = random_pattern_factor(rng, g)
        mu = rng.standard_normal(k)
        p = SgdgParams(mu, np.zeros(k), L, D, g)
        x = mu + rng.standard_normal((5, k)) * 2.0
        ref = multivariate_normal(mean=mu, cov=np.linalg.inv(assemble_precision(L, D))).logpdf(x)
        worst = max(worst, np.abs(sgdg_log_density(p, x) - ref).max())
    assert worst < 1e-10
    record(1, f"zero-skew density equals the Gaussian one (max dev {worst:.2e})")


def test_criterion_02_density_normalization():
    start = time.time()
    g = Graph(2, [(0, 1)])
    L = np.eye(2)
    L[0, 1] = -0.5
    worst = 0.0
    for alpha in (2.0, 4.0):
        p = SgdgParams(np.zeros(2), np.full(2, alpha), L, np.ones(2), g)
        m, sd = mean_vector(p), np.sqrt(np.diag(covariance_matrix(p)))
        g1, w1 = gauss_legendre_grid(m[0] - 8 * sd[0], m[0] + 8 * sd[0], 200)
        g2, w2 = gauss_legendre_grid(m[1] - 8 * sd[1], m[1] + 8 * sd[1], 200)
        xx, yy = np.meshgrid(g1, g2, indexing="ij")
        dens = np.exp(sgdg_log_density(p, np.column_stack([xx.ravel(), yy.ravel()])))
        worst = max(worst, abs(w1 @ dens.reshape(200, 200) @ w2 - 1.0))
    elapsed = time.time() - start
    assert worst < 1e-6
    assert elapsed < 60.0
    record(2, f"2-d density integrates to 1 (max dev {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_pattern_preservation():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        g = random_decomposable_graph(rng, int(rng.integers(2, 9)))
        q = assemble_precision(*random_pattern_factor(rng, g))
        back_l, back_d = modified_cholesky(q)
        assert verify_pattern(back_l, g)
        rebuilt = assemble_precision(back_l, back_d)
        worst = max(worst, np.linalg.norm(q - rebuilt) / np.linalg.norm(q))
    assert worst < 1e-10
    record(3, f"100 random factors round-trip with pattern intact (max rel err {worst:.2e})")


def _chordless_cycle_masks(k):
    pair_index = {pair: t for t, pair in enumerate(combinations(range(k), 2))}
    masks = []
    for m in range(4, k + 1):
        for sub in combinations(range(k), m):
            first = sub[0]
            for rest in permutations(sub[1:]):
                if rest[0] > rest[-1]:
                    continue
                cyc = (first,) + rest
                ring = 0
                for t in range(m):
                    a, b = cyc[t], cyc[(t + 1) % m]
                    ring |= 1 << pair_index[(min(a, b), max(a, b))]
                full = 0
                for a, b in combinations(sorted(cyc), 2):
                    full |= 1 << pair_index[(a, b)]
                masks.append((ring, full & ~ring))
    return masks


def test_criterion_04_chordality_oracle_agreement():
    total = 0
    for k in range(2, 7):
        pairs = list(combinations(range(k), 2))
        masks = _chordless_cycle_masks(k)
        for emask in range(1 << len(pairs)):
            has_bad_cycle = any(
                (emask & ring) == ring and (emask & chords) == 0 for ring, chords in masks
            )
            g = Graph(k, [pairs[t] for t in range(len(pairs)) if emask >> t & 1])
            assert ordering_refused(g) == has_bad_cycle, f"k={k} edges={g.sorted_edges()}"
            total += 1
    record(4, f"exhaustive chordality agreement on all {total} graphs with k <= 6")


def test_criterion_05_conditional_independence_checks():
    start = time.time()
    L = np.eye(3)
    L[0, 1], L[1, 2] = -0.6, 0.45
    p = SgdgParams(
        np.zeros(3), np.array([1.7, -2.3, 1.1]), L, np.array([1.0, 1.4, 0.8]),
        chain_graph(3),
    )
    assert ci_factorization_check(p, 0, 2, tol=1e-6)
    assert not ci_factorization_check(p, 0, 1, tol=1e-6)
    elapsed = time.time() - start
    assert elapsed < 300.0
    record(5, f"chain-graph factorization verdicts correct ({elapsed:.1f}s)")


def test_criterion_06_moment_formulas():
    rng = np.random.default_rng(1006)
    L = np.eye(3)
    L[0, 1] = L[1, 2] = -0.5
    p = SgdgParams(np.zeros(3), np.full(3, 2.0), L, np.ones(3), chain_graph(3))
    n = 10**6
    x = sample_sgdg(p, rng, n)
    mean, cov = mean_vector(p), covariance_matrix(p)
    se_mean = np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(x.mean(0) - mean) < 3 * se_mean)
    chat = np.cov(x, rowvar=False)
    dd = np.diag(cov)
    se_cov = np.sqrt((np.outer(dd, dd) + cov**2) / n)
    assert np.all(np.abs(chat - cov) < 3 * se_cov)
    prec_entry = abs(np.linalg.inv(cov)[0, 2])
    assert prec_entry < 1e-10
    record(6, f"moment formulas match 1e6-draw MC; inverse-cov (1,3) = {prec_entry:.1e}")


def test_criterion_07a_slice_ratio_identities():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for rep in range(50):
        k = int(rng.integers(2, 5))
        g = chain_graph(k) if rep % 2 else Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
        for prior in priors_for(k, rng):
            worst = max(worst, slice_ratio_worst(rng, g, prior, int(rng.integers(3, 9))))
    # the Gaussian baseline's conditionals, which read the data through `DataStats`
    for rep in range(50):
        k = int(rng.integers(2, 5))
        g = chain_graph(k) if rep % 2 else Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])
        for prior in priors_for(k, rng):
            worst = max(worst, slice_ratio_worst(rng, g, prior, int(rng.integers(3, 9)), include_delta=False))
    assert worst < 1e-8
    record("7a", f"the u, (mu, delta), omega2 and L laws match the joint at 50 states, the baseline's at 50 more "
                 f"(max dev {worst:.2e})")


class TestCriterion07bGeweke:
    """Marginal-conditional vs successive-conditional joint simulators."""

    R = 30_000
    N_OBS = 5

    @staticmethod
    def _prior():
        return IndependentProperPrior(b1=0.5, mu0=np.zeros(3), b2=0.5, b3=3.0, b4=3.0, b5=0.5)

    @staticmethod
    def _draw_prior(rng, prior, g):
        k = g.k
        mu = prior.mu0 + np.sqrt(prior.b2) * rng.standard_normal(k)
        omega2 = rng.gamma(prior.b3, 1.0 / prior.b4, size=k)
        delta = rng.standard_normal(k) * np.sqrt(prior.b1 / omega2)
        L = np.eye(k)
        for a, b in g.edges:
            L[min(a, b), max(a, b)] = rng.standard_normal() * np.sqrt(prior.b5)
        return mu, delta, omega2, L

    @staticmethod
    def _draw_data_given_u(rng, mu, delta, omega2, L, u):
        # x_j | u_j ~ N(mu + L^-1 D_delta u_j, (L' D_omega L)^-1)
        z = rng.standard_normal(u.shape) / np.sqrt(omega2)
        return mu + np.linalg.solve(L, (delta * u + z).T).T

    @classmethod
    def _stats(cls, mu, delta, omega2, L, g):
        vals = np.asarray([*mu, *delta, *omega2] + [L[a, b] for a, b in g.sorted_edges()])
        return np.concatenate([vals, vals**2])

    def test_moments_agree(self):
        rng = np.random.default_rng(1070)
        g = chain_graph(3)
        prior = self._prior()
        n = self.N_OBS

        mc = np.empty((self.R, 22))
        for r in range(self.R):
            mu, delta, omega2, L = self._draw_prior(rng, prior, g)
            mc[r] = self._stats(mu, delta, omega2, L, g)

        sc = np.empty((self.R, 22))
        mu, delta, omega2, L = self._draw_prior(rng, prior, g)
        u = np.abs(rng.standard_normal((n, 3)))
        x = self._draw_data_given_u(rng, mu, delta, omega2, L, u)
        state = GibbsState(mu=mu, delta=delta, omega2=omega2, L=L)
        resolved = resolve_hyperparams(prior, g.k)
        groups = l_row_groups(g, resolved)
        for r in range(self.R):
            u = gibbs_sweep(state, x, DataStats.of(x), groups, resolved, rng)
            x = self._draw_data_given_u(rng, state.mu, state.delta, state.omega2, state.L, u)
            sc[r] = self._stats(state.mu, state.delta, state.omega2, state.L, g)

        se_mc = mc.std(axis=0, ddof=1) / np.sqrt(self.R)
        batches = sc.reshape(40, self.R // 40, 22).mean(axis=1)
        se_sc = batches.std(axis=0, ddof=1) / np.sqrt(40)
        z = np.abs(mc.mean(axis=0) - sc.mean(axis=0)) / np.sqrt(se_mc**2 + se_sc**2)
        assert z.max() < 4.0, f"max |z| = {z.max():.2f}, per-stat z = {np.round(z, 2)}"
        record("7b", f"joint-simulator moments agree at 4 SE (max |z| = {z.max():.2f})")


def test_criterion_08_simulation_recovery(simulation_fits):
    truth_ab = {"mu_1": 5, "mu_2": 5, "mu_3": 5, "delta_1": 2, "delta_2": 2, "delta_3": 2,
                "omega2_1": 1, "omega2_2": 1, "omega2_3": 1, "L_1_2": -0.5, "L_2_3": -0.5}
    rows = {r["param"]: r for r in summarize(simulation_fits["AB"])}
    worst = 0.0
    for param, truth in truth_ab.items():
        z = abs(rows[param]["mean"] - truth) / rows[param]["sd"]
        worst = max(worst, z)
        assert z < 3.0, f"{param}: posterior mean off truth by {z:.2f} posterior SDs"
    rows_c = {r["param"]: r for r in summarize(simulation_fits["C"])}
    signs = [rows_c[f"delta_{i}"]["mean"] for i in (1, 2, 3)]
    assert signs[0] > 0 and signs[1] < 0 and signs[2] < 0
    record(8, f"truth recovered within 3 posterior SDs (max |z| = {worst:.2f}); "
              f"sign pattern delta = ({signs[0]:+.1f}, {signs[1]:+.1f}, {signs[2]:+.1f})")


PUBLISHED_GG_L = {
    "L_1_2": (-0.46, 0.15),
    "L_1_3": (-0.55, 0.18),
    "L_2_3": (-0.75, 0.11),
    "L_3_4": (-0.35, 0.06),
    "L_3_5": (-0.23, 0.05),
    "L_4_5": (-0.52, 0.07),
}


def test_criterion_09_marks_case_study(math_fits):
    gg, sgdg, elapsed = math_fits
    rows_gg = {r["param"]: r for r in summarize(gg)}
    for param, (mean, sd) in PUBLISHED_GG_L.items():
        ours = rows_gg[param]["mean"]
        assert abs(ours - mean) <= 2 * sd, f"{param}: {ours:.3f} vs {mean} +- {2 * sd}"
    rows_sg = {r["param"]: r for r in summarize(sgdg)}
    d4 = rows_sg["delta_4"]
    d5 = rows_sg["delta_5"]
    assert d4["mean"] < 0 and abs(d4["mean"]) > 2 * d4["sd"], "delta_4 must be strongly negative"
    assert d5["mean"] > 0, "delta_5 must be positive"
    assert elapsed < 900.0
    record(9, f"Gaussian-fit factor matches published values; delta_4 = {d4['mean']:.1f} "
              f"({d4['sd']:.1f}), delta_5 = {d5['mean']:.1f} ({elapsed:.0f}s)")


def test_criterion_10_bayes_factors(math_fits):
    gg, sgdg, _ = math_fits
    log_bf = bayes_factor(sgdg, gg)
    assert log_bf > 5.0, "skew model must be decisively favored on the marks data"

    # estimator validation on a conjugate closed-form oracle
    rng = np.random.default_rng(20260809)
    n, s2, tau2 = 5, 25.0, 1.0
    x = 0.5 + np.sqrt(s2) * rng.standard_normal(n)
    exact = multivariate_normal(mean=np.zeros(n), cov=s2 * np.eye(n) + tau2 * np.ones((n, n))).logpdf(x)
    prec_n = n / s2 + 1.0 / tau2
    draws = (x.sum() / s2) / prec_n + np.sqrt(1.0 / prec_n) * rng.standard_normal(10**5)
    loglik = norm.logpdf(x[:, None], loc=draws[None, :], scale=np.sqrt(s2)).sum(axis=0)
    est = estimate_log_marginal(loglik, mix_weight=0.01)
    err = abs(est.log_marginal - exact)
    assert err < 0.05
    record(10, f"marks log BF = {log_bf:.1f} (> 5); conjugate-oracle error {err:.3f} (< 0.05)")


def test_criterion_10_carcass_bayes_factor():
    if not has_carcass():
        RESULTS.append(
            "criterion 10c: SKIPPED  carcass dataset not redistributable from this build "
            "environment; drop carcass.csv + carcass_graph.json into sgdg/datasets to enable"
        )
        pytest.skip("carcass.csv/carcass_graph.json not present; see sgdg.datasets docstring")
    data, _ = load_carcass()
    g = carcass_graph()
    prior = diffuse_case_study_prior(g.k)
    gg = run_chain(data, g, prior, iters=50_000, burn_in=10_000, thin=10, seed=201,
                   fix_delta_zero=True)
    sgdg = run_chain(data, g, prior, iters=50_000, burn_in=10_000, thin=10, seed=202)
    log_bf = bayes_factor(sgdg, gg)
    assert log_bf > 5.0
    rows = {r["param"]: r for r in summarize(sgdg)}
    assert rows["delta_7"]["mean"] > 0
    record("10c", f"carcass log BF = {log_bf:.1f} (> 5); delta_7 positive")


def test_criterion_11_propriety_gates():
    g = chain_graph(3)
    data = np.random.default_rng(1011).standard_normal((2, 3)) + 5
    with pytest.raises(ProprietyViolation):
        run_chain(data, g, NoninformativePrior(b1=100.0), iters=100, seed=1)
    fwd = np.array([g.forward_degree(i) for i in range(3)], dtype=float)
    boundary = PatternWishartPrior(b1=1.0, Psi=np.eye(3), psi=np.maximum(fwd, 0.5))
    with pytest.raises(ProprietyViolation):
        check_propriety(boundary, np.random.default_rng(2).standard_normal((100, 3)), g)
    with pytest.raises(ProprietyViolation):
        run_chain(np.random.default_rng(2).standard_normal((50, 3)), g, boundary, iters=100, seed=1)
    n3 = np.random.default_rng(1011).standard_normal((3, 3))
    check_propriety(NoninformativePrior(b1=1.0), n3, g)  # n = max degree + 2 passes
    record(11, "improper-prior fits refused exactly at the stated bounds")


def test_criterion_12_determinism(tmp_path):
    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    sims = []
    for tag in ("s1", "s2"):
        out = tmp_path / tag
        run("simulate", "--case", "C", "--n", 500, "--seed", "99", "--out", out)
        sims.append(out)
    for name in ("data.csv", "truth.json", "graph.json"):
        assert (sims[0] / name).read_bytes() == (sims[1] / name).read_bytes()

    fits = []
    for tag in ("f1", "f2"):
        out = tmp_path / tag
        run("fit", "--data", sims[0] / "data.csv", "--graph", sims[0] / "graph.json",
            "--prior", "proper", "--iters", 600, "--burnin", 200, "--seed", 7, "--out", out)
        fits.append(out)
    names = ["trace.ndjson", "summary.csv", "fit.json"] + [
        f"{kind}_x{i}.csv" for kind in ("hist", "fitted") for i in (1, 2, 3)
    ]
    for name in names:
        assert (fits[0] / name).read_bytes() == (fits[1] / name).read_bytes(), name

    for tag in ("c1", "c2"):
        run("compare", "--trace-a", fits[0] / "trace.ndjson", "--trace-b", fits[1] / "trace.ndjson",
            "--out", tmp_path / tag)
    assert (tmp_path / "c1" / "compare.json").read_bytes() == (tmp_path / "c2" / "compare.json").read_bytes()
    record(12, "simulate, fit, and compare outputs are byte-identical under fixed seeds")
