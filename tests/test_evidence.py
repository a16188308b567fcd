import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal, norm

from sgdg import cli
from sgdg.evidence import TOL, EvidenceEstimate, bayes_factor, estimate_log_marginal
from sgdg.graph import Graph
from sgdg.inference import IndependentProperPrior, NoninformativePrior, PatternWishartPrior, run_chain
from sgdg.model import ReparamParams, log_density, reparam_inverse, sample_sgdg

from conftest import chain_graph, gauss_legendre_grid
from oracles import flat_mu_log_evidence, flat_mu_log_posterior


class TestEstimateLogMarginal:
    def test_constant_loglik_returns_constant(self):
        for c in (-3123.5, 0.0, 875.25):
            for d in (0.001, 0.01, 0.3, 0.9):
                est = estimate_log_marginal(np.full(500, c), mix_weight=d)
                assert est.log_marginal == pytest.approx(c, abs=1e-9)
                assert est.converged

    def test_conjugate_normal_normal_oracle(self, rng):
        # x_j ~ N(theta, s2), theta ~ N(0, tau2): closed-form evidence.
        # The mixture fixed point needs real prior/likelihood overlap to be
        # sharp, hence the weak-likelihood configuration.
        n, s2, tau2 = 5, 25.0, 1.0
        x = 0.5 + np.sqrt(s2) * rng.standard_normal(n)
        exact = multivariate_normal(
            mean=np.zeros(n), cov=s2 * np.eye(n) + tau2 * np.ones((n, n))
        ).logpdf(x)
        prec_n = n / s2 + 1.0 / tau2
        m_n = (x.sum() / s2) / prec_n
        draws = m_n + np.sqrt(1.0 / prec_n) * rng.standard_normal(10**5)
        loglik = norm.logpdf(x[:, None], loc=draws[None, :], scale=np.sqrt(s2)).sum(axis=0)
        est = estimate_log_marginal(loglik, mix_weight=0.01)
        assert est.log_marginal == pytest.approx(exact, abs=0.05)
        assert est.n_draws_used == 10**5

    def test_small_mix_weight_recovers_harmonic_mean(self, rng):
        loglik = rng.standard_normal(40) * 0.8 - 100.0
        hm = np.log(loglik.size) - logsumexp(-loglik)
        est = estimate_log_marginal(loglik, mix_weight=1e-9)
        assert est.log_marginal == pytest.approx(hm, abs=1e-6)

    def test_shift_invariance(self, rng):
        loglik = rng.standard_normal(200) * 2 - 50.0
        base = estimate_log_marginal(loglik).log_marginal
        shifted = estimate_log_marginal(loglik + 1234.0).log_marginal
        assert shifted == pytest.approx(base + 1234.0, abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_log_marginal(np.array([]))
        with pytest.raises(ValueError):
            estimate_log_marginal(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            estimate_log_marginal(np.ones(5), mix_weight=1.5)

    def test_estimate_is_reportable(self):
        est = estimate_log_marginal(np.full(10, -5.0))
        assert isinstance(est, EvidenceEstimate)
        d = asdict(est)
        assert d["converged"] is True and d["mix_weight"] == 0.01


ROOT = Path(__file__).resolve().parent.parent
MIX_WEIGHTS = (1e-300, 0.01, 1 - 1e-16)


@pytest.fixture(scope="module")
def workload_logliks(tmp_path_factory):
    """Log likelihoods of the skew and baseline traces of the benchmark's three workloads.

    The inputs are the benchmark's at seed 1, and the fits run as its `sgdg fit`
    commands do, at fit seeds 100 (skew) and 101 (baseline). The benchmark pins
    BLAS to one thread; on more, the banded skew draws differ in the last digits.
    """
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, generate

    cases = {}
    for name, w in WORKLOADS.items():
        inputs = tmp_path_factory.mktemp(name)
        generate(name, 1, inputs)
        data, _ = cli.read_dataset(inputs / "data.csv")
        g = cli.load_graph(inputs / "graph.json")
        prior = cli.build_prior(w.prior, cli.parse_hyper([]), g)
        for seed, baseline in ((100, False), (101, True)):
            trace = run_chain(data, g, prior, iters=w.iters, burn_in=w.burnin, thin=w.thin, seed=seed,
                              fix_delta_zero=baseline)
            cases[f"{name}-{'gauss' if baseline else 'skew'}"] = trace.loglik
    return cases


def mp_root(loglik, d):
    """The root q of sum_s phi(lambda_s - q) in 50-digit arithmetic.

    Newton steps from the float estimate, then a certificate: g changes sign
    within 1e-30 * max(1, |q|) of the returned root, so it is the root, since g
    strictly decreases.
    """
    with mpmath.workdps(50):
        lam, d = [mpmath.mpf(float(v)) for v in loglik], mpmath.mpf(d)

        def g(q):
            terms = [mpmath.exp(v - q) for v in lam]
            return (mpmath.fsum((e - 1) / (d + (1 - d) * e) for e in terms),
                    mpmath.fsum(e / (d + (1 - d) * e) ** 2 for e in terms))

        q = mpmath.mpf(estimate_log_marginal(loglik, mix_weight=float(d)).log_marginal)
        for _ in range(30):
            value, slope = g(q)
            step = value / slope
            q += step
            if abs(step) < mpmath.mpf(10) ** -45 * max(1, abs(q)):
                break
        eps = mpmath.mpf(10) ** -30 * max(1, abs(q))
        assert g(q - eps)[0] > 0 > g(q + eps)[0]
        return float(q)


class TestRootAgainstMpmath:
    """The estimate is the root of its equation to TOL, within 64 steps and with no warning."""

    @staticmethod
    def check(loglik, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_log_marginal(loglik, mix_weight=d)
        exact = mp_root(loglik, d)
        assert est.log_marginal == pytest.approx(exact, rel=0, abs=TOL * max(1.0, abs(exact)))
        assert est.converged and est.iterations <= 64
        return est

    @pytest.mark.parametrize("d", MIX_WEIGHTS)
    def test_workload_traces(self, workload_logliks, d):
        assert len(workload_logliks) == 6
        for loglik in workload_logliks.values():
            self.check(loglik, d)

    @pytest.mark.parametrize("d", MIX_WEIGHTS)
    def test_wide_spread(self, d):
        self.check(np.linspace(-1e6, 1e6, 50), d)

    @pytest.mark.parametrize("d", MIX_WEIGHTS)
    def test_single_draw(self, d):
        assert self.check(np.array([-42.5]), d).log_marginal == -42.5

    def test_no_overflow_at_the_float_range(self):
        loglik = np.array([-1.7e308, 0.0, 1.7e308])
        for d in MIX_WEIGHTS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                est = estimate_log_marginal(loglik, mix_weight=d)
            assert -1.7e308 <= est.log_marginal <= 1.7e308


class _FakeTrace:
    def __init__(self, loglik):
        self.loglik = np.asarray(loglik, dtype=float)


class TestBayesFactor:
    def test_identical_traces_give_zero(self, rng):
        t = _FakeTrace(rng.standard_normal(300) - 40)
        assert bayes_factor(t, t) == 0.0

    def test_gaussian_data_does_not_favor_skew_model(self, rng):
        g = chain_graph(3)
        L = np.eye(3)
        L[0, 1] = -0.5
        L[1, 2] = -0.5
        r = ReparamParams(np.zeros(3), np.zeros(3), np.ones(3), L, g)
        data = sample_sgdg(reparam_inverse(r), rng, 150)
        prior = IndependentProperPrior(
            b1=100.0, mu0=np.zeros(3), b2=1e4, b3=1e-6, b4=1e-6, b5=100.0
        )
        t_skew = run_chain(data, g, prior, iters=6000, burn_in=1500, thin=3, seed=5)
        t_gauss = run_chain(data, g, prior, iters=6000, burn_in=1500, thin=3, seed=6, fix_delta_zero=True)
        log_bf = bayes_factor(t_skew, t_gauss)
        assert log_bf < 2.0


def flat_mu_priors(k, rng):
    """The two priors with a flat prior on mu, the Gaussian baseline's conjugate regimes."""
    psi = np.arange(k, dtype=float)[::-1] + 1.0 + rng.uniform(0.5, 2.0, size=k)  # psi_i > forward degree
    return [NoninformativePrior(b1=1.0), PatternWishartPrior(b1=1.0, Psi=np.eye(k) + 0.2, psi=psi)]


class TestFlatMuLogEvidence:
    """The Gaussian baseline's closed-form log evidence (`oracles.flat_mu_log_evidence`)."""

    def test_equals_quadrature_at_k1(self, rng):
        # k = 1: the integral over mu and t = log omega^2 (domega^2 = omega^2 dt) on a
        # Gauss-Legendre grid wide enough for the Student-t tails of mu
        g = Graph(1)
        x = rng.standard_normal(40) * 1.7 + 3.0
        n, xbar, scatter = x.size, x.mean(), ((x - x.mean()) ** 2).sum()
        sd_mu = np.sqrt(scatter / (n * (n - 1)))
        for prior in (NoninformativePrior(b1=1.0), PatternWishartPrior(b1=1.0, Psi=[[1.5]], psi=[2.5])):
            mus, w_mu = gauss_legendre_grid(xbar - 25 * sd_mu, xbar + 25 * sd_mu, 400)
            t_mode = np.log((n - 1) / scatter)
            ts, w_t = gauss_legendre_grid(t_mode - 6.0, t_mode + 3.0, 400)
            m, t = np.meshgrid(mus, ts, indexing="ij")
            omega2 = np.exp(t)
            log_f = 0.5 * n * (t - np.log(2.0 * np.pi)) - 0.5 * omega2 * (scatter + n * (xbar - m) ** 2)
            if prior.regime == "noninfo":
                log_prior = -t
            else:
                log_prior = (prior.psi[0] / 2.0 - 1.0) * t - 0.5 * omega2 * prior.Psi[0, 0]
            log_w = np.log(w_mu)[:, np.newaxis] + np.log(w_t)[np.newaxis, :]
            quadrature = logsumexp(log_f + log_prior + t + log_w)
            assert flat_mu_log_evidence(x[:, np.newaxis], g, prior) == pytest.approx(quadrature, rel=0, abs=1e-10)

    @pytest.mark.parametrize("k,width,n", [(5, 2, 30), (40, 3, 200)])
    def test_basic_marginal_likelihood_identity(self, rng, k, width, n):
        # log m = log f(x | theta) + log pi(theta) - log pi(theta | x) at any theta
        g = Graph(k, [(i, j) for i in range(k) for j in range(i + 1, min(k, i + width + 1))])
        data = rng.standard_normal((n, k)) * 1.3 + 0.4
        for prior in flat_mu_priors(k, rng):
            for _ in range(3):
                mu = data.mean(axis=0) + 0.2 * rng.standard_normal(k)
                omega2 = rng.uniform(0.3, 1.0, k)
                L = np.eye(k)
                for i, j in g.edges:
                    L[i, j] = 0.3 * rng.standard_normal()
                log_f = log_density(mu, np.zeros(k), L, omega2, data).sum()
                if prior.regime == "noninfo":
                    log_prior = -np.log(omega2).sum()
                else:
                    log_prior = (((prior.psi / 2.0 - 1.0) * np.log(omega2)).sum()
                                 - 0.5 * omega2 @ np.einsum("ij,jk,ik->i", L, prior.Psi, L))
                log_post = flat_mu_log_posterior(mu, omega2, L, data, g, prior)
                scale = abs(log_f) + abs(log_prior) + abs(log_post)
                assert flat_mu_log_evidence(data, g, prior) == pytest.approx(
                    log_f + log_prior - log_post, rel=0, abs=1e-12 * scale), prior.regime
