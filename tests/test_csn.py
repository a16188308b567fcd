import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp
from scipy.stats import chi2, kstest, multivariate_normal, norm

from sgdg import csn
from sgdg.csn import PARALLEL_MIN, TAIL_SWITCH, sample_truncated_normal

from conftest import gauss_legendre_grid
from oracles import (
    CsnParams,
    SingularBlock,
    UnsupportedCovarianceStructure,
    csn_conditional,
    csn_log_density,
    sample_csn,
)

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def csn_log_kernel(p, y):
    """Unnormalized log density; needs only delta diagonal (test helper)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d_delta = np.diag(p.delta)
    resid = y - p.mu
    lpdf = multivariate_normal(mean=np.zeros(p.n), cov=p.sigma).logpdf(resid)
    z = resid @ p.gamma.T
    return np.atleast_1d(lpdf) + log_ndtr((z - p.nu) / np.sqrt(d_delta)).sum(axis=1)


def quadrature_marginal_grid(p, axis_keep, grid_keep, grid_other, w_other):
    """Marginal density of one coordinate of a 2-D CSN by quadrature."""
    vals = np.empty(grid_keep.shape)
    for a, x in enumerate(grid_keep):
        pts = np.empty((grid_other.size, 2))
        pts[:, axis_keep] = x
        pts[:, 1 - axis_keep] = grid_other
        vals[a] = np.exp(csn_log_kernel(p, pts)) @ w_other
    return vals


class TestTruncatedNormal:
    def test_half_normal_mean(self, rng):
        n = 10**6
        x = sample_truncated_normal(np.zeros(n), 1.0, 0.0, rng)
        se = np.sqrt((1.0 - 2.0 / np.pi) / n)
        assert abs(x.mean() - SQRT_2_OVER_PI) < 3 * se
        assert x.min() >= 0.0

    def test_far_left_bound_is_untruncated(self, rng):
        n = 10**6
        x = sample_truncated_normal(np.full(n, 2.0), 4.0, 2.0 - 10 * 2.0, rng)
        grid = np.sort(x)
        ecdf = np.arange(1, n + 1) / n
        ks = np.abs(ecdf - norm.cdf(grid, loc=2.0, scale=2.0)).max()
        assert ks < 0.005

    def test_far_tail_matches_mills_ratio(self, rng):
        mu, var, lower = -8.0, 1.0, 0.0
        a = (lower - mu) / np.sqrt(var)
        lam = np.exp(norm.logpdf(a) - norm.logsf(a))
        target = mu + np.sqrt(var) * lam
        sd = np.sqrt(var * (1.0 + a * lam - lam**2))
        n = 10**5
        x = sample_truncated_normal(np.full(n, mu), var, lower, rng)
        assert x.min() >= lower
        assert abs(x.mean() - target) < 3 * sd / np.sqrt(n)

    @pytest.mark.parametrize("a", [40.0, 1e3])
    def test_far_tail_matches_exact_cdf(self, rng, a):
        # past a = 36 the product form's u * Phi(-a) underflows and its draws are inf
        n = 20_000
        x = sample_truncated_normal(np.full(n, -a), 1.0, 0.0, rng) + a  # standardized draws
        assert np.all(np.isfinite(x)) and x.min() >= a
        assert kstest(x, lambda t: -np.expm1(log_ndtr(-t) - log_ndtr(-a))).pvalue > 1e-3

    def test_vectorized_mixed_regimes(self, rng):
        mu = np.array([-9.0, 0.0, 3.0, -5.5])
        x = sample_truncated_normal(np.broadcast_to(mu, (1000, 4)), 1.0, 0.0, rng)
        assert x.shape == (1000, 4)
        assert x.min() >= 0.0

    def test_scalar_return(self, rng):
        x = sample_truncated_normal(1.0, 2.0, 0.5, rng)
        assert isinstance(x, float) and x >= 0.5

    def test_positive_variance_required(self, rng):
        with pytest.raises(ValueError):
            sample_truncated_normal(0.0, 0.0, 0.0, rng)

    def test_nan_variance_refused(self, rng):
        with pytest.raises(ValueError, match="var must be positive"):
            sample_truncated_normal(np.zeros(3), np.array([1.0, np.nan, 1.0]), 0.0, rng)


def truncated_normal_per_entry(mu, var, lower, rng):
    """Reference sampler: one uniform per entry in C order, each inverted on its own;
    by the product form when every bound is central, by the log form otherwise."""
    shape = np.broadcast_shapes(np.shape(mu), np.shape(var), np.shape(lower))
    mu_b = np.broadcast_to(np.asarray(mu, dtype=float), shape).reshape(-1)
    sd_b = np.sqrt(np.broadcast_to(np.asarray(var, dtype=float), shape)).reshape(-1)
    a = (np.broadcast_to(np.asarray(lower, dtype=float), shape).reshape(-1) - mu_b) / sd_b
    log_form = np.any(a > TAIL_SWITCH)
    out = np.empty(a.shape)
    for i in range(a.size):
        u = 1.0 - rng.uniform()
        if log_form:
            z = -ndtri_exp(np.log(u) + log_ndtr(-a[i]))
        else:
            z = -ndtri(u * ndtr(-a[i]))
        out[i] = mu_b[i] + sd_b[i] * z
    return out.reshape(shape)


class TestTruncatedNormalSameDraws:
    _r = np.random.default_rng(3)
    CASES = {  # (mu, var, lower); the "mixed" cases have bounds past TAIL_SWITCH
        "central": (_r.standard_normal((40, 5)), _r.uniform(0.2, 2.0, 5), 0.0),
        "central-sized": (np.full(300, 0.5), 2.0, 0.0),
        "mixed": (np.broadcast_to([-9.0, 0.0, 3.0, -5.5, -4.1], (200, 5)), 1.0, 0.0),
        "mixed-per-entry": (_r.normal(-2.0, 2.5, (60, 4)), _r.uniform(0.1, 1.0, 4), 0.0),
        "mixed-far": (np.broadcast_to([-40.0, -1e3, 0.5, -2.0], (50, 4)), 1.0, 0.0),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_same_draws_as_split_by_bound(self, name):
        mu, var, lower = self.CASES[name]
        assert np.any((lower - np.asarray(mu)) / np.sqrt(var) > TAIL_SWITCH) == name.startswith("mixed")
        fast_rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
        x = sample_truncated_normal(mu, var, lower, fast_rng)
        ref = truncated_normal_per_entry(mu, var, lower, ref_rng)
        assert np.array_equal(x, ref)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def recording_kernels(monkeypatch):
    """Wrap both inverse-CDF kernels; each block appends (kernel, rows, thread id, invalid errstate)."""
    calls = []
    for name in ("_product_form", "_log_form"):
        def record(t, u, _name=name, _real=getattr(csn, name)):
            calls.append((_name, t.shape[0], threading.get_ident(), np.geterr()["invalid"]))
            _real(t, u)

        monkeypatch.setattr(csn, name, record)
    return calls


def set_usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(csn, "_usable_cpus", lambda: cpus)


class TestTruncatedNormalRowBlocks:
    """The inverse-CDF pass split into row blocks gives the serial pass's draws bit for bit."""

    _r = np.random.default_rng(5)
    PM = PARALLEL_MIN
    # (mu, var, lower, kernel, row blocks at 3 CPUs); a block gets at least PARALLEL_MIN entries
    CASES = {
        "product-odd-rows": (_r.uniform(-1.5, 2.0, (3 * PM // 40 + 1, 40)), _r.uniform(0.2, 2.0, 40), 0.0,
                             "_product_form", 3),
        "log-form": (_r.normal(-2.0, 2.5, (2 * PM // 8 + 1, 8)), _r.uniform(0.1, 1.0, 8), 0.0, "_log_form", 2),
        "one-column": (_r.uniform(-1.5, 2.0, (2 * PM + 1, 1)), 0.7, 0.0, "_product_form", 2),
        "fewer-rows-than-blocks": (_r.uniform(-1.5, 2.0, (2, 3 * PM // 2 + 1)), 1.3, 0.0, "_product_form", 2),
        "broadcast-var-and-lower": (_r.uniform(-1.5, 2.0, (2 * PM // 16 + 1, 16)), _r.uniform(0.2, 2.0, 16),
                                    _r.uniform(-1.0, 0.2, (2 * PM // 16 + 1, 1)), "_product_form", 2),
        "one-dimensional": (_r.uniform(-1.5, 2.0, 2 * PM), 1.0, 0.0, "_product_form", 2),
        "just-below-PARALLEL_MIN": (_r.uniform(-1.5, 2.0, (PM // 16 - 1, 16)), 1.0, 0.0, "_product_form", 1),
        "just-above-PARALLEL_MIN": (_r.uniform(-1.5, 2.0, (PM // 16 + 1, 16)), 1.0, 0.0, "_product_form", 1),
        "just-below-2-PARALLEL_MIN": (_r.uniform(-1.5, 2.0, (2 * PM // 16 - 1, 16)), 1.0, 0.0, "_product_form", 1),
        "just-above-2-PARALLEL_MIN": (_r.uniform(-1.5, 2.0, (2 * PM // 16 + 1, 16)), 1.0, 0.0, "_product_form", 2),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_split_equals_serial_and_per_entry_reference(self, name, monkeypatch):
        mu, var, lower, kernel, blocks = self.CASES[name]
        assert np.any((lower - mu) / np.sqrt(var) > TAIL_SWITCH) == (kernel == "_log_form")
        calls = recording_kernels(monkeypatch)
        draws = {}
        for cpus in (1, 3):
            set_usable_cpus(monkeypatch, cpus)
            rng = np.random.default_rng(17)
            calls.clear()
            draws[cpus] = sample_truncated_normal(mu, var, lower, rng)
            assert [c[0] for c in calls] == [kernel] * (blocks if cpus == 3 else 1), cpus
            assert sum(c[1] for c in calls) == draws[cpus].shape[0]
            one_output_per_entry = np.random.default_rng(17)
            one_output_per_entry.bit_generator.advance(draws[cpus].size)
            assert rng.bit_generator.state == one_output_per_entry.bit_generator.state
        ref = truncated_normal_per_entry(mu, var, lower, np.random.default_rng(17))
        assert np.array_equal(draws[1], ref)
        assert np.array_equal(draws[3], ref)

    def test_helper_blocks_run_under_the_callers_errstate(self, monkeypatch):
        calls = recording_kernels(monkeypatch)
        set_usable_cpus(monkeypatch, 3)
        with np.errstate(invalid="raise"):
            sample_truncated_normal(np.zeros((3 * PARALLEL_MIN // 8, 8)), 1.0, 0.0, np.random.default_rng(1))
        assert len(calls) == 3
        assert [c[3] for c in calls] == ["raise"] * 3
        threads = {c[2] for c in calls}
        assert threading.get_ident() in threads and len(threads) >= 2  # helper threads took blocks

    def test_floating_point_error_in_a_helper_block_surfaces(self, monkeypatch):
        caller = threading.get_ident()

        def invalid_in_helper_blocks(t, u):
            if threading.get_ident() != caller:
                np.sqrt(np.full(1, -1.0))  # raises only under the caller's errstate

        for name in ("_product_form", "_log_form"):
            monkeypatch.setattr(csn, name, invalid_in_helper_blocks)
        set_usable_cpus(monkeypatch, 2)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError, match="invalid value"):
            sample_truncated_normal(np.zeros((2 * PARALLEL_MIN // 8, 8)), 1.0, 0.0, np.random.default_rng(1))

    def test_concurrent_callers_share_the_helper_threads(self, monkeypatch):
        set_usable_cpus(monkeypatch, 3)
        mus = [np.random.default_rng(i).uniform(-1.5, 2.0, (3 * PARALLEL_MIN // 8, 8)) for i in range(4)]
        serial = [truncated_normal_per_entry(mu, 1.0, 0.0, np.random.default_rng(i)) for i, mu in enumerate(mus)]
        draws = [None] * 4

        def call(i):
            for _ in range(5):
                draws[i] = sample_truncated_normal(mus[i], 1.0, 0.0, np.random.default_rng(i))
                if not np.array_equal(draws[i], serial[i]):
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        for i in range(4):
            assert np.array_equal(draws[i], serial[i]), i

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_splits_again(self, monkeypatch):
        calls = recording_kernels(monkeypatch)
        set_usable_cpus(monkeypatch, 2)
        mu = np.zeros((2 * PARALLEL_MIN // 8, 8))
        first = sample_truncated_normal(mu, 1.0, 0.0, np.random.default_rng(4))  # starts a helper thread
        assert len({c[2] for c in calls}) == 2
        pid = os.fork()
        if pid == 0:  # the child leaves through os._exit, past pytest's own teardown
            code = 1
            try:
                again = sample_truncated_normal(mu, 1.0, 0.0, np.random.default_rng(4))
                code = 0 if np.array_equal(again, first) and len(calls) == 4 else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's split call did not return within 60 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0


def sn_params_1d(alpha=2.0):
    return CsnParams(np.zeros(1), np.eye(1), np.array([[alpha]]), np.zeros(1), np.eye(1))


class TestCsnLogDensity:
    def test_zero_skew_reduces_to_multivariate_normal(self, rng):
        a = rng.standard_normal((3, 3))
        sigma = a @ a.T + 3 * np.eye(3)
        mu = rng.standard_normal(3)
        p = CsnParams(mu, sigma, np.zeros((1, 3)), np.zeros(1), np.eye(1))
        y = rng.standard_normal((20, 3)) * 2
        ref = multivariate_normal(mean=mu, cov=sigma).logpdf(y)
        assert np.allclose(csn_log_density(p, y), ref, atol=1e-12)

    def test_one_dim_matches_skew_normal_form(self):
        p = sn_params_1d(2.0)
        y = np.linspace(-4, 4, 41)
        # latent covariance is 1 + alpha^2, so the normalizer is Phi(0) = 1/2
        ref = norm.logpdf(y) + norm.logcdf(2.0 * y) + np.log(2.0)
        assert np.allclose(csn_log_density(p, y[:, None]), ref, atol=1e-12)

    def test_one_dim_quadrature_normalization(self):
        p = sn_params_1d(2.0)
        grid, w = gauss_legendre_grid(-12.0, 12.0, 400)
        total = np.exp(csn_log_density(p, grid[:, None])) @ w
        assert abs(total - 1.0) < 1e-10

    def test_two_dim_quadrature_normalization(self):
        p = CsnParams(
            np.array([0.5, -0.25]),
            np.diag([1.0, 0.5]),
            np.array([[2.0, 0.0], [0.0, -1.0]]),
            np.array([0.3, -0.2]),
            np.diag([1.0, 2.0]),
        )
        g1, w1 = gauss_legendre_grid(-10.0, 11.0, 220)
        g2, w2 = gauss_legendre_grid(-8.0, 7.5, 220)
        xx, yy = np.meshgrid(g1, g2, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        dens = np.exp(csn_log_density(p, pts)).reshape(220, 220)
        total = w1 @ dens @ w2
        assert abs(total - 1.0) < 1e-6

    def test_nondiagonal_latent_covariance_rejected(self):
        p = CsnParams(
            np.zeros(2), np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2), np.eye(2)
        )
        with pytest.raises(UnsupportedCovarianceStructure):
            csn_log_density(p, np.zeros(2))

    def test_nondiagonal_delta_rejected(self):
        delta = np.array([[1.0, 0.4], [0.4, 1.0]])
        p = CsnParams(np.zeros(2), np.eye(2), np.zeros((2, 2)), np.zeros(2), delta)
        with pytest.raises(UnsupportedCovarianceStructure):
            csn_log_density(p, np.zeros(2))


class TestCsnConditional:
    def test_zero_skew_matches_gaussian_conditioning(self, rng):
        a = rng.standard_normal((4, 4))
        sigma = a @ a.T + 4 * np.eye(4)
        mu = rng.standard_normal(4)
        p = CsnParams(mu, sigma, np.zeros((1, 4)), np.zeros(1), np.eye(1))
        y1 = rng.standard_normal(2)
        cond = csn_conditional(p, 2, y1)
        s11, s12 = sigma[:2, :2], sigma[:2, 2:]
        mean_ref = mu[2:] + s12.T @ np.linalg.solve(s11, y1 - mu[:2])
        cov_ref = sigma[2:, 2:] - s12.T @ np.linalg.solve(s11, s12)
        assert np.allclose(cond.mu, mean_ref, atol=1e-12)
        assert np.allclose(cond.sigma, cov_ref, atol=1e-12)
        assert np.allclose(cond.nu, p.nu)

    def test_block_diagonal_sigma_with_inactive_first_block(self, rng):
        sigma = np.diag([1.0, 2.0, 0.5])
        gamma = np.array([[0.0, 1.5, -0.5], [0.0, 0.3, 2.0]])
        p = CsnParams(np.array([1.0, -1.0, 0.0]), sigma, gamma, np.array([0.1, 0.2]), np.eye(2))
        cond = csn_conditional(p, 1, np.array([2.0]))
        assert np.allclose(cond.mu, p.mu[1:])
        assert np.allclose(cond.sigma, sigma[1:, 1:])
        assert np.allclose(cond.gamma, gamma[:, 1:])
        assert np.allclose(cond.nu, p.nu)  # gamma* vanishes, so nu is unshifted
        assert np.allclose(cond.delta, p.delta)

    def test_conditional_matches_joint_over_marginal(self):
        # 2-D model with coupled skewness; ratio computed by quadrature
        L = np.array([[1.0, -0.5], [0.0, 1.0]])
        sigma = np.linalg.inv(L.T @ L)
        gamma = np.array([[2.0, -1.0], [0.0, 1.5]])
        p = CsnParams(np.array([0.3, -0.2]), sigma, gamma, np.zeros(2), np.eye(2))
        y1 = 0.7
        grid2, w2 = gauss_legendre_grid(-9.0, 9.0, 300)
        joint = np.exp(
            csn_log_kernel(p, np.column_stack([np.full(300, y1), grid2]))
        )
        marginal_y1 = joint @ w2
        cond = csn_conditional(p, 1, np.array([y1]))
        kern = np.exp(csn_log_kernel(cond, grid2[:, None]))
        cond_dens = kern / (kern @ w2)
        ratio = joint / marginal_y1
        assert np.max(np.abs(cond_dens - ratio)) < 1e-8

    def test_singular_block_raises(self):
        sigma = np.array([[0.0, 0.0], [0.0, 1.0]])
        p = CsnParams(np.zeros(2), sigma, np.zeros((1, 2)), np.zeros(1), np.eye(1))
        with pytest.raises(SingularBlock):
            csn_conditional(p, 1, np.array([0.0]))

    def test_joint_equals_conditional_times_marginal_random_points(self, rng):
        p = CsnParams(
            np.array([0.0, 0.5]),
            np.diag([1.0, 1.5]),
            np.array([[1.2, 0.0], [0.0, -0.8]]),
            np.array([0.0, 0.1]),
            np.diag([1.0, 1.0]),
        )
        grid2, w2 = gauss_legendre_grid(-10.0, 10.0, 300)
        norm_grid, norm_w = gauss_legendre_grid(-10.0, 10.0, 300)
        # total normalizer by 2-D quadrature of the kernel
        xx, yy = np.meshgrid(norm_grid, grid2, indexing="ij")
        kern = np.exp(csn_log_kernel(p, np.column_stack([xx.ravel(), yy.ravel()])))
        total = norm_w @ kern.reshape(300, 300) @ w2
        for y1 in rng.uniform(-2, 2, size=5):
            joint_line = np.exp(csn_log_kernel(p, np.column_stack([np.full(300, y1), grid2])))
            marg = (joint_line @ w2) / total
            cond = csn_conditional(p, 1, np.array([y1]))
            ck = np.exp(csn_log_kernel(cond, grid2[:, None]))
            cond_dens = ck / (ck @ w2)
            joint_dens = joint_line / total
            assert np.allclose(joint_dens, cond_dens * marg, rtol=1e-6, atol=1e-12)


class TestSampleCsn:
    def test_zero_skew_gaussian_moments(self, rng):
        a = rng.standard_normal((2, 2))
        sigma = a @ a.T + 2 * np.eye(2)
        mu = np.array([1.0, -2.0])
        p = CsnParams(mu, sigma, np.zeros((1, 2)), np.zeros(1), np.eye(1))
        n = 200_000
        x = sample_csn(p, rng, n)
        se_mean = np.sqrt(np.diag(sigma) / n)
        assert np.all(np.abs(x.mean(0) - mu) < 4 * se_mean)
        cov = np.cov(x, rowvar=False)
        se_cov = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2) / n)
        assert np.all(np.abs(cov - sigma) < 4 * se_cov)

    def test_one_dim_skew_normal_mean(self, rng):
        p = sn_params_1d(2.0)
        n = 10**6
        x = sample_csn(p, rng, n).ravel()
        delta_skew = 2.0 / np.sqrt(5.0)
        target = SQRT_2_OVER_PI * delta_skew
        sd = np.sqrt(1.0 - target**2)
        assert abs(x.mean() - target) < 3 * sd / np.sqrt(n)

    def test_ecdf_matches_quadrature_cdf(self, rng):
        p = sn_params_1d(-1.5)
        n = 10**6
        x = np.sort(sample_csn(p, rng, n).ravel())
        # cumulative trapezoid on a fine uniform grid gives valid partial integrals
        grid = np.linspace(-12.0, 12.0, 40001)
        dens = np.exp(csn_log_density(p, grid[:, None]))
        cdf_grid = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        assert abs(cdf_grid[-1] - 1.0) < 1e-7
        cdf_at_x = np.interp(x, grid, cdf_grid)
        ecdf = np.arange(1, n + 1) / n
        assert np.abs(ecdf - cdf_at_x).max() < 0.005

    def test_one_dim_histogram_chi2(self, rng):
        p = sn_params_1d(2.0)
        n = 200_000
        x = sample_csn(p, rng, n).ravel()
        edges = np.linspace(-3.5, 4.5, 33)
        obs, _ = np.histogram(x, bins=edges)
        sub, subw = np.polynomial.legendre.leggauss(12)
        exp_prob = np.empty(32)
        for b in range(32):
            half = 0.5 * (edges[b + 1] - edges[b])
            gb = 0.5 * (edges[b] + edges[b + 1]) + half * sub
            exp_prob[b] = (np.exp(csn_log_density(p, gb[:, None])) * subw * half).sum()
        keep = exp_prob * n >= 10
        chi_stat = (((obs - n * exp_prob) ** 2) / (n * exp_prob))[keep].sum()
        rem_obs = n - obs[keep].sum()
        rem_exp = n * (1.0 - exp_prob[keep].sum())
        chi_stat += (rem_obs - rem_exp) ** 2 / rem_exp
        assert chi_stat < chi2.ppf(0.999, keep.sum())

    def test_two_dim_histogram_chi2(self, rng):
        p = CsnParams(
            np.zeros(2),
            np.diag([1.0, 0.7]),
            np.array([[2.5, 0.0], [0.0, -1.5]]),
            np.zeros(2),
            np.eye(2),
        )
        n = 200_000
        x = sample_csn(p, rng, n)
        edges1 = np.linspace(-4, 4, 11)
        edges2 = np.linspace(-4, 4, 11)
        obs, _, _ = np.histogram2d(x[:, 0], x[:, 1], bins=[edges1, edges2])
        exp_prob = np.empty((10, 10))
        sub, subw = np.polynomial.legendre.leggauss(8)
        for a in range(10):
            half_a = 0.5 * (edges1[a + 1] - edges1[a])
            ga = 0.5 * (edges1[a] + edges1[a + 1]) + half_a * sub
            wa = subw * half_a
            for b in range(10):
                half_b = 0.5 * (edges2[b + 1] - edges2[b])
                gb = 0.5 * (edges2[b] + edges2[b + 1]) + half_b * sub
                wb = subw * half_b
                xx, yy = np.meshgrid(ga, gb, indexing="ij")
                dens = np.exp(csn_log_density(p, np.column_stack([xx.ravel(), yy.ravel()])))
                exp_prob[a, b] = wa @ dens.reshape(8, 8) @ wb
        keep = exp_prob * n >= 10
        chi_stat = (((obs - n * exp_prob) ** 2) / (n * exp_prob))[keep].sum()
        # lump everything outside the kept cells into one remainder bin
        rem_obs = n - obs[keep].sum()
        rem_exp = n * (1.0 - exp_prob[keep].sum())
        if rem_exp > 0:
            chi_stat += (rem_obs - rem_exp) ** 2 / rem_exp
        dof = keep.sum()  # cells + remainder - 1
        assert chi_stat < chi2.ppf(0.999, dof)
