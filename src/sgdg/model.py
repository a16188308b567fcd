"""The skew Gaussian decomposable graphical (SGDG) model.

A random vector X in R^k follows the SGDG model on a decomposable graph G
(whose labels form a perfect elimination ordering) when its density is

    p(x) = (2/pi)^(k/2) |D_kappa|^(1/2) exp(-(x-mu)' Q (x-mu) / 2)
           * prod_i Phi(alpha_i kappa_i L_i. (x - mu)),

with Q = L' D_kappa L the pattern-constrained modified Cholesky
decomposition, D_kappa = diag(kappa_i^2) and skewness vector alpha. Setting
alpha = 0 recovers the Gaussian graphical model with precision Q exactly.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .csn import CsnParams
from .linalg import CholFactor, pattern_within, solve_unit_triangular

LOG_2_OVER_PI = np.log(2.0 / np.pi)


class InvalidDomain(ValueError):
    """Raised when parameter values fall outside their domain."""


class DimensionTooLarge(ValueError):
    """Raised when a quadrature-based check is requested beyond k = 4."""


def _check_pattern(L_or_factor, graph):
    if isinstance(L_or_factor, CholFactor):
        f = L_or_factor
    else:
        f = CholFactor(L_or_factor, np.ones(graph.k))
    if not pattern_within(f, graph):
        raise InvalidDomain("factor support is not contained in the graph pattern")


@dataclass(frozen=True)
class SgdgParams:
    """Model state (mu, alpha, factor=(L, D_kappa)) on a graph."""

    mu: np.ndarray
    alpha: np.ndarray
    factor: CholFactor
    graph: object

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        k = self.graph.k
        if mu.shape != (k,) or alpha.shape != (k,) or self.factor.k != k:
            raise ValueError("parameter dimensions do not match the graph")
        _check_pattern(self.factor, self.graph)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha", alpha)

    @property
    def k(self):
        return self.graph.k

    @property
    def kappa2(self):
        return self.factor.D


@dataclass(frozen=True)
class ReparamParams:
    """The sampler-facing parameterization (mu, delta, omega^2, L).

    delta_i = alpha_i / (kappa_i sqrt(1 + alpha_i^2)) and
    omega_i^2 = kappa_i^2 (1 + alpha_i^2); the map is a bijection with
    alpha_i = delta_i omega_i.
    """

    mu: np.ndarray
    delta: np.ndarray
    omega2: np.ndarray
    L: np.ndarray
    graph: object

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        omega2 = np.asarray(self.omega2, dtype=float)
        L = np.asarray(self.L, dtype=float)
        k = self.graph.k
        if mu.shape != (k,) or delta.shape != (k,) or omega2.shape != (k,):
            raise ValueError("parameter dimensions do not match the graph")
        if np.any(omega2 <= 0):
            raise InvalidDomain("omega^2 entries must be positive")
        _check_pattern(L, self.graph)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "omega2", omega2)
        object.__setattr__(self, "L", L)


def reparam_forward(p):
    """Map (mu, alpha, L, D_kappa) to (mu, delta, omega^2, L)."""
    kappa = np.sqrt(p.kappa2)
    root = np.sqrt(1.0 + p.alpha**2)
    delta = p.alpha / (kappa * root)
    omega2 = p.kappa2 * (1.0 + p.alpha**2)
    return ReparamParams(p.mu, delta, omega2, p.factor.L, p.graph)


def alpha_kappa2(delta, omega2):
    """The (delta, omega^2) -> (alpha, kappa^2) map on plain arrays."""
    alpha = delta * np.sqrt(omega2)
    return alpha, omega2 / (1.0 + alpha**2)


def reparam_inverse(r):
    """Map (mu, delta, omega^2, L) back to (mu, alpha, L, D_kappa)."""
    if np.any(np.asarray(r.omega2) <= 0):
        raise InvalidDomain("omega^2 entries must be positive")
    alpha, kappa2 = alpha_kappa2(r.delta, r.omega2)
    return SgdgParams(r.mu, alpha, CholFactor(r.L, kappa2), r.graph)


def log_density(mu, alpha, L, kappa2, x):
    """`sgdg_log_density` on plain, unvalidated arrays: the log density at each row of x."""
    z = (np.atleast_2d(x) - mu) @ L.T  # rows L (x - mu)
    quad = z**2 @ kappa2
    base = 0.5 * kappa2.shape[0] * LOG_2_OVER_PI + 0.5 * np.log(kappa2).sum() - 0.5 * quad
    return base + log_ndtr(z * (alpha * np.sqrt(kappa2))).sum(axis=1)


def sgdg_log_density(p, x):
    """Log density at x (length-k vector) or at each row of a (m, k) array."""
    x = np.asarray(x, dtype=float)
    out = log_density(p.mu, p.alpha, p.factor.L, p.factor.D, x)
    return float(out[0]) if x.ndim == 1 else out


def sample_sgdg(p, rng, n_draws):
    """Exact draws via the half-normal plus normal stochastic representation.

    X = mu + L^-1 D_kappa^(-1/2) (I + D_alpha^2)^(-1/2) (D_alpha |Z1| + Z2).
    """
    kappa = np.sqrt(p.kappa2)
    root = np.sqrt(1.0 + p.alpha**2)
    c_skew = p.alpha / (kappa * root)
    c_gauss = 1.0 / (kappa * root)
    z1 = np.abs(rng.standard_normal((n_draws, p.k)))
    z2 = rng.standard_normal((n_draws, p.k))
    w = z1 * c_skew + z2 * c_gauss
    return p.mu + solve_unit_triangular(p.factor.L, w.T).T


def _half_normal_loading(alpha):
    # sqrt(2/pi) alpha_i / sqrt(1 + alpha_i^2): mean of each latent half-normal
    return np.sqrt(2.0 / np.pi) * alpha / np.sqrt(1.0 + alpha**2)


def mean_vector(p):
    """E(X) = mu + L^-1 D_kappa^(-1/2) d with d the half-normal loadings."""
    d = _half_normal_loading(p.alpha)
    return p.mu + solve_unit_triangular(p.factor.L, d / np.sqrt(p.kappa2))


def covariance_matrix(p):
    """Cov(X) = L^-1 D_kappa^(-1/2) (I - D^2) D_kappa^(-1/2) L^-T.

    D = sqrt(2/pi) D_alpha (I + D_alpha^2)^(-1/2); the inverse covariance is
    L' (positive diagonal) L and therefore carries the graph's zero pattern.
    """
    d = _half_normal_loading(p.alpha)
    scale = np.sqrt((1.0 - d**2) / p.kappa2)
    b = solve_unit_triangular(p.factor.L, np.diag(scale))
    return b @ b.T


def to_csn(p):
    """The equivalent CSN parameterization (mu, Q^-1, D_alpha L, 0, D_kappa^-1)."""
    k = p.k
    l_inv = solve_unit_triangular(p.factor.L, np.eye(k))
    sigma = l_inv @ np.diag(1.0 / p.kappa2) @ l_inv.T
    gamma = p.alpha[:, np.newaxis] * p.factor.L
    return CsnParams(p.mu, sigma, gamma, np.zeros(k), np.diag(1.0 / p.kappa2))


def _gauss_legendre(lo, hi, n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * nodes, half * weights


def ci_factorization_check(p, i, j, rng=None, n_rest=3, nodes=200, tol=1e-6):
    """Empirical conditional-independence test of X_i and X_j given the rest.

    Evaluates the joint density on a tensor grid over (x_i, x_j) at several
    fixed values of the remaining coordinates and checks each slice for
    rank-one structure (second singular value below tol relative to the
    first). Quadrature-style grids keep this exact for factorizing densities.
    """
    if p.k > 4:
        raise DimensionTooLarge("factorization check supports k <= 4 only")
    if i == j or not (0 <= i < p.k and 0 <= j < p.k):
        raise ValueError("need distinct coordinates i, j")
    if rng is None:
        rng = np.random.default_rng(0)
    mean = mean_vector(p)
    sd = np.sqrt(np.diag(covariance_matrix(p)))
    gi, _ = _gauss_legendre(mean[i] - 8 * sd[i], mean[i] + 8 * sd[i], nodes)
    gj, _ = _gauss_legendre(mean[j] - 8 * sd[j], mean[j] + 8 * sd[j], nodes)
    rest_points = sample_sgdg(p, rng, n_rest)
    xi, xj = np.meshgrid(gi, gj, indexing="ij")
    for rest in rest_points:
        pts = np.tile(rest, (nodes * nodes, 1))
        pts[:, i] = xi.ravel()
        pts[:, j] = xj.ravel()
        logf = sgdg_log_density(p, pts).reshape(nodes, nodes)
        f = np.exp(logf - logf.max())
        s = np.linalg.svd(f, compute_uv=False)
        if s[1] > tol * s[0]:
            return False
    return True
