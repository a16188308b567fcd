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
from scipy.special import log_ndtr, wofz

from .linalg import solve_unit_triangular

LOG_2_OVER_PI = np.log(2.0 / np.pi)


class InvalidDomain(ValueError):
    """Raised when parameter values fall outside their domain."""


MAX_ABS_ALPHA = np.sqrt(np.finfo(float).max)  # the largest |alpha| whose 1 + alpha^2 is finite


def _check_factor(L, graph):
    """Refuse an L that is not k x k unit upper triangular (ValueError), or that is not finite
    or has an entry above 1e-12 in magnitude off the graph's edges (InvalidDomain)."""
    k = graph.k
    if L.shape != (k, k) or not np.array_equal(np.tril(L), np.eye(k)):
        raise ValueError("L must be a k x k unit upper-triangular matrix")
    if not np.all(np.isfinite(L)):
        raise InvalidDomain("L must be finite")
    off = np.abs(np.triu(L, 1)) > 1e-12
    off[tuple(np.array(list(graph.edges), dtype=int).reshape(-1, 2).T)] = False
    if off.any():
        raise InvalidDomain("factor support is not contained in the graph pattern")


def _check_alpha(alpha):
    if not np.all(np.abs(alpha) <= MAX_ABS_ALPHA):
        raise InvalidDomain(f"alpha entries must be finite with |alpha| <= {MAX_ABS_ALPHA:.4g}, "
                            "beyond which 1 + alpha^2 overflows")


@dataclass(frozen=True)
class SgdgParams:
    """Model state (mu, alpha, L, kappa^2) on a graph, with Q = L' diag(kappa^2) L."""

    mu: np.ndarray
    alpha: np.ndarray
    L: np.ndarray
    kappa2: np.ndarray
    graph: object

    def __post_init__(self):
        mu, alpha, L, kappa2 = (np.asarray(a, dtype=float) for a in (self.mu, self.alpha, self.L, self.kappa2))
        k = self.graph.k
        if mu.shape != (k,) or alpha.shape != (k,) or kappa2.shape != (k,):
            raise ValueError("parameter dimensions do not match the graph")
        if not np.all(np.isfinite(mu)):
            raise InvalidDomain("mu must be finite")
        _check_alpha(alpha)
        valid = (kappa2 > 0) & (kappa2 < np.inf)
        if not np.all(valid):
            i = int(np.argmin(valid))  # the first entry that is not positive and finite
            raise InvalidDomain(f"kappa^2 = omega^2 / (1 + alpha^2) must be positive and finite, "
                                f"but entry {i + 1} is {float(kappa2[i])!r} (alpha {float(alpha[i])!r})")
        _check_factor(L, self.graph)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "kappa2", kappa2)

    @property
    def k(self):
        return self.graph.k


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
        if not all(np.all(np.isfinite(a)) for a in (mu, delta, omega2)):
            raise InvalidDomain("mu, delta and omega^2 must be finite")
        if np.any(omega2 <= 0):
            raise InvalidDomain("omega^2 entries must be positive")
        _check_factor(L, self.graph)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "omega2", omega2)
        object.__setattr__(self, "L", L)


def alpha_kappa2(delta, omega2):
    """The (delta, omega^2) -> (alpha, kappa^2) map on plain arrays."""
    alpha = delta * np.sqrt(omega2)
    return alpha, omega2 / (1.0 + alpha**2)


def reparam_inverse(r):
    """Map (mu, delta, omega^2, L) back to (mu, alpha, L, kappa^2)."""
    _check_alpha(r.delta * np.sqrt(r.omega2))  # before 1 + alpha^2 can overflow kappa^2 to zero
    alpha, kappa2 = alpha_kappa2(r.delta, r.omega2)
    return SgdgParams(r.mu, alpha, r.L, kappa2, r.graph)


def log_density(mu, alpha, L, kappa2, x):
    """`sgdg_log_density` on plain, unvalidated arrays: the log density at each row of x."""
    z = (np.atleast_2d(x) - mu) @ L.T  # rows L (x - mu)
    quad = z**2 @ kappa2
    base = 0.5 * kappa2.shape[0] * LOG_2_OVER_PI + 0.5 * np.log(kappa2).sum() - 0.5 * quad
    return base + log_ndtr(z * (alpha * np.sqrt(kappa2))).sum(axis=1)


def sgdg_log_density(p, x):
    """Log density at x (length-k vector) or at each row of a (m, k) array."""
    x = np.asarray(x, dtype=float)
    out = log_density(p.mu, p.alpha, p.L, p.kappa2, x)
    return float(out[0]) if x.ndim == 1 else out


def _latent_scales(p):
    """Per-coordinate scales (c_skew, c_gauss) of |Z1| and Z2 in the representation."""
    kappa_root = np.sqrt(p.kappa2) * np.sqrt(1.0 + p.alpha**2)
    return p.alpha / kappa_root, 1.0 / kappa_root


def sample_sgdg(p, rng, n_draws):
    """Exact draws via the half-normal plus normal stochastic representation.

    X = mu + L^-1 D_kappa^(-1/2) (I + D_alpha^2)^(-1/2) (D_alpha |Z1| + Z2).
    """
    c_skew, c_gauss = _latent_scales(p)
    z1 = np.abs(rng.standard_normal((n_draws, p.k)))
    z2 = rng.standard_normal((n_draws, p.k))
    w = z1 * c_skew + z2 * c_gauss
    return p.mu + solve_unit_triangular(p.L, w.T).T


def loadings(p):
    """Loading matrices (B, G) of the representation X = mu + B |Z1| + G Z2.

    With A = L^-1, B = A diag(c_skew) and G = A diag(c_gauss), the scales of
    `sample_sgdg`; B is zero when alpha is.
    """
    c_skew, c_gauss = _latent_scales(p)
    a = solve_unit_triangular(p.L, np.eye(p.k))
    return a * c_skew, a * c_gauss


def mean_vector(p):
    """E(X) = mu + sqrt(2/pi) B 1, with B the half-normal loadings."""
    b, _ = loadings(p)
    return p.mu + np.sqrt(2.0 / np.pi) * b.sum(axis=1)


def covariance_matrix(p):
    """Cov(X) = G G' + (1 - 2/pi) B B', with (B, G) the `loadings`.

    Equivalently L^-1 D_kappa^(-1/2) (I - D^2) D_kappa^(-1/2) L^-T with
    D = sqrt(2/pi) D_alpha (I + D_alpha^2)^(-1/2); the inverse covariance is
    L' (positive diagonal) L and therefore carries the graph's zero pattern.
    """
    b, g = loadings(p)
    return g @ g.T + (1.0 - 2.0 / np.pi) * (b @ b.T)


_REACH = 9.0  # scale units: the half-width of the Gaussian part and the extent of each half-normal
_T_CHUNK = 4096  # frequency nodes per step of the inversion sum
_MAX_NODES = 16 * _T_CHUNK  # bounds the work when the Gaussian part is far narrower than the span


def marginal_densities(p, z):
    """Density of each X_j at the points z[j] of a (k, m) array, exact to rounding.

    X_j = mu_j + sum_i B_ji |Z1_i| + s_j Z, with (B, G) the `loadings` and s_j^2 = sum_i G_ji^2.
    b |Z| has characteristic function w(b t / sqrt(2)), the Faddeeva function, so X_j has
    psi(t) = exp(i t mu_j - s_j^2 t^2 / 2) prod_i w(B_ji t / sqrt(2)). The trapezoid rule with
    step dt = pi / span inverts it, f(x) = (1/2 + sum_m Re[exp(-i t_m x) psi(t_m)]) / span: its
    period 2 span is twice the span of the points and the mass, so no alias lands on a point, and
    it stops at t = sqrt(80) / s_j, where the Gaussian factor is below e^-40. An s_j so small that
    this takes over `_MAX_NODES` nodes (B_ji / s_j above about 2,500) is raised until it takes
    that many: such a nearly noiseless marginal comes out smoothed at that width, not exact.
    """
    b_all, g = loadings(p)
    out = []
    for b, s, x in zip(b_all, np.sqrt((g**2).sum(axis=1)), np.asarray(z, dtype=float) - p.mu[:, np.newaxis]):
        span = max(x.max(), _REACH * (s + b[b > 0].sum())) - min(x.min(), -_REACH * (s - b[b < 0].sum()))
        s = max(s, np.sqrt(80.0) * span / (np.pi * _MAX_NODES))
        n = int(np.sqrt(80.0) * span / (np.pi * s))  # nodes t_m = m pi / span up to sqrt(80) / s
        total = 0.0
        for start in range(1, n + 1, _T_CHUNK):
            tc = np.pi / span * np.arange(start, min(start + _T_CHUNK, n + 1))
            psi = np.exp(-0.5 * (s * tc) ** 2).astype(complex)
            for bi in b[b != 0.0]:
                psi *= wofz(bi / np.sqrt(2.0) * tc)
            phase = np.outer(x, tc)
            total = total + np.cos(phase) @ psi.real + np.sin(phase) @ psi.imag
        out.append(np.maximum((0.5 + total) / span, 0.0))  # rounding negatives become 0
    return np.array(out)
