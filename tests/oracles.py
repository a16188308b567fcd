"""Reference oracles: the closed-skew-normal layer, conditional independence,
graph separation, precision assembly, the pattern of a factor and the forward
parameter map.

The SGDG model is a closed skew normal (CSN) distribution in the sense of
González-Farías, Domínguez-Molina & Gupta (2004). The general CSN density,
conditioning and sampler below, with the map `to_csn` from SGDG parameters,
are reference implementations that the model's own closed forms are checked
against; `ci_factorization_check` tests conditional independence from the
density alone, by quadrature. No fit, comparison or simulation needs them.

The supported density/sampling cases are those where the latent covariance
Delta + Gamma Sigma Gamma' is diagonal, so every multivariate normal CDF in
the normalizing constant factors into univariate terms. Non-diagonal inputs
raise rather than silently approximate.

`separates`, `assemble_precision`, `verify_pattern` and `reparam_forward`
state the paper's definitions directly; the package needs none of them, and
the tests check its factorization, sampler and parameter maps against them.

`flat_mu_log_evidence` and `flat_mu_log_posterior` are the closed forms of
the Gaussian baseline under the flat-mu priors: its exact log evidence and
the density of the posterior that `inference.flat_mu_baseline_draws` draws
from, written out row by row with dense solves and no library code.

`trace_text` and `effective_sample_size` are the trace writer and the ESS as
first written: one `json.dumps` per record, and every lag of the
autocorrelation from `np.correlate`.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, log_ndtr

from sgdg.linalg import solve_unit_triangular
from sgdg.model import ReparamParams, covariance_matrix, mean_vector, sample_sgdg, sgdg_log_density

from conftest import gauss_legendre_grid

LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class UnsupportedCovarianceStructure(ValueError):
    """Raised when a CSN operation would need a non-factoring normal CDF."""


class SingularBlock(ValueError):
    """Raised when a conditioning block of Sigma is numerically singular."""


class DimensionTooLarge(ValueError):
    """Raised when a quadrature-based check is requested beyond k = 4."""


@dataclass(frozen=True)
class CsnParams:
    """Parameters (mu, sigma, gamma, nu, delta) of an n-dim CSN with m latents."""

    mu: np.ndarray
    sigma: np.ndarray
    gamma: np.ndarray
    nu: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        gamma = np.atleast_2d(np.asarray(self.gamma, dtype=float))
        nu = np.atleast_1d(np.asarray(self.nu, dtype=float))
        delta = np.atleast_2d(np.asarray(self.delta, dtype=float))
        n = mu.shape[0]
        m = nu.shape[0]
        if sigma.shape != (n, n):
            raise ValueError("sigma shape mismatch")
        if gamma.shape != (m, n):
            raise ValueError("gamma shape mismatch")
        if delta.shape != (m, m):
            raise ValueError("delta shape mismatch")
        for name, mat in (("sigma", sigma), ("delta", delta)):
            if not np.allclose(mat, mat.T, atol=1e-10 * max(1.0, np.abs(mat).max())):
                raise ValueError(f"{name} must be symmetric")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "delta", delta)

    @property
    def n(self):
        return self.mu.shape[0]

    @property
    def m(self):
        return self.nu.shape[0]


def _require_diagonal(mat, what):
    """Return the diagonal of mat, raising if off-diagonal mass is material."""
    off = mat - np.diag(np.diag(mat))
    scale = max(1.0, np.abs(np.diag(mat)).max())
    if np.abs(off).max() > 1e-10 * scale:
        raise UnsupportedCovarianceStructure(
            f"{what} must be diagonal for the supported CSN cases"
        )
    d = np.diag(mat).copy()
    if np.any(d <= 0):
        raise ValueError(f"{what} must have positive diagonal")
    return d


def _latent_cov(p):
    return p.delta + p.gamma @ p.sigma @ p.gamma.T


def csn_log_density(p, y):
    """Log density of the CSN at y (vector) or at each row of y (matrix).

    Requires both delta and delta + gamma sigma gamma' diagonal so that the
    m-variate normal CDFs factor into products of univariate Phi terms.
    """
    d_delta = _require_diagonal(p.delta, "delta")
    d_lat = _require_diagonal(_latent_cov(p), "delta + gamma sigma gamma'")

    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    yy = np.atleast_2d(y) - p.mu

    sign, logdet = np.linalg.slogdet(p.sigma)
    if sign <= 0:
        raise ValueError("sigma must be positive definite")
    sol = np.linalg.solve(p.sigma, yy.T)  # (n, rows)
    quad = np.einsum("ij,ji->i", yy, sol)
    log_phi = -0.5 * quad - 0.5 * logdet - p.n * LOG_SQRT_2PI

    z = yy @ p.gamma.T  # rows gamma (y - mu)
    log_cdf = log_ndtr((z - p.nu) / np.sqrt(d_delta)).sum(axis=1)
    log_norm = log_ndtr(-p.nu / np.sqrt(d_lat)).sum()

    out = log_phi + log_cdf - log_norm
    return out[0] if single else out


def csn_conditional(p, n1, y1):
    """Parameters of the conditional distribution of Y2 given Y1 = y1.

    n1 is the length of the observed leading block. The skewness dimension m
    is unchanged; only (mu, sigma, gamma, nu) transform.
    """
    if not 0 < n1 < p.n:
        raise ValueError("partition index must split the vector")
    y1 = np.atleast_1d(np.asarray(y1, dtype=float))
    if y1.shape != (n1,):
        raise ValueError("observed sub-vector has wrong length")
    s11 = p.sigma[:n1, :n1]
    s12 = p.sigma[:n1, n1:]
    s21 = p.sigma[n1:, :n1]
    s22 = p.sigma[n1:, n1:]
    g1 = p.gamma[:, :n1]
    g2 = p.gamma[:, n1:]
    try:
        a = np.linalg.solve(s11, np.column_stack([y1 - p.mu[:n1], s12]))
    except np.linalg.LinAlgError as exc:
        raise SingularBlock(str(exc)) from exc
    if not np.all(np.isfinite(a)):
        raise SingularBlock("sigma11 block is singular")
    s11_inv_resid = a[:, 0]
    s11_inv_s12 = a[:, 1:]
    mu_c = p.mu[n1:] + s21 @ s11_inv_resid
    sigma_c = s22 - s21 @ s11_inv_s12
    # gamma* = gamma1 + gamma2 sigma21 sigma11^-1, and sigma21 sigma11^-1 = (sigma11^-1 sigma12)'
    gamma_star = g1 + g2 @ s11_inv_s12.T
    nu_c = p.nu - gamma_star @ (y1 - p.mu[:n1])
    return CsnParams(mu_c, sigma_c, g2, nu_c, p.delta)


def sample_csn(p, rng, n_draws):
    """Draws from the CSN via its latent-variable representation.

    Y = mu + (Sigma^-1 + Gamma' Delta^-1 Gamma)^(-1/2) V
          + Sigma Gamma' (Delta + Gamma Sigma Gamma')^-1 U,
    with V standard normal and U truncated normal below 0 with the diagonal
    latent covariance; any matrix square root works because V is isotropic,
    so a triangular solve against the Cholesky factor is used.
    """
    d_lat = _require_diagonal(_latent_cov(p), "delta + gamma sigma gamma'")
    sigma_inv = np.linalg.inv(p.sigma)
    delta_inv = np.linalg.inv(p.delta)
    a = sigma_inv + p.gamma.T @ delta_inv @ p.gamma
    try:
        r = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sigma^-1 + gamma' delta^-1 gamma not SPD") from exc
    v = rng.standard_normal((p.n, n_draws))
    # M = r^-T satisfies M M' = a^-1
    mv = np.linalg.solve(r.T, v)
    u = np.abs(rng.standard_normal((p.m, n_draws))) * np.sqrt(d_lat)[:, np.newaxis]
    # truncated-below-at-zero normals with mean zero are half-normals
    bu = p.sigma @ p.gamma.T @ (u / d_lat[:, np.newaxis])
    return (p.mu[:, np.newaxis] + mv + bu).T


def to_csn(p):
    """The CSN parameterization (mu, Q^-1, D_alpha L, 0, D_kappa^-1) of SGDG parameters p."""
    k = p.k
    l_inv = solve_unit_triangular(p.L, np.eye(k))
    sigma = l_inv @ np.diag(1.0 / p.kappa2) @ l_inv.T
    gamma = p.alpha[:, np.newaxis] * p.L
    return CsnParams(p.mu, sigma, gamma, np.zeros(k), np.diag(1.0 / p.kappa2))


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
    gi, _ = gauss_legendre_grid(mean[i] - 8 * sd[i], mean[i] + 8 * sd[i], nodes)
    gj, _ = gauss_legendre_grid(mean[j] - 8 * sd[j], mean[j] + 8 * sd[j], nodes)
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


def separates(g, i, j):
    """Whether F(i,j) = {i+1..j-1} u {j+1..k-1} separates i from j.

    Computed by reachability in the subgraph induced on the complement
    {0..i} u {j}; requires i < j.
    """
    if not i < j:
        raise ValueError("requires i < j")
    allowed = set(range(i + 1)) | {j}
    stack = [i]
    seen = {i}
    while stack:
        v = stack.pop()
        if v == j:
            return False
        for u in g.neighbors(v):
            if u in allowed and u not in seen:
                seen.add(u)
                stack.append(u)
    return True


def assemble_precision(L, D):
    """Return Q = L' diag(D) L for a factor (L, D); SPD by construction."""
    return L.T @ (D[:, np.newaxis] * L)


def verify_pattern(L, g):
    """True iff the off-diagonal support of L equals the edge set of g.

    Both directions are checked: entries off the edge set must vanish (within
    1e-12) and entries on edges must not. Generic inputs make accidental
    zeros on edges measure-zero events.
    """
    k = L.shape[0]
    if k != g.k:
        return False
    support = {(i, j) for i in range(k) for j in range(i + 1, k) if abs(L[i, j]) > 1e-12}
    return support == set(g.edges)


def reparam_forward(p):
    """Map (mu, alpha, L, kappa^2) to (mu, delta, omega^2, L)."""
    kappa = np.sqrt(p.kappa2)
    root = np.sqrt(1.0 + p.alpha**2)
    delta = p.alpha / (kappa * root)
    omega2 = p.kappa2 * (1.0 + p.alpha**2)
    return ReparamParams(p.mu, delta, omega2, p.L, p.graph)


def _flat_mu_rows(data, graph, prior):
    """Per row i of the Gaussian baseline under a flat-mu prior: (f, A_ff, A_fi, rss, shape).

    f is the forward neighbours of i, A = S + Psi with S the centred scatter
    of the data (Psi = 0 under "noninfo"), rss = A_ii - A_if A_ff^-1 A_fi and
    shape = s_i + (n - 1 - m) / 2 with s_i = psi_i / 2 (0 under "noninfo").
    """
    n, k = data.shape
    centred = data - data.mean(axis=0)
    A = centred.T @ centred
    s = np.zeros(k)
    if prior.regime == "wishart":
        A, s = A + prior.Psi, prior.psi / 2.0
    rows = []
    for i in range(k):
        f = graph.forward_neighbors(i)
        a_ff, a_fi = A[np.ix_(f, f)], A[f, i]
        rss = A[i, i] - a_fi @ np.linalg.solve(a_ff, a_fi) if f else A[i, i]
        rows.append((f, a_ff, a_fi, rss, s[i] + 0.5 * (n - 1 - len(f))))
    return rows


def flat_mu_log_evidence(data, graph, prior):
    """Exact log marginal likelihood of the Gaussian baseline under "noninfo" or "wishart".

    The convention: Lebesgue measure on mu and on the free entries of L, and
    the prior's stated density on omega^2, unnormalised: prod_i omega_i^-2
    ("noninfo"), or prod_i (omega_i^2)^(psi_i/2 - 1) exp(-omega_i^2 L_i Psi L_i' / 2)
    ("wishart"). Integrating nu_i = L_i mu, then L_i,f, then omega_i^2 out of
    row i gives
    -(n - 1 - m)/2 log 2 pi - log(n)/2 - log det(A_ff)/2 + log Gamma(a) - a log(rss/2).
    """
    n = data.shape[0]
    total = 0.0
    for f, a_ff, _, rss, shape in _flat_mu_rows(data, graph, prior):
        logdet = np.linalg.slogdet(a_ff)[1] if f else 0.0
        total += (-0.5 * (n - 1 - len(f)) * np.log(2.0 * np.pi) - 0.5 * np.log(n) - 0.5 * logdet
                  + gammaln(shape) - shape * np.log(0.5 * rss))
    return total


def flat_mu_log_posterior(mu, omega2, L, data, graph, prior):
    """Log posterior density of the Gaussian baseline at (mu, omega^2, L) under "noninfo" or "wishart".

    The product over the rows of the densities of omega_i^2 ~ G(a, rss/2),
    L_i,f | omega_i^2 ~ N(-A_ff^-1 A_fi, (omega_i^2 A_ff)^-1) and
    nu_i = L_i mu ~ N(L_i xbar, 1/(n omega_i^2)); the map from mu to nu has unit
    Jacobian, so this is also the density in (mu, omega^2, L).
    """
    n = data.shape[0]
    xbar = data.mean(axis=0)
    total = 0.0
    for i, (f, a_ff, a_fi, rss, shape) in enumerate(_flat_mu_rows(data, graph, prior)):
        w, rate = omega2[i], 0.5 * rss
        total += shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * np.log(w) - rate * w
        if f:
            dev = L[i, f] + np.linalg.solve(a_ff, a_fi)
            total += (0.5 * len(f) * np.log(w / (2.0 * np.pi)) + 0.5 * np.linalg.slogdet(a_ff)[1]
                      - 0.5 * w * dev @ a_ff @ dev)
        total += 0.5 * np.log(n * w / (2.0 * np.pi)) - 0.5 * n * w * (L[i] @ (mu - xbar)) ** 2
    return total


def trace_text(trace):
    """The text of a trace file: the meta record, then `json.dumps(record, sort_keys=True)` per draw."""
    lines = [json.dumps({"type": "meta", **trace.meta}, sort_keys=True)]
    for s in range(len(trace)):
        rec = {name: getattr(trace, name)[s].tolist() for name in ("mu", "delta", "omega2", "L", "loglik")}
        lines.append(json.dumps({"type": "draw", **rec}, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def effective_sample_size(x):
    """Geyer's initial-positive-sequence ESS from the autocorrelation at all 2n - 1 lags."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 4:
        return float(n)
    e = np.frexp(np.abs(x).max(axis=0))[1]
    x = np.ldexp(x, -e)
    var = x.var()
    if var == 0:
        return float(n)
    xc = x - x.mean()
    acf = np.correlate(xc, xc, mode="full")[n - 1 :] / (var * n)
    total = 0.0
    t = 1
    while t + 1 < n:
        pair = acf[t] + acf[t + 1]
        if pair <= 0:
            break
        total += pair
        t += 2
    return float(min(n, n / (1.0 + 2.0 * total)))
