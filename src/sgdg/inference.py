"""Prior regimes, propriety gates, and the block Gibbs sampler.

The sampler works in the hierarchical form

    X_j | U_j ~ N_k(mu + L^-1 D_delta U_j, (L' D_omega L)^-1),
    U_j ~ HN_k(0, I_k),

with parameters (mu, delta, omega^2, L) and data augmentation U. Writing
Y_j = L (X_j - mu), the exponent separates coordinate-wise as
sum_i omega_i^2 (Y_ji - delta_i u_ji)^2, which is what every full
conditional below is derived from. All conditionals are validated against
the unnormalized joint by slice-ratio identities in the test suite.

Gamma draws use the shape-rate convention throughout: G(a, b) has mean a/b.
"""

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg  # the LAPACK gufuncs behind np.linalg.cholesky and np.linalg.solve

from . import model as _model
from .csn import sample_truncated_normal
from .graph import Graph, NotDecomposable, verify_ordering
from .linalg import modified_cholesky

SWEEP_ORDER = ("u", "mu", "omega2", "L")  # the "mu" block draws (mu, delta)
FLAT_MU_REGIMES = ("noninfo", "wishart")  # the Gaussian baseline's posterior is conjugate under these
TRACE_SCHEMA = 1  # the version of the trace file format that `run_chain` writes
SAVE_BLOCK_VALUES = 1 << 16  # `Trace.save` formats the draws this many values at a time
# `gibbs_sweep` forms the skew model's omega^2 sums as a difference of k-vectors, a positive
# part less 2 delta o (tc + s o L d), whose rounding error is a few ulp of the positive part.
# Where a sum is at most this share of its positive part (more than six digits lost, a
# relative error of up to about 1e-9), the sweep sums the n residuals instead.
OMEGA2_GUARD = 1e-6


class ProprietyViolation(ValueError):
    """Raised when an improper-prior posterior would not integrate."""


class NumericalFailure(RuntimeError):
    """Raised when a Gibbs block's conditional, or an exact draw, leaves its domain.

    The message names the sweep, the block and, in the L block, the row; or
    the exact draw and its row.
    """


class DimensionMismatch(ValueError):
    """Raised when data, graph, or prior dimensions disagree."""


class EmptyTrace(ValueError):
    """Raised when a summary is requested from a trace with no draws."""


class InvalidChainSettings(ValueError):
    """Raised when iters, burn_in and thin retain no draws or more than memory holds, or seed is negative."""


# ---------------------------------------------------------------------------
# prior regimes


def _check_positive_finite(prior, names):
    """Refuse a hyperparameter that is not a positive float: an infinite b1, b2 or b5 makes its
    normal prior flat, and an infinite b3 or b4 leaves no gamma law."""
    for name in names:
        if not 0 < getattr(prior, name) < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class IndependentProperPrior:
    """Proper normal/gamma/normal priors on mu, omega^2 and the rows of L."""

    b1: float
    mu0: np.ndarray
    b2: float
    b3: float
    b4: float
    b5: float
    regime = "proper"

    def __post_init__(self):
        _check_positive_finite(self, ("b1", "b2", "b3", "b4", "b5"))
        for name in ("b2", "b5"):  # the prior precisions of mu and of L are their reciprocals
            if not np.isfinite(1.0 / getattr(self, name)):
                raise ValueError(f"{name} is so small that 1/{name} overflows")
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=float))
        if not np.all(np.isfinite(self.mu0)):
            raise ValueError("mu0 must be finite")


@dataclass(frozen=True)
class PatternWishartPrior:
    """Pattern-Wishart measure on (L, D_omega) with flat prior on mu.

    Density proportional to
    prod_i (omega_i^2)^(psi_i/2 - 1) exp(-tr((L' D_omega L) Psi) / 2);
    normalizable iff psi_i > ||forward neighbors of i|| for every i.
    """

    b1: float
    Psi: np.ndarray
    psi: np.ndarray
    regime = "wishart"

    def __post_init__(self):
        _check_positive_finite(self, ("b1",))
        Psi = np.asarray(self.Psi, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if Psi.ndim != 2 or Psi.shape[0] != Psi.shape[1]:
            raise ValueError("Psi must be square")
        if not np.all(np.isfinite(Psi)):
            raise ValueError("Psi must be finite")
        if not np.allclose(Psi, Psi.T, atol=1e-10 * max(1.0, np.abs(Psi).max())):
            raise ValueError("Psi must be symmetric")
        if np.any(np.linalg.eigvalsh(Psi) <= 0):
            raise ValueError("Psi must be positive definite")
        if psi.shape != (Psi.shape[0],) or not np.all((psi > 0) & (psi < np.inf)):
            raise ValueError("psi must be a positive finite vector matching Psi")
        object.__setattr__(self, "Psi", Psi)
        object.__setattr__(self, "psi", psi)


@dataclass(frozen=True)
class NoninformativePrior:
    """Flat prior on mu and L with prod_i omega_i^-2 on the precisions."""

    b1: float
    regime = "noninfo"

    def __post_init__(self):
        _check_positive_finite(self, ("b1",))


# the prior regimes by name; a regime's hyperparameters are the fields of its class
PRIORS = {cls.regime: cls for cls in (IndependentProperPrior, PatternWishartPrior, NoninformativePrior)}


def prior_to_dict(prior):
    return {"regime": prior.regime, **{f.name: np.asarray(getattr(prior, f.name)).tolist() for f in fields(prior)}}


# ---------------------------------------------------------------------------
# propriety gates


def min_n_noninformative(g):
    """Smallest sample size with a proper posterior under the noninformative prior.

    The bound is n >= max_i ||N(i)|| + 2 over the forward-neighbor counts
    ||N(i)|| of g's labels.
    """
    return max(g.forward_degree(i) for i in range(g.k)) + 2


def _scaled_by_power_of_two(x):
    """(x 2^-e, e) with e such that each column of x 2^-e has its largest magnitude in [1/2, 1).

    The scaling is exact, so statistics that scale with x come out as on x
    itself, but no square of an entry can overflow. A 1-d x is one column.
    """
    e = np.frexp(np.abs(x).max(axis=0))[1]
    return np.ldexp(x, -e), e


def _general_position_failure(data, g):
    """Why the n x k data are not in general position on g, or None if they are.

    Clique i is vertex i with its forward neighbors. Its centred columns,
    each scaled to unit norm so that the test does not depend on the units of
    the data, must have full column rank, where a singular value at or below
    eps * n counts as zero. The columns are scaled by powers of two first,
    which leaves every verdict as on the raw data but keeps the norms finite.
    """
    n = data.shape[0]
    eps_n = np.finfo(float).eps * n
    data, _ = _scaled_by_power_of_two(data)
    centred = data - data.mean(axis=0)
    constant = np.flatnonzero(
        np.linalg.norm(centred, axis=0) <= eps_n * np.abs(data).max(axis=0)) + 1
    if constant.size:
        return f"column(s) {constant.tolist()} are constant"
    deficient = []
    for i in range(g.k):
        clique = [i] + g.forward_neighbors(i)
        if len(clique) > 1:
            cols = centred[:, clique]
            if np.linalg.svd(cols / np.linalg.norm(cols, axis=0), compute_uv=False)[-1] <= eps_n:
                deficient.append([v + 1 for v in clique])
    if deficient:
        return f"the centred columns of clique(s) {deficient} are rank-deficient"
    return None


def check_propriety(prior, data, g):
    """Posterior-existence gate for the improper prior regimes, on the n x k data.

    Raises ProprietyViolation, with every failed condition in its message.
    Noninformative: needs n >= `min_n_noninformative(g)` and data in general
    position: the centred columns of each clique (vertex i with its forward
    neighbors) have full column rank to working precision.
    Pattern-Wishart: needs psi_i > ||N(i)|| strictly for every i.
    Independent proper priors always pass. A psi of other than k entries, or
    a mu0 that is neither a scalar nor of k entries, raises DimensionMismatch.
    """
    msgs = []
    fwd = [g.forward_degree(i) for i in range(g.k)]
    if prior.regime == "noninfo":
        n = data.shape[0]
        need = min_n_noninformative(g)
        if n < need:
            msgs.append(
                f"noninformative prior requires n >= max forward degree + 2 = {need}, got n = {n}"
            )
        elif (why := _general_position_failure(data, g)) is not None:
            msgs.append(f"noninformative prior requires data in general position, but {why}")
    elif prior.regime == "wishart":
        if prior.psi.shape != (g.k,):
            raise DimensionMismatch("psi length must equal the vertex count")
        for i in range(g.k):
            if not prior.psi[i] > fwd[i]:
                msgs.append(
                    f"pattern-Wishart prior requires psi_{i + 1} > {fwd[i]} "
                    f"(forward degree), got {prior.psi[i]}"
                )
    elif prior.regime == "proper" and prior.mu0.shape not in ((), (g.k,)):
        raise DimensionMismatch("mu0 must be a scalar or have one entry per vertex")
    if msgs:
        raise ProprietyViolation("; ".join(msgs))


# ---------------------------------------------------------------------------
# resolved hyperparameters (one column of the regime table)


@dataclass(frozen=True)
class ResolvedHyperparams:
    """Values (b1, v_mu, mu0, s_omega, r_omega, V_L, Psi) of the active regime, fixed for a chain.

    b1 scales the prior of the skew loadings, delta_i | omega_i^2 ~
    N(0, b1 / omega_i^2), in every regime. V_L is the k x k prior precision
    shared by every row of L; `l_row_groups` takes its slices on the rows'
    forward-neighbor supports once per chain, as it takes Psi's. Psi is the
    pattern-Wishart matrix, zero in the other regimes: the conditionals form
    its state terms themselves, L_i Psi L_i' / 2 in the omega_i^2 rate (under
    the "wishart" `regime` only, as it is zero elsewhere) and omega_i^2 Psi in
    the prior precision of row i of L.
    """

    regime: str
    b1: float
    v_mu: float
    mu0: np.ndarray
    s_omega: np.ndarray
    r_omega: np.ndarray
    V_L: np.ndarray
    Psi: np.ndarray


def resolve_hyperparams(prior, k):
    """The regime's table: all zero (noninformative), with the proper and Wishart fields set."""
    zero = np.zeros((k, k))
    flat = ResolvedHyperparams(
        regime=prior.regime, b1=prior.b1, v_mu=0.0, mu0=np.zeros(k), s_omega=np.zeros(k), r_omega=np.zeros(k),
        V_L=zero, Psi=zero,
    )
    if prior.regime == "proper":
        return replace(
            flat,
            v_mu=1.0 / prior.b2,
            mu0=prior.mu0,
            s_omega=np.full(k, prior.b3),
            r_omega=np.full(k, prior.b4),
            V_L=(1.0 / prior.b5) * np.eye(k),
        )
    if prior.regime == "wishart":
        return replace(flat, s_omega=prior.psi / 2.0, Psi=prior.Psi)
    return flat


# ---------------------------------------------------------------------------
# Gibbs state and full conditionals


@dataclass
class GibbsState:
    """The sampler's state: the parameters. A sweep draws the latent block u afresh before any block reads it."""

    mu: np.ndarray
    delta: np.ndarray
    omega2: np.ndarray
    L: np.ndarray


@dataclass(frozen=True)
class DataStats:
    """What a chain reads of the n x k data X, formed once per chain.

    `total` and `xbar` are the column sums and means. `xbar_lo` is the mean
    of X - xbar, the part of the mean that xbar rounds off, and `xc` is
    X - xbar - xbar_lo: centred data whose columns sum to zero to working
    precision, however far xbar is from zero. r is a factor of their scatter
    matrix, r'r = xc' xc, from the QR decomposition of xc (r has min(n, k)
    rows), and `scatter` is r'r. Every view of X - mu is xc + `offset(mu)`,
    the corrected two-pass rule of Chan, Golub & LeVeque (1983). Data whose
    scatter matrix overflows are refused (`NumericalFailure`).
    """

    n: int
    total: np.ndarray
    xbar: np.ndarray
    r: np.ndarray
    scatter: np.ndarray
    xbar_lo: np.ndarray
    xc: np.ndarray

    @classmethod
    def of(cls, data):
        n = data.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            total = data.sum(axis=0)
            xc = data - total / n
            xbar_lo = xc.mean(axis=0)
            xc -= xbar_lo
            r = np.linalg.qr(xc, mode="r")
            scatter = r.T @ r
        if not np.isfinite(scatter).all():
            raise NumericalFailure("data: the scatter matrix of the data is not finite")
        return cls(n, total, total / n, r, scatter, xbar_lo, xc)

    def offset(self, mu):
        """d = (xbar - mu) + xbar_lo, the mean of X - mu, so that X - mu = xc + d.

        xbar_lo is added last: added to xbar or subtracted from mu first, it
        would round away wherever |xbar| or |mu| is much larger than it.
        """
        return (self.xbar - mu) + self.xbar_lo

    def gram(self, d):
        """(X - mu)'(X - mu) = r'r + n d d' at the offset d = `offset(mu)`."""
        return self.scatter + self.n * (d[:, np.newaxis] * d)

    def sum_sq(self, d, L):
        """For each i the sum over the rows x of (L_i (x - mu))^2, ||r L_i'||^2 + n (L_i d)^2, at d = `offset(mu)`."""
        return ((self.r @ L.T) ** 2).sum(axis=0) + self.n * (L @ d) ** 2


def u_conditional_params(state, y):
    """Truncated-normal mean (n, k) and variance (k,) from the centred rows y = (X - mu) L'."""
    w = state.omega2 * state.delta
    var = 1.0 / (1.0 + w * state.delta)
    mean = y * (w * var)
    return mean, var


def gibbs_update_u(state, y, rng):
    mean, var = u_conditional_params(state, y)
    return sample_truncated_normal(mean, var, 0.0, rng)


def mu_conditional_params(state, stats, resolved, latent):
    """h and prec of N(prec^-1 h, prec^-1), the law of mu with delta integrated out.

    `latent` = (s, q, t) = (sum(u), sum(u o u) + 1 / b1, sum(u o L x)) over the rows, with
    which delta | mu ~ N((t - s o L mu) / q, 1 / (omega^2 o q)). Then prec =
    L' diag(omega^2 o (n - s o s / q)) L + v_mu I, each n - s_i^2 / q_i > 0 by Cauchy-Schwarz,
    and h = (Omega L)' (L sum(x) - s o t / q) + v_mu mu0. None stands for delta = 0, the
    Gaussian baseline: n - s o s / q and s o t / q become n and 0.
    """
    wl = state.omega2[:, np.newaxis] * state.L
    lx = state.L @ stats.total
    if latent is None:
        prec = stats.n * (state.L.T @ wl)
    else:
        s, q, t = latent
        sq = s / q
        prec = state.L.T @ ((stats.n - s * sq)[:, np.newaxis] * wl)
        lx = lx - sq * t
    prec.flat[:: prec.shape[0] + 1] += resolved.v_mu  # + v_mu I
    return wl.T @ lx + resolved.v_mu * resolved.mu0, prec


def gibbs_update_mu(state, stats, resolved, latent, rng):
    """Draw mu with delta integrated out: with `gibbs_update_delta` after it, one exact draw of (mu, delta)."""
    h, prec = mu_conditional_params(state, stats, resolved, latent)
    try:
        return _gaussian_draw(prec, h, rng.standard_normal(h.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("mu block: conditional precision is not positive definite "
                               f"(smallest eigenvalue {np.linalg.eigvalsh(prec)[0]:.6g})") from exc


def gibbs_update_delta(state, latent, rng):
    """Draw delta | mu, the second half of the (mu, delta) block; its scale 1 / sqrt(omega^2) / sqrt(q) cannot overflow."""
    s, q, t = latent
    z = rng.standard_normal(q.shape[0])
    return (t - s * (state.L @ state.mu)) / q + z / np.sqrt(state.omega2) / np.sqrt(q)


def _gaussian_draw(prec, h, z):
    """One draw from N(prec^-1 h, prec^-1) for each matrix of a stack, from standard normals z.

    With r r' = prec, prec^-1 (h + r z) = prec^-1 h + r'^-1 z has covariance
    prec^-1: one Cholesky factorization and one solve. 1 x 1 precisions p take
    the closed form h / p + z / sqrt(p). Stacked LAPACK calls, and r z summed
    along the last axis, give each matrix the result of a call of its own.

    The factorization and the solve call the LAPACK gufuncs that
    np.linalg.cholesky and np.linalg.solve wrap, `cholesky_lo` and `solve1`,
    which give the same bits without the wrappers' per-call argument checks and
    errstate set-up. A singular or indefinite precision raises
    np.linalg.LinAlgError wherever numpy's invalid-value flag raises: under
    `run_chain`'s errstate, or where RuntimeWarning is an error. Under a state
    that only warns or ignores it, a failing matrix's draw is NaN.
    """
    if prec.shape[-1] == 1:
        p = prec[..., 0]
        if not (p > 0).all():
            raise np.linalg.LinAlgError("1 x 1 precision is not positive")
        return h / p + z / np.sqrt(p)
    try:
        r = _umath_linalg.cholesky_lo(prec)
    except (FloatingPointError, RuntimeWarning) as exc:  # LAPACK's failure sets the invalid flag
        raise np.linalg.LinAlgError("precision is not positive definite") from exc
    b = h + (r * z[..., np.newaxis, :]).sum(axis=-1)
    try:
        return _umath_linalg.solve1(prec, b)
    except (FloatingPointError, RuntimeWarning) as exc:
        raise np.linalg.LinAlgError("precision is singular") from exc


def omega2_conditional_params(state, sum_sq, count, resolved):
    """Gamma shape and rate vectors for the precision-scale block.

    sum_sq[i] is a sum of `count` squared residuals of coordinate i, each
    weighted by omega_i^2 in the joint: shape s_omega + count / 2 and rate
    r_omega + sum_sq / 2, plus the pattern-Wishart term L_i Psi L_i' / 2.
    """
    rate = resolved.r_omega
    if resolved.regime == "wishart":
        rate = rate + 0.5 * np.einsum("ij,jk,ik->i", state.L, resolved.Psi, state.L)
    return resolved.s_omega + 0.5 * count, rate + 0.5 * sum_sq


def gibbs_update_omega2(state, sum_sq, count, resolved, rng):
    """Draw omega^2: standard_gamma(shape) * (1 / rate), numpy's own arithmetic for gamma(shape, 1 / rate)."""
    shape, rate = omega2_conditional_params(state, sum_sq, count, resolved)
    draw = rng.standard_gamma(shape) * (1.0 / rate)
    if not ((draw > 0).all() and np.isfinite(draw).all()):
        if resolved.regime == "wishart" and not np.isfinite(rate).all():  # einsum overflows without an error
            rows = (np.flatnonzero(~np.isfinite(rate)) + 1).tolist()
            raise NumericalFailure(f"omega2 block: floating-point overflow in L_i Psi L_i' of row(s) {rows}")
        raise NumericalFailure("omega2 block: draw left the positive domain")
    return draw


@dataclass(frozen=True)
class LRowGroup:
    """The rows of L with the same number m of free entries, fixed for a chain.

    Row rows[g] has its free entries at the columns fwd[g], its forward
    neighbours. `block` indexes, for every row at once, the (m, m + 1) slice
    of a k x k matrix on the rows fwd[g] and the columns fwd[g] + [rows[g]]:
    the row's precision and zeta. `slots` places each free entry's standard
    normal in the one draw per sweep, which is taken in row order. `prior` is
    the regime's prior matrix on `block`: V_L under "proper", Psi under
    "wishart" and None under "noninfo", which has none.
    """

    rows: np.ndarray  # (G,)
    fwd: np.ndarray  # (G, m)
    block: tuple  # two index arrays broadcasting to (G, m, m + 1)
    slots: np.ndarray  # (G, m)
    prior: np.ndarray  # (G, m, m + 1) or None


def l_row_groups(graph, resolved):
    """The rows of L with free entries, grouped by forward degree (ascending), with `resolved`'s prior slices."""
    prior = {"proper": resolved.V_L, "wishart": resolved.Psi}.get(resolved.regime)
    fwd = [graph.forward_neighbors(i) for i in range(graph.k)]
    starts = np.cumsum([0] + [len(f) for f in fwd])
    groups = []
    for m in sorted({len(f) for f in fwd} - {0}):
        rows = np.array([i for i in range(graph.k) if len(fwd[i]) == m])
        cols = np.array([fwd[i] + [i] for i in rows])  # (G, m + 1): fwd, then the row
        block = (cols[:, :-1, np.newaxis], cols[:, np.newaxis, :])
        slots = starts[rows][:, np.newaxis] + np.arange(m)
        groups.append(LRowGroup(rows, cols[:, :-1], block, slots, None if prior is None else prior[block]))
    return tuple(groups)


def l_row_conditional_params(state, gram, cross, resolved, group):
    """Precision-weighted means h (G, m) and precisions (G, m, m) of a row group's free entries.

    Row i's free entries L[i, fwd] are N(prec^-1 h, prec^-1). With y0 = X - mu,
    gram = y0' y0 (`DataStats.gram`) and cross = u' y0: moments enter centred at the current
    mean; the uncentred version does not leave the joint distribution
    invariant. No row's conditional reads L, so one gram and one cross serve
    every row. Of the matrix omega_i^2 gram + V_L + omega_i^2 Psi only the
    rows `fwd` and the columns `fwd` and i are formed: the precision and zeta.
    The group's `prior` slice is the one prior term the regime has (V_L under
    "proper", Psi under "wishart"). A cross of None stands for delta = 0,
    which leaves h = -zeta.
    """
    w = state.omega2[group.rows]
    wb = w[:, np.newaxis, np.newaxis]
    s = wb * gram[group.block]
    if resolved.regime == "proper":
        s += group.prior
    elif resolved.regime == "wishart":
        s += wb * group.prior
    prec, zeta = s[..., :-1], s[..., -1]
    if cross is None:
        return -zeta, prec
    m_vec = cross[group.rows[:, np.newaxis], group.fwd]
    h = (w * state.delta[group.rows])[:, np.newaxis] * m_vec - zeta
    return h, prec


def _raise_first_failing_row(where, group, draw, precision, exc):
    """Error path only: raise a NumericalFailure naming the first row of `group` whose own draw fails.

    `draw(one)` repeats the failed work for a one-row group and `precision(one)`
    is that row's (1, m, m) precision. A singular or indefinite precision and
    a floating-point error each name the row; if no row fails alone, `exc` is
    raised again.
    """
    for g, row in enumerate(group.rows):
        one = LRowGroup(group.rows[g : g + 1], group.fwd[g : g + 1], tuple(ix[g : g + 1] for ix in group.block),
                        group.slots[g : g + 1], None if group.prior is None else group.prior[g : g + 1])
        try:
            draw(one)
        except np.linalg.LinAlgError:
            raise NumericalFailure(
                f"{where}, row {row + 1}: conditional precision is not positive definite "
                f"(smallest eigenvalue {np.linalg.eigvalsh(precision(one)[0])[0]:.6g})"
            ) from exc
        except FloatingPointError as row_exc:
            raise NumericalFailure(f"{where}, row {row + 1}: floating-point {row_exc}") from exc
    raise exc


def gibbs_update_L(state, gram, cross, groups, resolved, rng):
    """Draw every free entry of L from its row conditional, one group of rows at a time.

    gram = y0' y0 and cross = u' y0 (None when delta = 0) with y0 = X - mu, as
    for `l_row_conditional_params`. The draws equal those of a row-by-row
    update in row order with the same generator: one standard-normal call
    yields the numbers of the per-row calls.
    """
    new_l = state.L.copy()
    z = rng.standard_normal(sum(g.slots.size for g in groups))

    def draw(group):
        h, prec = l_row_conditional_params(state, gram, cross, resolved, group)
        return _gaussian_draw(prec, h, z[group.slots])

    for group in groups:
        try:
            new_l[group.rows[:, np.newaxis], group.fwd] = draw(group)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            _raise_first_failing_row(
                "L block", group, draw, lambda one: l_row_conditional_params(state, gram, cross, resolved, one)[1],
                exc)
    return new_l


def flat_mu_baseline_draws(stats, groups, resolved, draws, rng):
    """`draws` i.i.d. draws from the Gaussian baseline's posterior under a flat prior on mu.

    Returns the draws of mu and omega^2 (draws, k), of the free entries of L
    in the order of the groups' slots, which is the graph's sorted edges, and
    their log likelihoods (draws,). `stats`, `groups` and `resolved` are as
    for `gibbs_sweep`; `resolved` must be that of "noninfo" or "wishart".

    With nu = L mu, a map of unit Jacobian for a fixed L, row i of L (x - mu)
    is a regression of x_i on its m forward neighbours x_f, with intercept
    nu_i, coefficients -L_i,f and precision omega_i^2, to which both flat-mu
    priors are conjugate (Roverato 2000; Dawid & Lauritzen 1993). With
    A = scatter + Psi, the rows are independent a posteriori:

        omega_i^2 ~ G(s_omega_i + (n - 1 - m) / 2, rss_i / 2), rss_i = A_ii - A_if A_ff^-1 A_fi,
        L_i,f | omega_i^2 ~ N(-A_ff^-1 A_fi, (omega_i^2 A_ff)^-1),
        nu_i | L_i, omega_i^2 ~ N(L_i xbar, 1 / (n omega_i^2)),

    and mu = L^-1 nu by back substitution. The rows are drawn one group of
    equal forward degree at a time, vectorised over the draws. rss_i is
    formed at the fitted row l = (1, -A_ff^-1 A_fi) as ||r l'||^2 + l Psi l',
    a sum of squares that keeps its accuracy when x_i is nearly collinear with
    x_f. The log likelihood is `_observed_loglik`'s closed form, with
    L_i (xbar - mu) = L_i xbar - nu_i and ||r L_i'||^2 expanded about the
    fitted row. A failure names its row.
    """
    n, k = stats.n, stats.xbar.shape[0]
    A = stats.scatter + resolved.Psi
    degree = np.zeros(k)
    for group in groups:
        degree[group.rows] = group.fwd.shape[1]
    gamma = rng.standard_gamma(resolved.s_omega + 0.5 * (n - 1 - degree), size=(draws, k))
    z = rng.standard_normal((draws, sum(g.slots.size for g in groups)))
    e = rng.standard_normal((draws, k))

    def draw(group):
        """omega^2, L_i,f, nu and the log-likelihood term of each row of the group, per draw."""
        rows, fwd, block = group.rows, group.fwd, group.block
        s = A[block]
        prec, zeta = s[..., :-1], s[..., -1]
        fit = _gaussian_draw(prec, -zeta, np.zeros_like(zeta))  # -A_ff^-1 A_fi
        r_fwd = stats.r[:, fwd]
        resid = stats.r[:, rows] + np.einsum("pgm,gm->pg", r_fwd, fit)  # r l' at the fitted row
        fit_sq = (resid**2).sum(axis=0)
        psi = resolved.Psi[block]
        rss = (fit_sq + resolved.Psi[rows, rows] + 2.0 * (fit * psi[..., -1]).sum(axis=-1)
               + np.einsum("gm,gmn,gn->g", fit, psi[..., :-1], fit))
        omega2 = gamma[:, rows] * (2.0 / rss)
        coef = _gaussian_draw(prec, -zeta, z[:, group.slots] / np.sqrt(omega2)[..., np.newaxis])
        nu_resid = e[:, rows] / np.sqrt(n * omega2)
        dev = coef - fit
        sum_sq = (fit_sq + 2.0 * (dev * np.einsum("pgm,pg->gm", r_fwd, resid)).sum(axis=-1)
                  + np.einsum("dgm,gmn,dgn->dg", dev, stats.scatter[block][..., :-1], dev) + n * nu_resid**2)
        nu = stats.xbar[rows] + (coef * stats.xbar[fwd]).sum(axis=-1) + nu_resid
        return omega2, coef, nu, 0.5 * n * np.log(omega2) - 0.5 * omega2 * sum_sq

    cols0 = np.flatnonzero(degree == 0)[:, np.newaxis]  # the rows with no free entry, as a group of degree 0
    no_fwd = LRowGroup(cols0[:, 0], cols0[:, :0], (cols0[:, :0, np.newaxis], cols0[:, np.newaxis, :]),
                       cols0[:, :0], None)
    mu, omega2 = np.empty((draws, k)), np.empty((draws, k))
    L, loglik = np.empty(z.shape), np.full(draws, -0.5 * n * k * np.log(2.0 * np.pi))
    for group in (no_fwd, *groups):
        try:
            omega2[:, group.rows], L[:, group.slots], mu[:, group.rows], term = draw(group)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            _raise_first_failing_row("exact draw", group, draw, lambda one: A[one.block][..., :-1], exc)
        loglik += term.sum(axis=-1)
    # mu = L^-1 nu: back substitution in descending row order, so a row's forward neighbours are final
    free = {row: (slots, fwd) for group in groups for row, slots, fwd in zip(group.rows, group.slots, group.fwd)}
    try:
        for row in sorted(free, reverse=True):
            slots, fwd = free[row]
            mu[:, row] -= (L[:, slots] * mu[:, fwd]).sum(axis=-1)
    except FloatingPointError as exc:
        raise NumericalFailure(f"exact draw, row {row + 1}: floating-point {exc}") from exc
    return mu, omega2, L, loglik


def gibbs_sweep(state, stats, groups, resolved, rng, fix_delta_zero=False):
    """One full sweep in the fixed order u, (mu, delta), omega^2, L rows; returns its u (None for the baseline).

    `stats` are the data's `DataStats`, the sweep's only view of the data,
    `groups` the row groups of L from `l_row_groups` and `resolved` the
    prior's table from `resolve_hyperparams`; all three hold for the whole
    chain. The blocks are formulas over the inputs formed here, and only here
    does the model show:

    - skew: the u block reads the centred rows y = (xc + d) L', with
      d = `DataStats.offset(mu)`, so that y = (X - mu) L'. After it the sweep
      reads only s = sum(u), q = sum(u o u) + 1 / b1, the k x k product
      M = u' xc of `DataStats.xc`, about u'(X - xbar), and `stats`. The mu
      block reads s, q and t = tc + s o L xbar with tc_i = sum_j M_ij L_ij,
      so that t = sum(u o L x). The omega^2 block reads the sums of the n
      squared residuals L (x - mu') - u o delta' at the new (mu', delta'),
      with the delta prior's delta'^2 / b1 as one more. With
      d' = `DataStats.offset(mu')` they are `DataStats.sum_sq` +
      delta'^2 o q - 2 delta' o (tc + s o L d'). Where that difference keeps
      no more than `OMEGA2_GUARD` of its positive part, the sweep sums the n
      residuals y + L (mu - mu') - u o delta' instead. The L rows read the
      cross moment u'(X - mu') = M + s d'.
    - Gaussian baseline (`fix_delta_zero`; `run_chain` sweeps it under
      "proper" only, as it draws exactly under the flat-mu priors): with
      delta = 0 every u term is zero, so it draws no u, the mu block takes no
      sums and no delta is drawn, the omega^2 block reads the n residuals
      through `DataStats.sum_sq` and the L rows no cross moment. It never
      touches an n x k array.

    A `FloatingPointError` (raised under `run_chain`'s `np.errstate`) becomes
    a `NumericalFailure` that names the block and, in the L block, the row.
    A caller outside `run_chain` must run the sweep under
    `np.errstate(over="raise", divide="raise", invalid="raise")` as
    `run_chain` does: in numpy's default state a Gaussian draw from a
    precision that is not positive definite comes back as NaN, not as an error.
    """
    block, u = "u", None
    try:
        if fix_delta_zero:
            block = "mu"
            state.mu = gibbs_update_mu(state, stats, resolved, None, rng)
            block = "omega2"
            d = stats.offset(state.mu)
            sum_sq, count, cross = stats.sum_sq(d, state.L), stats.n, None
        else:
            L, mu = state.L, state.mu
            y = (stats.xc + stats.offset(mu)) @ L.T
            u = gibbs_update_u(state, y, rng)
            block = "mu"
            s, uxc = u.sum(axis=0), u.T @ stats.xc
            tc = (uxc * L).sum(axis=1)  # sum(u o L xc)
            q = np.einsum("ij,ij->j", u, u) + 1.0 / resolved.b1
            latent = (s, q, tc + s * (L @ stats.xbar))
            state.mu = gibbs_update_mu(state, stats, resolved, latent, rng)
            delta = state.delta = gibbs_update_delta(state, latent, rng)
            block = "omega2"
            d = stats.offset(state.mu)
            positive = stats.sum_sq(d, L) + delta**2 * q
            sum_sq = positive - 2.0 * delta * (tc + s * (L @ d))
            if np.count_nonzero(sum_sq <= OMEGA2_GUARD * positive):  # cancelled: the n residuals
                resid = y + L @ (mu - state.mu) - u * delta  # (X - mu) L' - u o delta at the new mu
                sum_sq = (resid**2).sum(axis=0) + delta**2 / resolved.b1
            count, cross = stats.n + 1, uxc + s[:, np.newaxis] * d
        state.omega2 = gibbs_update_omega2(state, sum_sq, count, resolved, rng)
        block = "L"
        state.L = gibbs_update_L(state, stats.gram(d), cross, groups, resolved, rng)
    except FloatingPointError as exc:
        raise NumericalFailure(f"{block} block: floating-point {exc}") from exc
    return u


# ---------------------------------------------------------------------------
# chain execution


@dataclass
class Trace:
    """Retained draws (stacked per parameter block) plus per-draw log likelihood.

    `l_matrix` and `edge_values` convert between rows of `L` and a dense L.
    """

    mu: np.ndarray
    delta: np.ndarray
    omega2: np.ndarray
    L: np.ndarray  # (draws, edges) aligned with meta["edge_order"]
    loglik: np.ndarray
    meta: dict = field(default_factory=dict)

    DRAW_FIELDS = ("mu", "delta", "omega2", "L", "loglik")  # the arrays a draw record holds

    def __len__(self):
        return self.loglik.shape[0]

    @property
    def graph(self):
        return Graph.from_json_dict(self.meta["graph"])

    @cached_property
    def _edge_index(self):
        edges = np.asarray(self.meta["edge_order"], dtype=int).reshape(-1, 2) - 1
        return edges[:, 0], edges[:, 1]

    def l_matrix(self, values):
        """Dense unit upper-triangular L whose free entries are `values`."""
        L = np.eye(self.meta["k"])
        L[self._edge_index] = values
        return L

    def edge_values(self, L):
        """The free entries of a dense L, in edge order."""
        return L[self._edge_index]

    def _draw_lines(self):
        """The draw records, each the line `json.dumps(record, sort_keys=True)` writes.

        json.dumps of a record of `%s` slots gives one template, which each row of
        the draws, stacked in the same sorted field order, fills. For a finite
        float `%s` writes `float.__repr__`, as json does; a row that holds a
        non-finite value is filled with json's tokens (`NaN`, `Infinity`). Rows
        are stacked and formatted about `SAVE_BLOCK_VALUES` values at a time, so
        memory does not grow with the trace's length.
        """
        names = sorted(self.DRAW_FIELDS)
        arrays = [getattr(self, name) for name in names]
        slots = {name: "%s" if a.ndim == 1 else ["%s"] * a.shape[1] for name, a in zip(names, arrays)}
        template = json.dumps({"type": "draw", **slots}, sort_keys=True).replace('"%s"', "%s") + "\n"
        block = max(1, SAVE_BLOCK_VALUES // template.count("%s"))
        for start in range(0, len(self), block):
            stacked = np.column_stack([a[start : start + block] for a in arrays])
            rows = stacked.tolist()
            for s in np.flatnonzero(~np.isfinite(stacked).all(axis=1)):
                rows[s] = [json.dumps(v) for v in rows[s]]
            for row in rows:
                yield template % tuple(row)

    def save(self, path):
        """Write the trace atomically: a save that fails leaves any file at `path` as it was.

        The records go to a new file in `path`'s directory, which then replaces
        `path`. Mode "x" creates it with the usual permissions (tempfile's are 0600).
        """
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        fh = open(tmp, "x")
        try:
            with fh:
                header = {"type": "meta", **self.meta}
                fh.write(json.dumps(header, sort_keys=True) + "\n")
                fh.writelines(self._draw_lines())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path):
        """Read and check a trace file; any defect raises ValueError.

        Defects: a bad record (named by its line), a first record that is not
        the meta record or a later one that is not a draw (a second meta
        record, as two traces concatenated hold), a meta `schema` that is
        missing or other than `TRACE_SCHEMA`, a meta record without
        `data_digest` or `prior`, no draws, meta `iters`, `burn_in` and `thin`
        that are not integers with thin >= 1, a draw count other than their
        (iters - burn_in) // thin (a trace cut at a line boundary), a draw
        field that is not numeric, a log likelihood that is not one finite
        number per draw, a meta `k` or `edge_order` other than its `graph`'s
        or not of integers, and draw vectors whose lengths are not meta `k`
        (`mu`, `delta`, `omega2`) or the edge count (`L`).
        """
        draws = {name: [] for name in cls.DRAW_FIELDS}
        meta = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    rec = json.loads(line)
                    kind = rec.pop("type")
                    if kind == "draw" and lineno > 1:
                        for name, values in draws.items():
                            values.append(rec[name])
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {lineno}, column {exc.colno}: {exc.msg}") from exc
                except (KeyError, TypeError, AttributeError, RecursionError) as exc:
                    raise ValueError(f"line {lineno}: not a trace record ({exc!r})") from exc
                expected = "draw" if lineno > 1 else "meta"  # one meta record, then draws
                if kind != expected:
                    raise ValueError(f"line {lineno}: a record of type {kind!r}, not {expected!r}")
                if lineno == 1:
                    meta = rec
        if meta is None:
            raise ValueError("trace file has no meta record")
        schema = meta.get("schema")
        if type(schema) is not int or schema != TRACE_SCHEMA:
            raise ValueError(f"the meta record's schema is {schema!r}, not {TRACE_SCHEMA}")
        for key in ("data_digest", "prior"):
            if key not in meta:
                raise ValueError(f"the meta record has no {key}")
        if not draws["loglik"]:
            raise ValueError("the trace has no draws")
        settings = [meta.get(key) for key in ("iters", "burn_in", "thin")]
        if not all(type(v) is int for v in settings) or settings[2] < 1:  # true == 1 and 3.0 == 3
            raise ValueError(f"the meta iters, burn_in and thin {settings} are not integers with thin >= 1")
        iters, burn_in, thin = settings
        if len(draws["loglik"]) != (iters - burn_in) // thin:
            raise ValueError(f"the trace holds {len(draws['loglik'])} draws, not the "
                             f"(iters - burn_in) // thin = {(iters - burn_in) // thin} of its meta record")
        try:
            arrays = {name: np.asarray(values, dtype=float) for name, values in draws.items()}
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"a draw field is not numeric ({exc})") from exc
        for name, a in arrays.items():  # np.asarray reads a JSON boolean as 0 or 1: look where it could be
            flat = draws[name] if a.ndim == 1 else itertools.chain.from_iterable(draws[name])
            if np.any((a == 0.0) | (a == 1.0)) and bool in map(type, flat):
                raise ValueError(f"draw field {name} is not numeric (it holds a JSON boolean)")
        if arrays["loglik"].ndim != 1 or not np.all(np.isfinite(arrays["loglik"])):
            raise ValueError("non-finite log likelihood")
        try:
            graph = Graph.from_json_dict(meta["graph"])
            k, edge_order = meta["k"], meta["edge_order"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"the meta record has no valid graph, k and edge_order ({exc!r})") from exc
        if (type(k) is not int or k != graph.k or edge_order != graph.to_json_dict()["edges"]
                or not all(type(a) is int and type(b) is int for a, b in edge_order)):  # 3.0 == 3, true == 1
            raise ValueError("the meta k or edge_order does not match the meta graph")
        n_draws = len(arrays["loglik"])
        for name, width in (("mu", k), ("delta", k), ("omega2", k), ("L", len(graph.edges))):
            if arrays[name].shape != (n_draws, width):
                raise ValueError(f"draw field {name} has shape {arrays[name].shape}, not ({n_draws}, {width})")
        return cls(**arrays, meta=meta)


def data_digest(data):
    arr = np.ascontiguousarray(np.asarray(data, dtype=float))
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _initial_state(stats, graph):
    """mu = xbar, delta = 0 and (omega^2, L) from the ridged sample covariance (I at n = 1); it draws nothing."""
    n, k = stats.n, stats.xbar.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        cov = stats.scatter / (n - 1) if n >= 2 else np.eye(k)
        cov = cov + (1e-6 * np.trace(cov) / k + 1e-10) * np.eye(k)
    if not np.all(np.isfinite(cov)):
        raise NumericalFailure("start state: the sample covariance of the data is not finite")
    q = np.linalg.inv(cov)
    # inv(cov) is symmetric only to rounding; the factor reads its lower triangle
    full_l, omega2 = modified_cholesky(np.tril(q) + np.tril(q, -1).T)
    L = np.eye(k)
    for i, j in graph.edges:  # each stored as (min, max)
        L[i, j] = full_l[i, j]
    return GibbsState(mu=stats.xbar.copy(), delta=np.zeros(k), omega2=omega2, L=L)


def _observed_loglik(state, stats, fix_delta_zero=False):
    """Observed-data log likelihood of the state, from `stats`; the Gaussian baseline's in closed form.

    With delta = 0 each row's density is N(mu, (L' Omega L)^-1), whose log sums
    over the rows to (n/2) (sum log omega^2 - k log 2 pi) - (1/2) sum_i omega_i^2 S_i
    with S = `DataStats.sum_sq`. The skew model's is the log density at the
    rows of xc about -d, d = `DataStats.offset(mu)`: xc - (-d) is xc + d = X - mu
    to the bit, as the sweep's u block forms it.
    """
    if fix_delta_zero:
        k = state.mu.shape[0]
        quad = state.omega2 @ stats.sum_sq(stats.offset(state.mu), state.L)
        return float(0.5 * stats.n * (np.log(state.omega2).sum() - k * np.log(2.0 * np.pi)) - 0.5 * quad)
    alpha, kappa2 = _model.alpha_kappa2(state.delta, state.omega2)
    return float(_model.log_density(-stats.offset(state.mu), alpha, state.L, kappa2, stats.xc).sum())


def run_chain(data, graph, prior, iters, burn_in=None, thin=10, *, seed,
              fix_delta_zero=False, colnames=None):
    """Run the block Gibbs sampler and return the retained Trace.

    Requires the graph labels to form a perfect elimination ordering and the
    propriety gate of the active prior regime to pass. Fully deterministic
    for a fixed seed. `fix_delta_zero` pins the skew loadings at zero, which
    turns the model into the Gaussian graphical baseline. Under the flat-mu
    priors (`FLAT_MU_REGIMES`) the baseline's posterior is conjugate, so no
    chain runs: the trace holds (iters - burn_in) // thin i.i.d. draws from
    `flat_mu_baseline_draws`. Under "proper" the baseline runs the chain.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch("data must be an n x k matrix")
    n, k = data.shape
    if k != graph.k:
        raise DimensionMismatch(f"data has {k} columns but the graph has {graph.k} vertices")
    if not verify_ordering(graph):
        raise NotDecomposable(
            "graph labels are not a perfect elimination ordering; relabel the "
            "graph (and data columns) with graph.relabel(perfect_elimination_ordering(g))"
        )
    stats = DataStats.of(data)  # refuses data whose scatter matrix overflows
    check_propriety(prior, data, graph)
    if burn_in is None:
        burn_in = iters // 5
    if thin < 1 or burn_in < 0 or iters - burn_in < thin:
        raise InvalidChainSettings(
            f"iters {iters}, burn_in {burn_in} and thin {thin} retain no draws; "
            "they need thin >= 1 and 0 <= burn_in <= iters - thin"
        )
    if seed < 0:
        raise InvalidChainSettings(f"seed {seed} is negative; it needs seed >= 0")

    meta = {
        "schema": TRACE_SCHEMA,
        "seed": int(seed),
        "iters": int(iters),
        "burn_in": int(burn_in),
        "thin": int(thin),
        "sweep_order": list(SWEEP_ORDER),
        "fix_delta_zero": bool(fix_delta_zero),
        "prior": prior_to_dict(prior),
        "graph": graph.to_json_dict(),
        "edge_order": [[a + 1, b + 1] for a, b in graph.sorted_edges()],
        "n": int(n),
        "k": int(k),
        "colnames": list(colnames) if colnames is not None else [f"x{i + 1}" for i in range(k)],
        "data_digest": data_digest(data),
    }
    keep = (iters - burn_in) // thin
    try:
        trace = Trace(np.empty((keep, k)), np.empty((keep, k)), np.empty((keep, k)),
                      np.empty((keep, len(graph.edges))), np.empty(keep), meta)
    except (MemoryError, ValueError) as exc:  # numpy refuses an array it cannot allocate
        raise InvalidChainSettings(f"{keep} retained draws of {k} vertices do not fit in memory") from exc

    resolved = resolve_hyperparams(prior, k)
    groups = l_row_groups(graph, resolved)
    rng = np.random.default_rng(seed)
    exact = fix_delta_zero and prior.regime in FLAT_MU_REGIMES
    state = None if exact else _initial_state(stats, graph)  # only a chain has a start state
    # a floating-point overflow, division by zero or invalid operation ends the chain
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        if exact:
            trace.mu[:], trace.omega2[:], trace.L[:], trace.loglik[:] = flat_mu_baseline_draws(
                stats, groups, resolved, keep, rng)
            trace.delta[:] = 0.0
            return trace
        try:
            for it in range(1, iters + 1):
                # held through the next sweep, u keeps malloc from trimming its heap and faulting it in again
                u = gibbs_sweep(state, stats, groups, resolved, rng, fix_delta_zero=fix_delta_zero)
                if it > burn_in and (it - burn_in) % thin == 0:
                    s = (it - burn_in) // thin - 1
                    trace.mu[s] = state.mu
                    trace.delta[s] = state.delta
                    trace.omega2[s] = state.omega2
                    trace.L[s] = trace.edge_values(state.L)
                    try:
                        trace.loglik[s] = _observed_loglik(state, stats, fix_delta_zero)
                    except FloatingPointError as exc:
                        raise NumericalFailure(f"log likelihood: floating-point {exc}") from exc
        except NumericalFailure as exc:
            raise NumericalFailure(f"sweep {it}, {exc}") from exc
    return trace


# ---------------------------------------------------------------------------
# posterior summaries


def effective_sample_size(x):
    """Initial-positive-sequence estimate of the effective sample size (Geyer 1992)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 4:
        return float(n)
    x, _ = _scaled_by_power_of_two(x)
    var = x.var()
    if var == 0:
        return float(n)
    xc = x - x.mean()

    def acf(t):  # only the lags the sequence reads: O(n T) for one that stops at lag T
        return np.dot(xc[: n - t], xc[t:]) / (var * n)

    total = 0.0
    t = 1
    while t + 1 < n:
        pair = acf(t) + acf(t + 1)
        if pair <= 0:
            break
        total += pair
        t += 2
    return float(min(n, n / (1.0 + 2.0 * total)))


def _param_columns(trace):
    k = trace.meta["k"]
    cols = []
    for name, arr in (("mu", trace.mu), ("delta", trace.delta), ("omega2", trace.omega2)):
        for i in range(k):
            cols.append((f"{name}_{i + 1}", arr[:, i]))
    for e, (a, b) in enumerate(trace.meta["edge_order"]):
        cols.append((f"L_{a}_{b}", trace.L[:, e]))
    return cols


def summarize(trace):
    """Posterior mean, SD, central quantiles and ESS per scalar parameter."""
    if len(trace) == 0:
        raise EmptyTrace("trace contains no retained draws")
    columns = _param_columns(trace)
    quantiles = np.quantile(np.column_stack([x for _, x in columns]), [0.025, 0.5, 0.975], axis=0)
    rows = []
    for (name, x), q in zip(columns, quantiles.T):
        scaled, e = _scaled_by_power_of_two(x)
        rows.append(
            {
                "param": name,
                "mean": float(x.mean()),
                "sd": float(np.ldexp(scaled.std(ddof=1), e)) if len(x) > 1 else 0.0,
                "q2.5": float(q[0]),
                "q50": float(q[1]),
                "q97.5": float(q[2]),
                "ess": round(effective_sample_size(x), 1),
            }
        )
    return rows
