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
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import model as _model
from .csn import sample_truncated_normal
from .graph import EliminationOrdering, Graph, NotDecomposable, verify_ordering
from .linalg import modified_cholesky, solve_unit_triangular

SWEEP_ORDER = ("u", "delta", "mu", "omega2", "L")


class ProprietyViolation(ValueError):
    """Raised when an improper-prior posterior would not integrate."""


class NumericalFailure(RuntimeError):
    """Raised when a conditional precision stops being positive definite."""


class DimensionMismatch(ValueError):
    """Raised when data, graph, or prior dimensions disagree."""


class EmptyTrace(ValueError):
    """Raised when a summary is requested from a trace with no draws."""


# ---------------------------------------------------------------------------
# prior regimes


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
        for name in ("b1", "b2", "b3", "b4", "b5"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        object.__setattr__(self, "mu0", np.asarray(self.mu0, dtype=float))


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
        if self.b1 <= 0:
            raise ValueError("b1 must be positive")
        Psi = np.asarray(self.Psi, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        if Psi.ndim != 2 or Psi.shape[0] != Psi.shape[1]:
            raise ValueError("Psi must be square")
        if not np.allclose(Psi, Psi.T, atol=1e-10 * max(1.0, np.abs(Psi).max())):
            raise ValueError("Psi must be symmetric")
        if np.any(np.linalg.eigvalsh(Psi) <= 0):
            raise ValueError("Psi must be positive definite")
        if psi.shape != (Psi.shape[0],) or np.any(psi <= 0):
            raise ValueError("psi must be a positive vector matching Psi")
        object.__setattr__(self, "Psi", Psi)
        object.__setattr__(self, "psi", psi)


@dataclass(frozen=True)
class NoninformativePrior:
    """Flat prior on mu and L with prod_i omega_i^-2 on the precisions."""

    b1: float
    regime = "noninfo"

    def __post_init__(self):
        if self.b1 <= 0:
            raise ValueError("b1 must be positive")


def prior_to_dict(prior):
    d = {"regime": prior.regime, "b1": prior.b1}
    if prior.regime == "proper":
        d.update(mu0=prior.mu0.tolist(), b2=prior.b2, b3=prior.b3, b4=prior.b4, b5=prior.b5)
    elif prior.regime == "wishart":
        d.update(Psi=prior.Psi.tolist(), psi=prior.psi.tolist())
    return d


def prior_from_dict(d):
    regime = d["regime"]
    if regime == "proper":
        return IndependentProperPrior(d["b1"], np.asarray(d["mu0"]), d["b2"], d["b3"], d["b4"], d["b5"])
    if regime == "wishart":
        return PatternWishartPrior(d["b1"], np.asarray(d["Psi"]), np.asarray(d["psi"]))
    if regime == "noninfo":
        return NoninformativePrior(d["b1"])
    raise ValueError(f"unknown prior regime {regime!r}")


# ---------------------------------------------------------------------------
# propriety gates


@dataclass(frozen=True)
class ProprietyReport:
    ok: bool
    messages: tuple

    def __bool__(self):
        return self.ok


def check_propriety(prior, n, g):
    """Posterior-existence gate for the improper prior regimes.

    Noninformative: needs n >= max_i ||N(i)|| + 2 forward-neighbor counts.
    Pattern-Wishart: needs psi_i > ||N(i)|| strictly for every i.
    Independent proper priors always pass.
    """
    msgs = []
    fwd = [g.forward_degree(i) for i in range(g.k)]
    if prior.regime == "noninfo":
        need = max(fwd) + 2
        if n < need:
            msgs.append(
                f"noninformative prior requires n >= max forward degree + 2 = {need}, got n = {n}"
            )
    elif prior.regime == "wishart":
        if prior.psi.shape != (g.k,):
            raise DimensionMismatch("psi length must equal the vertex count")
        for i in range(g.k):
            if not prior.psi[i] > fwd[i]:
                msgs.append(
                    f"pattern-Wishart prior requires psi_{i + 1} > {fwd[i]} "
                    f"(forward degree), got {prior.psi[i]}"
                )
    return ProprietyReport(not msgs, tuple(msgs))


# ---------------------------------------------------------------------------
# resolved hyperparameters (one column of the regime table)


@dataclass(frozen=True)
class ResolvedHyperparams:
    """Per-sweep values (v_mu, mu0, s_omega, r_omega, V_L) for the active regime.

    V_L holds one k x k prior precision per row of L; the slice on the
    forward-neighbor support of row i is what the row conditional uses. For
    the pattern-Wishart regime r_omega and V_L depend on the current state
    and must be re-resolved every sweep.
    """

    v_mu: float
    mu0: np.ndarray
    s_omega: np.ndarray
    r_omega: np.ndarray
    V_L: tuple


def resolve_hyperparams(prior, g, omega2=None, L=None):
    k = g.k
    zero = np.zeros((k, k))
    if prior.regime == "proper":
        return ResolvedHyperparams(
            v_mu=1.0 / prior.b2,
            mu0=prior.mu0,
            s_omega=np.full(k, prior.b3),
            r_omega=np.full(k, prior.b4),
            V_L=tuple((1.0 / prior.b5) * np.eye(k) for _ in range(k)),
        )
    if prior.regime == "wishart":
        if omega2 is None or L is None:
            raise ValueError("pattern-Wishart resolution needs the current omega2 and L")
        lpsil = np.einsum("ij,jk,ik->i", L, prior.Psi, L)
        return ResolvedHyperparams(
            v_mu=0.0,
            mu0=np.zeros(k),
            s_omega=prior.psi / 2.0,
            r_omega=0.5 * lpsil,
            V_L=tuple(omega2[i] * prior.Psi for i in range(k)),
        )
    return ResolvedHyperparams(
        v_mu=0.0,
        mu0=np.zeros(k),
        s_omega=np.zeros(k),
        r_omega=np.zeros(k),
        V_L=tuple(zero for _ in range(k)),
    )


# ---------------------------------------------------------------------------
# Gibbs state and full conditionals


@dataclass
class GibbsState:
    mu: np.ndarray
    delta: np.ndarray
    omega2: np.ndarray
    L: np.ndarray
    u: np.ndarray


def u_conditional_params(state, y):
    """Truncated-normal mean (n, k) and variance (k,) from the centred rows y = (X - mu) L'."""
    w = state.omega2 * state.delta
    var = 1.0 / (1.0 + w * state.delta)
    mean = y * (w * var)
    return mean, var


def gibbs_update_u(state, y, rng):
    mean, var = u_conditional_params(state, y)
    return sample_truncated_normal(mean, var, 0.0, rng)


def delta_conditional_params(state, y, b1):
    """Componentwise normal mean and variance for the skew loadings; y as for u."""
    denom = (state.u**2).sum(axis=0) + 1.0 / b1
    mean = (state.u * y).sum(axis=0) / denom
    var = 1.0 / (state.omega2 * denom)
    return mean, var


def gibbs_update_delta(state, y, b1, rng):
    mean, var = delta_conditional_params(state, y, b1)
    return mean + np.sqrt(var) * rng.standard_normal(mean.shape)


def mu_conditional_params(state, data, resolved):
    """Normal mean vector and precision matrix for the location block."""
    n, k = data.shape
    q_omega = state.L.T @ (state.omega2[:, np.newaxis] * state.L)
    prec = n * q_omega + resolved.v_mu * np.eye(k)
    shift = solve_unit_triangular(state.L, state.delta * state.u.sum(axis=0))
    rhs = q_omega @ (data.sum(axis=0) - shift) + resolved.v_mu * resolved.mu0
    return np.linalg.solve(prec, rhs), prec


def gibbs_update_mu(state, data, resolved, rng):
    mean, prec = mu_conditional_params(state, data, resolved)
    return mean + _draw_from_precision(prec, rng)


def _draw_from_precision(prec, rng):
    try:
        r = np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("conditional precision is not positive definite") from exc
    return np.linalg.solve(r.T, rng.standard_normal(prec.shape[0]))


def omega2_conditional_params(state, y, resolved, b1, include_skew_terms=True):
    """Gamma shape and rate vectors for the precision-scale block.

    The rate uses the centred rows y = (X - mu) L' at the current mean with
    the skew offset removed; with the skew machinery switched off (Gaussian
    baseline) the extra half unit of shape from the delta prior drops out as
    well.
    """
    n = y.shape[0]
    resid = y - state.u * state.delta
    rate = resolved.r_omega + 0.5 * (resid**2).sum(axis=0)
    if include_skew_terms:
        shape = resolved.s_omega + 0.5 * (n + 1)
        rate = rate + state.delta**2 / (2.0 * b1)
    else:
        shape = resolved.s_omega + 0.5 * n
    return shape, rate


def gibbs_update_omega2(state, y, resolved, b1, rng, include_skew_terms=True):
    shape, rate = omega2_conditional_params(state, y, resolved, b1, include_skew_terms)
    draw = rng.gamma(shape=shape, scale=1.0 / rate)
    if np.any(draw <= 0) or not np.all(np.isfinite(draw)):
        raise NumericalFailure("omega^2 draw left the positive domain")
    return draw


def l_row_conditional_params(state, y0, gram, resolved, i, fwd):
    """Normal mean and precision of the free entries `fwd` of row i of L.

    y0 = X - mu and gram = y0' y0: cross moments enter centred at the current
    mean; the uncentred version does not leave the joint distribution
    invariant. No row's conditional reads L, so one gram serves every row.
    """
    idx = np.asarray(fwd)
    s_full = state.omega2[i] * gram + resolved.V_L[i]
    prec = s_full[np.ix_(idx, idx)]
    zeta = s_full[idx, i]
    m_vec = state.u[:, i] @ y0[:, idx]
    h = state.omega2[i] * state.delta[i] * m_vec - zeta
    try:
        mean = np.linalg.solve(prec, h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("row conditional precision is singular") from exc
    return mean, prec


def gibbs_update_L(state, y0, graph, resolved, rng):
    gram = y0.T @ y0
    new_l = state.L.copy()
    for i in range(graph.k):
        fwd = graph.forward_neighbors(i)
        if fwd:
            mean, prec = l_row_conditional_params(state, y0, gram, resolved, i, fwd)
            new_l[i, fwd] = mean + _draw_from_precision(prec, rng)
    return new_l


def gibbs_sweep(state, data, graph, prior, rng, fix_delta_zero=False):
    """One full sweep in the fixed order u, delta, mu, omega^2, L rows.

    Each shared statistic is formed once: mu and L stay put through the u and
    delta blocks, so both read one copy of the centred rows (X - mu) L'. After
    the mu block, X - mu is formed once more; it feeds the omega^2 block (as
    centred rows) and every row of L (through its Gram matrix).
    """
    y = (data - state.mu) @ state.L.T
    state.u = gibbs_update_u(state, y, rng)
    if not fix_delta_zero:
        state.delta = gibbs_update_delta(state, y, prior.b1, rng)
    resolved = resolve_hyperparams(prior, graph, omega2=state.omega2, L=state.L)
    state.mu = gibbs_update_mu(state, data, resolved, rng)
    y0 = data - state.mu
    state.omega2 = gibbs_update_omega2(
        state, y0 @ state.L.T, resolved, prior.b1, rng, include_skew_terms=not fix_delta_zero
    )
    resolved = resolve_hyperparams(prior, graph, omega2=state.omega2, L=state.L)
    state.L = gibbs_update_L(state, y0, graph, resolved, rng)
    return state


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

    def save(self, path):
        with open(path, "w") as fh:
            header = {"type": "meta", **self.meta}
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in range(len(self)):
                rec = {name: getattr(self, name)[s].tolist() for name in self.DRAW_FIELDS}
                fh.write(json.dumps({"type": "draw", **rec}, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path):
        """Read a trace file; a record that does not parse raises ValueError naming its line."""
        draws = {name: [] for name in cls.DRAW_FIELDS}
        meta = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    rec = json.loads(line)
                    if rec.pop("type") == "meta":
                        meta = rec
                    else:
                        for name, values in draws.items():
                            values.append(rec[name])
                except json.JSONDecodeError as exc:
                    raise ValueError(f"line {lineno}, column {exc.colno}: {exc.msg}") from exc
                except (KeyError, TypeError, AttributeError) as exc:
                    raise ValueError(f"line {lineno}: not a trace record ({exc!r})") from exc
        if meta is None:
            raise ValueError("trace file has no meta record")
        return cls(**{name: np.asarray(values) for name, values in draws.items()}, meta=meta)


def data_digest(data):
    arr = np.ascontiguousarray(np.asarray(data, dtype=float))
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _initial_state(data, graph, rng):
    n, k = data.shape
    mu = data.mean(axis=0)
    if n >= 2:
        cov = np.cov(data, rowvar=False).reshape(k, k)
    else:
        cov = np.eye(k)
    cov = cov + (1e-6 * np.trace(cov) / k + 1e-10) * np.eye(k)
    factor = modified_cholesky(np.linalg.inv(cov))
    L = np.eye(k)
    for a, b in graph.edges:
        i, j = min(a, b), max(a, b)
        L[i, j] = factor.L[i, j]
    omega2 = factor.D.copy()
    u = np.abs(rng.standard_normal((n, k)))
    return GibbsState(mu=mu, delta=np.zeros(k), omega2=omega2, L=L, u=u)


def _observed_loglik(state, data):
    alpha, kappa2 = _model.alpha_kappa2(state.delta, state.omega2)
    return float(_model.log_density(state.mu, alpha, state.L, kappa2, data).sum())


def run_chain(data, graph, prior, iters, burn_in=None, thin=10, seed=None,
              fix_delta_zero=False, colnames=None):
    """Run the block Gibbs sampler and return the retained Trace.

    Requires the graph labels to form a perfect elimination ordering and the
    propriety gate of the active prior regime to pass. Fully deterministic
    for a fixed seed. `fix_delta_zero` pins the skew loadings at zero, which
    turns the model into the Gaussian graphical baseline.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatch("data must be an n x k matrix")
    n, k = data.shape
    if k != graph.k:
        raise DimensionMismatch(f"data has {k} columns but the graph has {graph.k} vertices")
    if not verify_ordering(graph, EliminationOrdering.identity(k)):
        raise NotDecomposable(
            "graph labels are not a perfect elimination ordering; relabel the "
            "graph (and data columns) with graph.relabel(perfect_elimination_ordering(g))"
        )
    report = check_propriety(prior, n, graph)
    if not report.ok:
        raise ProprietyViolation("; ".join(report.messages))
    if seed is None:
        raise ValueError("a seed is required; wall-clock seeding is not supported")
    if burn_in is None:
        burn_in = iters // 5
    if not 0 <= burn_in < iters:
        raise ValueError("burn_in must satisfy 0 <= burn_in < iters")
    if thin < 1:
        raise ValueError("thin must be >= 1")

    meta = {
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
    trace = Trace(np.empty((keep, k)), np.empty((keep, k)), np.empty((keep, k)),
                  np.empty((keep, len(graph.edges))), np.empty(keep), meta)

    rng = np.random.default_rng(seed)
    state = _initial_state(data, graph, rng)
    for it in range(1, iters + 1):
        gibbs_sweep(state, data, graph, prior, rng, fix_delta_zero=fix_delta_zero)
        if it > burn_in and (it - burn_in) % thin == 0:
            s = (it - burn_in) // thin - 1
            trace.mu[s] = state.mu
            trace.delta[s] = state.delta
            trace.omega2[s] = state.omega2
            trace.L[s] = trace.edge_values(state.L)
            trace.loglik[s] = _observed_loglik(state, data)
    return trace


# ---------------------------------------------------------------------------
# posterior summaries


def effective_sample_size(x):
    """Initial-positive-sequence estimate of the effective sample size."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 4:
        return float(n)
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
    rows = []
    for name, x in _param_columns(trace):
        q = np.quantile(x, [0.025, 0.5, 0.975])
        rows.append(
            {
                "param": name,
                "mean": float(x.mean()),
                "sd": float(x.std(ddof=1)) if len(x) > 1 else 0.0,
                "q2.5": float(q[0]),
                "q50": float(q[1]),
                "q97.5": float(q[2]),
                "ess": round(effective_sample_size(x), 1),
            }
        )
    return rows
