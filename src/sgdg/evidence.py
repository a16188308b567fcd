"""Marginal likelihood estimation and Bayes factors from posterior traces.

Implements the stabilized harmonic mean of Newton & Raftery (1994): the
posterior likelihoods l_1..l_S are mixed, with weight d, with imaginary prior
draws whose likelihood is pinned at the estimate p. Their count cancels at the
fixed point, which is the root of

    sum_s (l_s - p) / (d p + (1-d) l_s) = 0.

In q = log p and the log likelihoods lambda_s, that is g(q) = 0 with
g(q) = sum_s phi(lambda_s - q) and phi(x) = (e^x - 1) / (d + (1-d) e^x).
Since phi'(x) = e^x / (d + (1-d) e^x)^2 > 0, g strictly decreases and
g(max lambda) <= 0 <= g(min lambda): the root is unique and bracketed.
Shifting every log likelihood by a constant shifts the root by that constant.
"""

import itertools
from dataclasses import dataclass

import numpy as np

TOL = 1e-10  # relative step at which the root search stops


@dataclass(frozen=True)
class EvidenceEstimate:
    log_marginal: float
    n_draws_used: int
    mix_weight: float
    converged: bool
    iterations: int


def estimate_log_marginal(loglik, mix_weight=0.01):
    """Log marginal likelihood from per-draw log likelihoods of a posterior.

    Takes Newton steps on g from q = max log likelihood, inside the bracket
    [lo, hi] that each evaluation of g shrinks. It bisects instead when a step
    would leave the bracket or is more than half the step before last (the
    rule of Numerical Recipes' rtsafe, which keeps Newton from creeping where g
    is exponential in q). It stops when the step falls to TOL * max(1, |q|).
    phi and phi' are formed from e^(-|x|) and scaled by d, so nothing
    overflows for any d in (0, 1) and any spread of finite log likelihoods.
    """
    lam = np.asarray(loglik, dtype=float).ravel()
    if lam.size == 0:
        raise ValueError("loglik must be nonempty")
    if not np.all(np.isfinite(lam)):
        raise ValueError("loglik contains non-finite values")
    if not 0.0 < mix_weight < 1.0:
        raise ValueError("mix_weight must lie strictly between 0 and 1")

    d = mix_weight
    lo, hi = float(lam.min()), float(lam.max())
    q = hi
    last = before_last = hi - lo
    with np.errstate(over="ignore"):  # lam - q past the float range gives e^(-|x|) = 0, as it should
        for it in itertools.count(1):
            x = lam - q
            t = np.exp(-np.abs(x))
            den = np.where(x > 0, d * t + (1.0 - d), d + (1.0 - d) * t)  # (d + (1-d) e^x) e^-max(x, 0)
            w = d / den
            g = float(np.copysign(w * (1.0 - t), x).sum())  # sum of d phi(x)
            slope = float((w * (t / den)).sum())  # sum of d phi'(x) = -d g'(q)
            if g > 0.0:
                lo = q
            elif g < 0.0:
                hi = q
            newton = q + g / slope if slope > 0.0 else hi  # every e^(-|x|) underflowed: bisect
            bisect = not lo < newton < hi or abs(2.0 * (newton - q)) > abs(before_last)
            q_new = lo / 2 + hi / 2 if bisect else newton
            if abs(q_new - q) <= TOL * max(1.0, abs(q)):
                return EvidenceEstimate(q_new, lam.size, d, True, it)
            before_last, last, q = last, q_new - q, q_new


def bayes_factor(trace_a, trace_b, mix_weight=0.01):
    """Log Bayes factor of model A over model B from their traces."""
    est_a = estimate_log_marginal(trace_a.loglik, mix_weight)
    est_b = estimate_log_marginal(trace_b.loglik, mix_weight)
    return est_a.log_marginal - est_b.log_marginal
