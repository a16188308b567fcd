"""Truncated normal sampling for the latent half-normal block of the sampler.

The SGDG model is a closed skew normal (CSN) distribution; given the data,
each latent U_ji of the sampler is a normal truncated below at zero. The
general CSN density, conditioning and sampler are reference oracles of the
test suite (`tests/oracles.py`), not part of the package.
"""

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

# standardized lower bounds up to this take the inverse CDF in product form, the
# cheaper one; a call with any bound past it takes the log form, since the product
# form's u * Phi(-a) underflows to 0, and its draw to inf, from about a = 36
TAIL_SWITCH = 4.0


def sample_truncated_normal(mu, var, lower, rng):
    """Exact draws from N(mu, var) restricted to [lower, inf).

    The result has the broadcast shape of mu, var and lower. Every entry is
    the inverse CDF of one uniform u in (0, 1], so a call takes exactly one
    generator output per entry: -ndtri(u Phi(-a)) at standardized bounds a
    up to TAIL_SWITCH, and -ndtri_exp(log u + log Phi(-a)) for the whole
    call when any bound is past it.
    """
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    lower = np.asarray(lower, dtype=float)
    if not (var > 0).all():  # NaN fails too
        raise ValueError("var must be positive")
    shape = np.broadcast(mu, var, lower).shape
    sd = np.sqrt(var)
    a = (lower - mu) / sd
    u = 1.0 - rng.uniform(size=shape)  # in (0, 1], avoids P=0
    if (a <= TAIL_SWITCH).all():
        x = -ndtri(u * ndtr(-a))
    else:
        x = -ndtri_exp(np.log(u) + log_ndtr(-a))
    return mu + sd * x
