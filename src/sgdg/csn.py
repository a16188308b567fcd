"""Truncated normal sampling for the latent half-normal block of the sampler.

The SGDG model is a closed skew normal (CSN) distribution; given the data,
each latent U_ji of the sampler is a normal truncated below at zero. The
general CSN density, conditioning and sampler are reference oracles of the
test suite (`tests/oracles.py`), not part of the package.
"""

import numpy as np
from scipy.special import ndtr, ndtri

# beyond this standardized lower bound the inverse-CDF loses precision and
# the exponential-proposal rejection sampler takes over
TAIL_SWITCH = 4.0


def sample_truncated_normal(mu, var, lower, rng):
    """Exact draws from N(mu, var) restricted to [lower, inf).

    The result has the broadcast shape of mu, var and lower. Central
    truncations use the complementary inverse CDF; standardized bounds above
    TAIL_SWITCH use an exponential-proposal rejection sampler that stays
    accurate arbitrarily far into the tail. When no bound is past the switch,
    the inverse CDF runs on the whole array, with the same draws as the split
    by bound.
    """
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    lower = np.asarray(lower, dtype=float)
    if np.any(var <= 0):
        raise ValueError("var must be positive")
    shape = np.broadcast_shapes(mu.shape, var.shape, lower.shape)
    sd = np.sqrt(var)
    a = (lower - mu) / sd
    if np.all(a <= TAIL_SWITCH):
        u = 1.0 - rng.uniform(size=shape)  # in (0, 1], avoids P=0
        x = -ndtri(u * ndtr(-a))
    else:
        flat_a = np.broadcast_to(a, shape).reshape(-1)
        x = np.empty(flat_a.shape)
        central = flat_a <= TAIL_SWITCH
        tail_prob = ndtr(-flat_a[central])
        u = 1.0 - rng.uniform(size=tail_prob.shape)
        x[central] = -ndtri(u * tail_prob)
        x[~central] = _tail_rejection(flat_a[~central], rng)
        x = x.reshape(shape)
    return mu + sd * x


def _tail_rejection(a, rng):
    """Standard normal draws conditioned on exceeding a (a > 0, vectorized)."""
    alpha = 0.5 * (a + np.sqrt(a * a + 4.0))
    out = np.empty_like(a)
    pending = np.ones(a.shape, dtype=bool)
    for _ in range(1000):
        idx = np.nonzero(pending)[0]
        if idx.size == 0:
            return out
        z = a[idx] + rng.exponential(scale=1.0 / alpha[idx])
        accept = rng.uniform(size=idx.size) <= np.exp(-0.5 * np.square(z - alpha[idx]))
        hit = idx[accept]
        out[hit] = z[accept]
        pending[hit] = False
    raise RuntimeError("tail rejection sampler failed to terminate")

