"""Truncated normal sampling for the latent half-normal block of the sampler.

The SGDG model is a closed skew normal (CSN) distribution; given the data,
each latent U_ji of the sampler is a normal truncated below at zero. The
general CSN density, conditioning and sampler are reference oracles of the
test suite (`tests/oracles.py`), not part of the package.
"""

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

# standardized lower bounds up to this take the inverse CDF in product form, the
# cheaper one; a call with any bound past it takes the log form, since the product
# form's u * Phi(-a) underflows to 0, and its draw to inf, from about a = 36
TAIL_SWITCH = 4.0

# the fewest entries a row block of the inverse-CDF pass gets. Forced to split in
# two at any size, the pass broke even at about 4,000 entries in all and took
# 0.6-0.8 of its serial time from 16,000 (k = 40, 2-vCPU Xeon host, helper
# thread already started); the margin keeps the hand-off small against each
# block's work on a busier host
PARALLEL_MIN = 1 << 14

_executor = None


def _drop_executor():
    global _executor
    _executor = None


# a forked child has only the thread that forked: its copy of the executor would
# queue work for helper threads it does not have
os.register_at_fork(after_in_child=_drop_executor)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helpers():
    # unlocked: of two threads that race here, each gets a working executor, and
    # the one not kept ends its threads once its caller drops it
    global _executor
    if _executor is None:
        _executor = ThreadPoolExecutor(thread_name_prefix="sgdg-truncnorm")
    return _executor


def _product_form(t, u):
    """t <- ndtri(u Phi(t)), in place."""
    ndtr(t, out=t)
    t *= u
    ndtri(t, out=t)


def _log_form(t, u):
    """t <- ndtri_exp(log u + log Phi(t)), in place; u is overwritten."""
    log_ndtr(t, out=t)
    np.log(u, out=u)
    t += u
    ndtri_exp(t, out=t)


def _in_row_blocks(kernel, t, u):
    """Run the elementwise `kernel(t, u)` on row blocks of t and u at once.

    The calling thread takes the first block and helper threads the rest, each
    under a copy of the caller's context, so numpy's errstate (a context
    variable) holds in every block. Every entry gets the same arithmetic as in
    one serial call.
    """
    rows = t.shape[0] if t.ndim else 1
    blocks = min(rows, t.size // PARALLEL_MIN)
    if blocks >= 2:
        blocks = min(blocks, _usable_cpus())
    if blocks < 2:
        kernel(t, u)
        return
    edges = [rows * b // blocks for b in range(blocks + 1)]
    pool = _helpers()
    futures = [pool.submit(contextvars.copy_context().run, kernel, t[lo:hi], u[lo:hi])
               for lo, hi in zip(edges[1:-1], edges[2:])]
    try:
        kernel(t[:edges[1]], u[:edges[1]])
    finally:
        wait(futures)  # no helper may still write into t or u once this returns
    for f in futures:
        f.result()


def sample_truncated_normal(mu, var, lower, rng):
    """Exact draws from N(mu, var) restricted to [lower, inf).

    The result has the broadcast shape of mu, var and lower. Every entry is
    the inverse CDF of one uniform u in (0, 1], so a call takes exactly one
    generator output per entry: -ndtri(u Phi(-a)) at standardized bounds a
    up to TAIL_SWITCH, and -ndtri_exp(log u + log Phi(-a)) for the whole
    call when any bound is past it. A call of at least 2 PARALLEL_MIN
    entries in two or more rows splits that pass into row blocks of at least
    PARALLEL_MIN entries over the CPUs the process may use; the draws do not
    depend on the split.
    """
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    lower = np.asarray(lower, dtype=float)
    if not (var > 0).all():  # NaN fails too
        raise ValueError("var must be positive")
    shape = np.broadcast(mu, var, lower).shape
    sd = np.sqrt(var)
    t = np.subtract(mu, lower, out=np.empty(shape))
    t /= sd  # -a, bit for bit
    u = rng.random(shape)  # the outputs uniform(size=shape) takes, as 0 + 1 * r = r
    np.subtract(1.0, u, out=u)  # in (0, 1], avoids P=0
    kernel = _product_form if (t >= -TAIL_SWITCH).all() else _log_form
    _in_row_blocks(kernel, t, u)
    t *= sd
    np.subtract(mu, t, out=t)  # mu + sd * x with x = -t
    return t if t.ndim else t[()]
