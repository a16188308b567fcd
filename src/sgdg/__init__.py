"""Skew Gaussian decomposable graphical models.

Library and CLI for the SGDG model: decomposable-graph machinery, exact
model sampling, a block Gibbs sampler under three prior regimes with
propriety gates, and Bayes-factor comparison against the Gaussian graphical
baseline. The reference oracles that the tests check it against, such as
the general closed-skew-normal layer, live in `tests/oracles.py`.
"""

from .csn import sample_truncated_normal
from .evidence import EvidenceEstimate, bayes_factor, estimate_log_marginal
from .graph import (
    Graph,
    NotDecomposable,
    perfect_elimination_ordering,
    verify_ordering,
)
from .inference import (
    GibbsState,
    IndependentProperPrior,
    NoninformativePrior,
    PatternWishartPrior,
    ProprietyViolation,
    Trace,
    check_propriety,
    resolve_hyperparams,
    run_chain,
    summarize,
)
from .linalg import (
    NotPositiveDefinite,
    modified_cholesky,
    solve_unit_triangular,
)
from .model import (
    ReparamParams,
    SgdgParams,
    covariance_matrix,
    mean_vector,
    reparam_inverse,
    sample_sgdg,
    sgdg_log_density,
)

__version__ = "0.1.0"
