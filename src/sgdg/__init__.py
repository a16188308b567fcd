"""Skew Gaussian decomposable graphical models.

Library and CLI for the SGDG model: decomposable-graph machinery, exact
model sampling, a block Gibbs sampler under three prior regimes with
propriety gates, and Bayes-factor comparison against the Gaussian graphical
baseline. The general closed-skew-normal layer and the quadrature
conditional-independence check are reference oracles of the test suite
(`tests/oracles.py`), not part of the package.
"""

from .csn import sample_truncated_normal
from .evidence import EvidenceEstimate, NotConverged, bayes_factor, estimate_log_marginal
from .graph import (
    EliminationOrdering,
    Graph,
    NotDecomposable,
    is_decomposable,
    perfect_elimination_ordering,
    separates,
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
    CholFactor,
    NotPositiveDefinite,
    assemble_precision,
    modified_cholesky,
    solve_unit_triangular,
    verify_pattern,
)
from .model import (
    ReparamParams,
    SgdgParams,
    covariance_matrix,
    mean_vector,
    reparam_forward,
    reparam_inverse,
    sample_sgdg,
    sgdg_log_density,
)

__version__ = "0.1.0"
