"""Shrinkage predictive densities for Gaussian linear regression.

Reduces the regression prediction problem to canonical coordinates, builds
generalized Bayes predictive densities under alpha-divergence loss (best
invariant, hierarchical shrinkage, and the plug-in normal at alpha = 1),
and estimates their risks by seeded Monte Carlo over exact losses.

Importing the package first caps OpenBLAS at one thread unless
OPENBLAS_NUM_THREADS is already set: no BLAS call here is large enough to
gain from threads, and an idle pool spins on the other cores.  Once numpy
is loaded its pool exists, so the variable is then left alone.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bounds import NuBounds, condition_d, nu_limits, rescale_C_for_positivity
from .canonical import (
    BLOCK_SIZE,
    CanonicalObservation,
    CanonicalParams,
    CanonicalProblem,
    RankDeficiencyError,
    as1_design,
    as1_problem,
    canonicalize,
    params_to_canonical,
    replication_rng,
    simulate_observation,
    sufficient_statistics,
    to_canonical,
)
from .predictive import (
    DegenerateObservationError,
    PluginDensity,
    PluginEstimate,
    PredictiveKernel,
    PriorSpec,
    alpha_limit_check,
    best_invariant_kernel,
    plugin_bayes_estimators,
    plugin_density,
    shrinkage_bayes_kernel,
    shrinkage_components,
    stein_variance,
    stein_variance_star,
    umvu_estimators,
)
from .identities import beta_integral_identity, lemma_identity_residual, log_inequality_margin
from .quad import UnreliableNormalizationError
from .risk import (
    RiskEstimate,
    alpha_divergence_loss,
    d1_loss_plugin,
    kernel_scorer,
    minimax_risk,
    plugin_scorer,
    risk_d1_mc,
    risk_mc,
)

__version__ = "0.1.0"
