"""Shrinkage predictive densities for Gaussian linear regression.

Reduces the regression prediction problem to canonical coordinates, builds
generalized Bayes predictive densities under alpha-divergence loss (best
invariant, hierarchical shrinkage, and the plug-in normal at alpha = 1),
and estimates their risks by seeded Monte Carlo.
"""

from .bounds import NuBounds, a_of_nu, condition_d, nu_limits, nu_of_prior, rescale_C_for_positivity
from .canonical import (
    BLOCK_SIZE,
    CanonicalObservation,
    CanonicalParams,
    CanonicalProblem,
    RankDeficiencyError,
    RegressionData,
    SufficientStats,
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
    NormalizationCertificate,
    PluginEstimate,
    PredictiveDensity,
    PriorSpec,
    ShrinkageComponents,
    UnreliableNormalizationError,
    alpha_limit_check,
    best_invariant_density,
    best_invariant_normalizer,
    beta_integral_identity,
    lemma_identity_residual,
    log_best_invariant,
    log_shrinkage_bayes,
    normalize_density,
    plugin_bayes_estimators,
    plugin_density,
    shrinkage_bayes_density,
    shrinkage_components,
    stein_variance,
    stein_variance_star,
    umvu_estimators,
)
from .risk import (
    ChiSquareCheck,
    RiskEstimate,
    alpha_divergence_mc,
    chi_square_identity_check,
    d1_loss_plugin,
    f_alpha,
    log_inequality_margin,
    minimax_risk,
    risk_d1_mc,
    risk_mc,
)

__version__ = "0.1.0"
