"""Alpha-divergence losses and Monte Carlo risk estimation.

The divergence family is indexed by alpha in [-1, 1]: alpha = -1 is the
Kullback-Leibler divergence from the truth to the estimate, alpha = 1 the
reversed form.  At alpha = 1 the divergence between a plug-in normal and
the truth has the closed form (L1 + m L2)/2 combining scale-invariant
quadratic loss and entropy loss, and the unbiased baseline has the known
constant risk (tr D + m (log gamma - psi(gamma)))/2 with gamma = (n-k)/2.
For alpha < 1 risks are estimated by nested Monte Carlo.

Replications are keyed by (seed, rep_index) through the counter-based
generator and reduced by pairwise summation in index order, so reruns
agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import digamma

from .canonical import (
    STREAM_DIVERGENCE,
    STREAM_IDENTITY,
    CanonicalObservation,
    CanonicalParams,
    CanonicalProblem,
    replication_rng,
    simulate_observation,
)
from .predictive import (
    PluginEstimate,
    PredictiveDensity,
    UnreliableNormalizationError,
    plugin_density,
)

__all__ = [
    "ExclusionCeilingError",
    "RiskEstimate",
    "ChiSquareCheck",
    "f_alpha",
    "d1_loss_plugin",
    "minimax_risk",
    "alpha_divergence_mc",
    "risk_d1_mc",
    "risk_alpha_mc",
    "chi_square_identity_check",
    "log_inequality_margin",
]

EXCLUSION_CEILING = 0.01


class ExclusionCeilingError(RuntimeError):
    """More than 1% of replications failed normalization."""


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    std_error: float
    reps: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.reps < 2:
            raise ValueError("reps must be at least 2")


class ChiSquareCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float
    std_error: float


# ---------------------------------------------------------------------------
# Divergence generator and losses
# ---------------------------------------------------------------------------

def f_alpha(z: float, alpha: float) -> float:
    """Convex generator of the alpha-divergence evaluated at a density ratio.

    4(1 - z^{(1+alpha)/2})/(1 - alpha^2) for |alpha| < 1, z log z at
    alpha = 1, -log z at alpha = -1.
    """
    z = float(z)
    if z <= 0:
        raise ValueError("f_alpha requires z > 0")
    alpha = float(alpha)
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    if alpha == 1.0:
        return z * math.log(z)
    if alpha == -1.0:
        return -math.log(z)
    return 4.0 * -math.expm1((1.0 + alpha) / 2.0 * math.log(z)) / (1.0 - alpha * alpha)


def d1_loss_plugin(theta_hat, sigma2_hat: float, theta, sigma2: float, m: int) -> float:
    """Closed-form alpha = 1 divergence of a plug-in normal from the truth.

    Equals (L1 + m L2)/2 with L1 the scale-invariant quadratic loss of the
    mean and L2 the entropy loss of the variance.
    """
    if sigma2_hat <= 0 or sigma2 <= 0:
        raise ValueError("variances must be positive")
    theta_hat = np.asarray(theta_hat, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    diff = theta_hat - theta
    ratio = sigma2_hat / sigma2
    return 0.5 * (float(diff @ diff) / sigma2 + m * (ratio - math.log(ratio) - 1.0))


def minimax_risk(d: np.ndarray, m: int, n: int, k: int) -> float:
    """Constant risk of the unbiased baseline under the alpha = 1 loss."""
    if n <= k:
        raise ValueError("need n > k")
    d = np.asarray(d, dtype=float).ravel()
    half_dof = (n - k) / 2.0
    return 0.5 * (float(d.sum()) + m * (math.log(half_dof) - float(digamma(half_dof))))


# ---------------------------------------------------------------------------
# Monte Carlo divergence and risk
# ---------------------------------------------------------------------------


def _true_density(problem: CanonicalProblem, theta, sigma2: float) -> PredictiveDensity:
    est = PluginEstimate(theta_hat=np.asarray(theta, dtype=float), sigma2_hat=float(sigma2), w=math.inf)
    return plugin_density(est, problem)


def alpha_divergence_mc(
    phat: PredictiveDensity,
    theta,
    eta: float,
    problem: CanonicalProblem,
    alpha: float,
    n_mc: int,
    seed: int,
    rep_index: int = 0,
) -> RiskEstimate:
    """Monte Carlo alpha-divergence of phat from the true density N_m(Q theta, I/eta).

    For alpha < 1 the draws come from the truth; at alpha = 1 the integral
    runs against phat itself, so phat must be samplable there.  phat must
    carry a normalization certificate.
    """
    if phat.certificate is None:
        raise ValueError("phat is missing its normalization certificate")
    alpha = float(alpha)
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    n_mc = int(n_mc)
    if n_mc < 100:
        raise ValueError("n_mc must be at least 100")
    truth = _true_density(problem, theta, 1.0 / eta)
    rng = replication_rng(seed, rep_index, stream=STREAM_DIVERGENCE)
    if alpha == 1.0:
        ys = phat.sample(rng, n_mc)
        terms = phat.log_density(ys) - truth.log_density(ys)
    else:
        ys = truth.sample(rng, n_mc)
        delta = phat.log_density(ys) - truth.log_density(ys)
        if alpha == -1.0:
            terms = -delta
        else:
            terms = 4.0 * -np.expm1((1.0 + alpha) / 2.0 * delta) / (1.0 - alpha * alpha)
    mean = float(np.mean(terms))
    se = float(np.std(terms, ddof=1) / math.sqrt(n_mc))
    return RiskEstimate(mean=mean, std_error=se, reps=n_mc, seed=int(seed))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    # np.sum / np.std use pairwise summation over the index-ordered array.
    n = values.size
    mean = float(np.sum(values) / n)
    se = float(np.std(values, ddof=1) / math.sqrt(n))
    return mean, se


def risk_d1_mc(
    procedure: Callable[[CanonicalObservation], PluginEstimate],
    problem: CanonicalProblem,
    params: CanonicalParams,
    reps: int,
    seed: int,
) -> RiskEstimate:
    """Simulated alpha = 1 risk of an estimation procedure.

    ``procedure`` maps a canonical observation to plug-in estimates; the
    loss of each replication is the closed-form plug-in divergence.
    """
    reps = int(reps)
    if reps < 100:
        raise ValueError("reps must be at least 100")
    sigma2 = params.sigma2

    def body(i: int) -> float:
        obs = simulate_observation(problem, params, seed, rep_index=i)
        est = procedure(obs)
        return d1_loss_plugin(est.theta_hat, est.sigma2_hat, params.theta, sigma2, problem.m)

    losses = np.fromiter(map(body, range(reps)), dtype=float, count=reps)
    mean, se = _mean_se(losses)
    return RiskEstimate(mean=mean, std_error=se, reps=reps, seed=int(seed))


def risk_alpha_mc(
    density_builder: Callable[[CanonicalObservation, int], PredictiveDensity],
    problem: CanonicalProblem,
    params: CanonicalParams,
    alpha: float,
    reps_outer: int,
    n_mc_inner: int,
    seed: int,
) -> RiskEstimate:
    """Nested Monte Carlo alpha-divergence risk of a predictive density rule.

    ``density_builder(obs, rep_index)`` must return a normalized density;
    the outer loop draws observations, the inner loop estimates the
    divergence at each.  The reported standard error covers outer variation
    only.  Replications whose normalization fails are excluded; more than
    1% exclusions aborts the run.

    At alpha = 1 the builder must return a plug-in density, whose closed
    form replaces the inner Monte Carlo.
    """
    reps_outer = int(reps_outer)
    if reps_outer < 50:
        raise ValueError("reps_outer must be at least 50")
    alpha = float(alpha)
    sigma2 = params.sigma2
    excluded = np.zeros(reps_outer, dtype=bool)

    def body(i: int) -> float:
        obs = simulate_observation(problem, params, seed, rep_index=i)
        try:
            dens = density_builder(obs, i)
        except UnreliableNormalizationError:
            excluded[i] = True
            return np.nan
        if alpha == 1.0:
            if dens.plugin is None:
                raise ValueError("alpha = 1 risk needs a plug-in density")
            return d1_loss_plugin(dens.plugin.theta_hat, dens.plugin.sigma2_hat,
                                  params.theta, sigma2, problem.m)
        inner = alpha_divergence_mc(dens, params.theta, params.eta, problem,
                                    alpha, n_mc_inner, seed, rep_index=i)
        return inner.mean

    losses = np.fromiter(map(body, range(reps_outer)), dtype=float, count=reps_outer)
    n_excluded = int(excluded.sum())
    if n_excluded > EXCLUSION_CEILING * reps_outer:
        raise ExclusionCeilingError(
            f"{n_excluded} of {reps_outer} replications failed normalization"
        )
    kept = losses[~excluded]
    mean, se = _mean_se(kept)
    return RiskEstimate(mean=mean, std_error=se, reps=int(kept.size), seed=int(seed))


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def chi_square_identity_check(
    phi: Callable[[np.ndarray], np.ndarray],
    dof: int,
    n_mc: int,
    seed: int,
    phi_prime: Callable[[np.ndarray], np.ndarray] | None = None,
    numerator_dof: int = 3,
    sigma2: float = 1.0,
) -> ChiSquareCheck:
    """Paired Monte Carlo check of the chi-square integration-by-parts identity.

    With S ~ sigma^2 chi^2_dof, U ~ sigma^2 chi^2_numerator_dof independent
    and W = U/S, compares E[phi(W) S / (W sigma^2)] against
    E[(dof + 2) phi(W)/W - 2 phi'(W)].  Returns lhs, rhs, their gap and the
    standard error of the paired differences.  phi' defaults to a central
    finite difference.
    """
    if phi_prime is None:
        def phi_prime(w, _phi=phi):
            h = 1e-6 * np.maximum(1.0, np.abs(w))
            return (_phi(w + h) - _phi(w - h)) / (2.0 * h)

    rng = replication_rng(seed, 0, stream=STREAM_IDENTITY)
    s = sigma2 * rng.chisquare(dof, n_mc)
    u = sigma2 * rng.chisquare(numerator_dof, n_mc)
    w = u / s
    pw = phi(w)
    lhs_terms = pw * s / (w * sigma2)
    rhs_terms = (dof + 2.0) * pw / w - 2.0 * phi_prime(w)
    diff = lhs_terms - rhs_terms
    se = float(np.std(diff, ddof=1) / math.sqrt(n_mc))
    return ChiSquareCheck(
        lhs=float(np.mean(lhs_terms)),
        rhs=float(np.mean(rhs_terms)),
        gap=float(np.mean(diff)),
        std_error=se,
    )


def log_inequality_margin(x: np.ndarray) -> np.ndarray:
    """Margin of the bound -log(1-x) <= x + x^2/(2(1-x)) for x in (0, 1).

    Nonnegative wherever the bound holds; evaluated with log1p to keep the
    cancellation at small x below the margin itself.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise ValueError("x must lie in (0, 1)")
    return x + 0.5 * x * x / (1.0 - x) + np.log1p(-x)
