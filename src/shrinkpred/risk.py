"""Alpha-divergence losses and Monte Carlo risk estimation.

The divergence family is indexed by alpha in [-1, 1]: alpha = -1 is the
Kullback-Leibler divergence from the truth to the estimate, alpha = 1 the
reversed form.  At alpha = 1 the divergence between a plug-in normal and
the truth has the closed form (L1 + m L2)/2 combining scale-invariant
quadratic loss and entropy loss, and the unbiased baseline has the known
constant risk (tr D + m (log gamma - psi(gamma)))/2 with gamma = (n-k)/2.
For alpha < 1 risks are estimated by nested Monte Carlo.

Observations come in keyed blocks (canonical.simulate_observation), the
inner divergence draws are keyed by (seed, replication), and losses are
reduced by pairwise summation in replication order, so reruns agree bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import digamma

from .canonical import (
    BLOCK_SIZE,
    STREAM_DIVERGENCE,
    STREAM_IDENTITY,
    CanonicalObservation,
    CanonicalParams,
    CanonicalProblem,
    replication_rng,
    simulate_observation,
)
from .predictive import PluginEstimate, PredictiveDensity, plugin_density

__all__ = [
    "RiskEstimate",
    "ChiSquareCheck",
    "f_alpha",
    "d1_loss_plugin",
    "minimax_risk",
    "alpha_divergence_mc",
    "risk_mc",
    "risk_d1_mc",
    "chi_square_identity_check",
    "log_inequality_margin",
]

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

def f_alpha(log_z, alpha: float):
    """Convex generator of the alpha-divergence at the density ratio z = exp(log_z).

    4(1 - z^{(1+alpha)/2})/(1 - alpha^2) for |alpha| < 1, z log z at
    alpha = 1, -log z at alpha = -1; elementwise over an array of log ratios.
    """
    alpha = float(alpha)
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    log_z = np.asarray(log_z, dtype=float)
    if alpha == 1.0:
        return np.exp(log_z) * log_z
    if alpha == -1.0:
        return -log_z
    return 4.0 * -np.expm1((1.0 + alpha) / 2.0 * log_z) / (1.0 - alpha * alpha)


def d1_loss_plugin(theta_hat, sigma2_hat, theta, sigma2: float, m: int):
    """Closed-form alpha = 1 divergence of a plug-in normal from the truth.

    Equals (L1 + m L2)/2 with L1 the scale-invariant quadratic loss of the
    mean and L2 the entropy loss of the variance; one loss per row of a block.
    """
    sigma2_hat = np.asarray(sigma2_hat, dtype=float)
    if np.any(sigma2_hat <= 0) or sigma2 <= 0:
        raise ValueError("variances must be positive")
    diff = np.asarray(theta_hat, dtype=float) - np.asarray(theta, dtype=float)
    ratio = sigma2_hat / sigma2
    return 0.5 * (np.sum(diff * diff, axis=-1) / sigma2 + m * (ratio - np.log(ratio) - 1.0))


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
    truth = plugin_density(PluginEstimate(theta_hat=theta, sigma2_hat=1.0 / eta, w=math.inf), problem)
    rng = replication_rng(seed, rep_index, stream=STREAM_DIVERGENCE)
    if alpha == 1.0:
        ys = phat.sample(rng, n_mc)
        terms = phat.log_density(ys) - truth.log_density(ys)
    else:
        ys = truth.sample(rng, n_mc)
        terms = f_alpha(phat.log_density(ys) - truth.log_density(ys), alpha)
    mean = float(np.mean(terms))
    se = float(np.std(terms, ddof=1) / math.sqrt(n_mc))
    return RiskEstimate(mean=mean, std_error=se, reps=n_mc, seed=int(seed))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    # np.sum / np.std use pairwise summation over the index-ordered array.
    n = values.size
    mean = float(np.sum(values) / n)
    se = float(np.std(values, ddof=1) / math.sqrt(n))
    return mean, se


def risk_mc(rules: dict[str, Callable[[CanonicalObservation], PluginEstimate | PredictiveDensity]],
            problem: CanonicalProblem, params: CanonicalParams, alpha: float, reps: int, seed: int,
            n_mc_inner: int = 0) -> dict[str, RiskEstimate]:
    """Simulated alpha-divergence risks of several rules on common observations.

    Replications are the rows of the keyed observation blocks (the last one
    truncated), each block drawn once for every rule.  At alpha = 1
    ``rule(obs)`` maps a whole block to a block of plug-in estimates, scored
    in one pass by the closed-form plug-in divergence.  Below 1 it maps one
    row to a normalized density, scored by an inner Monte Carlo of
    ``n_mc_inner`` draws keyed by (seed, replication), whose noise is part of
    the outer variation the standard error reports.  A normalization failure
    (UnreliableNormalizationError) propagates.  Returns ``{name: RiskEstimate}``
    in the order of ``rules``.
    """
    alpha = float(alpha)
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    reps = int(reps)
    # a nested estimate pays an inner Monte Carlo per rep, so allows fewer
    min_reps = 100 if alpha == 1.0 else 50
    if reps < min_reps:
        raise ValueError(f"reps must be at least {min_reps}")
    losses = np.empty((len(rules), reps))
    for start in range(0, reps, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, reps)
        block = simulate_observation(problem, params, seed, start // BLOCK_SIZE)[:stop - start]
        if alpha == 1.0:
            for j, rule in enumerate(rules.values()):
                out = rule(block)
                losses[j, start:stop] = d1_loss_plugin(out.theta_hat, out.sigma2_hat, params.theta,
                                                       params.sigma2, problem.m)
            continue
        for i in range(start, stop):
            obs = block[i - start]
            for j, rule in enumerate(rules.values()):
                losses[j, i] = alpha_divergence_mc(rule(obs), params.theta, params.eta, problem,
                                                   alpha, n_mc_inner, seed, rep_index=i).mean
    return {name: RiskEstimate(*_mean_se(loss), reps=reps, seed=int(seed)) for name, loss in zip(rules, losses)}


def risk_d1_mc(procedure: Callable[[CanonicalObservation], PluginEstimate], problem: CanonicalProblem,
               params: CanonicalParams, reps: int, seed: int) -> RiskEstimate:
    """Simulated alpha = 1 risk of one block-aware estimation procedure (see risk_mc)."""
    return risk_mc({"procedure": procedure}, problem, params, 1.0, reps, seed)["procedure"]


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
