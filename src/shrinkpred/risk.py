"""Alpha-divergence losses and Monte Carlo risk estimation.

The divergence family is indexed by alpha in [-1, 1]: alpha = -1 is the
Kullback-Leibler divergence from the truth to the estimate, alpha = 1 the
reversed form.  Every loss takes the truth N_m(Q theta, I), in units of
sigma: risk_mc alone handles scale.  alpha_divergence_loss scores a whole
block of densities at every alpha.  At alpha = 1 the divergence between a
plug-in normal (a predictive.PluginEstimate) and the truth has the closed
form (L1 + m L2)/2 combining scale-invariant quadratic loss and entropy loss,
and the unbiased baseline has the known constant risk
(tr D + m (log gamma - psi(gamma)))/2 with gamma = (n-k)/2, psi summed in
closed form.  For alpha < 1 the divergence of a predictive density (a
predictive.PredictiveKernel) from the truth is computed exactly too: from
the kernel's affinity with the truth (predictive._log_affinity) on quad's
certified Gauss-Laguerre ladder, and at alpha = -1 from its factors'
expected logs (predictive._expected_log, Frullani integrals).  Risks are
then single-level Monte Carlo averages of exact losses at every alpha, in
numpy alone.

Rows, then reductions: risk_mc scores keyed observation blocks (with scorer,
at any alpha) into a table of per-row losses, and RiskEstimate.of reduces a
row by pairwise summation in replication order, so reruns agree bit for bit.
The exact losses' oracle is tests/oracles.py's alpha_divergence_mc.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .canonical import (
    BLOCK_SIZE,
    CanonicalObservation,
    CanonicalParams,
    CanonicalProblem,
    _row_dot,
    simulate_observation,
)
from .predictive import PluginEstimate, PredictiveKernel, _expected_log, _log_affinity
from .quad import certified

__all__ = [
    "RiskEstimate",
    "d1_loss_plugin",
    "minimax_risk",
    "alpha_divergence_loss",
    "min_reps",
    "scorer",
    "risk_mc",
    "risk_d1_mc",
]

MIN_REPS = 50  # the fewest rows risk_mc fills
Scorer = Callable[[CanonicalObservation, CanonicalParams], np.ndarray]  # (block, params) -> one value per row


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    std_error: float
    reps: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.reps < 2:
            raise ValueError("reps must be at least 2")

    @classmethod
    def of(cls, losses: np.ndarray) -> RiskEstimate:
        """Mean and standard error of per-row losses, by numpy's pairwise sums in replication order."""
        reps = np.size(losses)
        return cls(float(np.sum(losses) / reps), float(np.std(losses, ddof=1) / math.sqrt(reps)), reps)


# ---------------------------------------------------------------------------
# Closed-form losses
# ---------------------------------------------------------------------------

def d1_loss_plugin(theta_hat, sigma2_hat, theta, m: int):
    """Closed-form alpha = 1 divergence of a plug-in normal from the truth N_m(Q theta, I).

    Equals (L1 + m L2)/2 with L1 the scale-invariant quadratic loss of the
    mean and L2 the entropy loss of the variance; one loss per row of a block.
    """
    sigma2_hat = np.asarray(sigma2_hat, dtype=float)
    if np.any(sigma2_hat <= 0):
        raise ValueError("variances must be positive")
    diff = np.asarray(theta_hat, dtype=float) - np.asarray(theta, dtype=float)
    return 0.5 * (_row_dot(diff, diff) + m * (sigma2_hat - np.log(sigma2_hat) - 1.0))


def _digamma_half(q: int) -> float:
    """psi(q/2) for an integer q >= 1, in closed form.

    psi(x) = -gamma + sum_{j<x} 1/j at integers x and
    -gamma - 2 log 2 + sum_{j<=floor(x)} 2/(2j-1) at half-integers;
    fsum reads its terms one at a time, so memory stays flat in q.
    """
    if q % 2 == 0:
        return math.fsum(itertools.chain([-np.euler_gamma], (1.0 / j for j in range(1, q // 2))))
    return math.fsum(itertools.chain([-np.euler_gamma, -2.0 * math.log(2.0)],
                                     (2.0 / (2 * j - 1) for j in range(1, q // 2 + 1))))


def minimax_risk(problem: CanonicalProblem) -> float:
    """Constant risk of the unbiased baseline under the alpha = 1 loss."""
    q = problem.n - problem.k
    return 0.5 * (float(problem.d.sum()) + problem.m * (math.log(q / 2.0) - _digamma_half(q)))


# ---------------------------------------------------------------------------
# Exact losses and Monte Carlo risk
# ---------------------------------------------------------------------------


def alpha_divergence_loss(density: PredictiveKernel | PluginEstimate, theta) -> float | np.ndarray:
    """Exact alpha-divergence of each row's predictive density from the truth N_m(Q theta, I).

    At alpha = 1 a plug-in estimate's loss is the closed form d1_loss_plugin.
    For |alpha| < 1 the loss is -4 expm1(log I)/(1 - alpha^2), I the affinity
    int p^((1-alpha)/2) phat^((1+alpha)/2) (_log_affinity), by generalized
    Gauss-Laguerre rules certified row by row (quad.certified).  At alpha = -1
    it is E log p - E log phat, with E log p = -(m/2)(log(2 pi) + 1) and
    each kernel factor's E log(q(Y) + o) a Frullani integral (_expected_log).
    Raises UnreliableNormalizationError when a row's quadrature fails its
    certificate.
    """
    theta = np.asarray(theta, dtype=float)
    if isinstance(density, PluginEstimate):
        loss = d1_loss_plugin(density.theta_hat, density.sigma2_hat, theta, density.problem.m)
        return loss if np.ndim(loss) else float(loss)
    block = density if np.ndim(density.s) else density[None]
    m = block.problem.m
    if block.alpha == -1.0:
        loss = -(m / 2.0) * (math.log(2.0 * math.pi) + 1.0) - block.log_const
        loss = loss + block.A * _expected_log(block, False, theta)
        if block.B:  # a factor of exponent 0 needs no Frullani integral
            loss = loss + block.B * _expected_log(block, True, theta)
    else:
        scale, log_i = 4.0 / (1.0 - block.alpha * block.alpha), _log_affinity(block, theta)
        loss = certified(lambda n, index: -scale * np.expm1(log_i(n, index)), np.size(block.s),
                         f"loss quadrature at alpha = {block.alpha:.6g}")
    return loss if np.ndim(density.s) else float(loss[0])


def min_reps(alpha: float) -> int:
    """The fewest replications a risk at alpha takes: risk_mc's MIN_REPS, raised to 100 at alpha = 1."""
    return 100 if alpha == 1.0 else MIN_REPS


def scorer(rule: Callable[[CanonicalObservation], PredictiveKernel | PluginEstimate], alpha: float) -> Scorer:
    """Score a block's densities by the exact alpha_divergence_loss; each density must be built at alpha."""
    def score(block: CanonicalObservation, params: CanonicalParams) -> np.ndarray:
        density = rule(block)
        if density.alpha != alpha:
            raise ValueError(f"a rule built its density at alpha = {density.alpha}, not {alpha}")
        return alpha_divergence_loss(density, params.theta)
    return score


def risk_mc(scorers: Collection[Scorer], problem: CanonicalProblem, points: Sequence[CanonicalParams], reps: int,
            seed: int) -> np.ndarray:
    """The (points x scorers x reps) table of per-row values, on common draws, in units of sigma.

    A scorer sees each point's unit-scale twin (theta sqrt(eta), mu sqrt(eta),
    eta = 1) and its block; the rules must be scale-equivariant (all six in
    predictive are), so a point's risk is its twin's.  Each keyed block (the
    last truncated) is drawn once for every point from shared standard draws
    (canonical.simulate_observation), so a point's rows are those a run at
    it alone would give, in replication order in table[i, j] for scorer j.
    A scorer's error, such as a failed quadrature certificate, propagates.
    """
    reps = int(reps)
    if reps < MIN_REPS:
        raise ValueError(f"reps must be at least {MIN_REPS}")
    twins = [CanonicalParams(p.theta * math.sqrt(p.eta), p.mu * math.sqrt(p.eta), 1.0) for p in points]
    losses = np.empty((len(points), len(scorers), reps))
    for start in range(0, reps, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, reps)
        blocks = simulate_observation(problem, twins, seed, start // BLOCK_SIZE)
        for params, block, point_losses in zip(twins, blocks, losses):
            block = block[:stop - start]
            for row, score in zip(point_losses, scorers):
                row[start:stop] = score(block, params)
    return losses


def risk_d1_mc(procedure: Callable[[CanonicalObservation], PluginEstimate], problem: CanonicalProblem,
               params: CanonicalParams, reps: int, seed: int) -> RiskEstimate:
    """Simulated alpha = 1 risk of one plug-in procedure at one point; kept only while perfbench/ calls it."""
    if reps < min_reps(1.0):
        raise ValueError(f"reps must be at least {min_reps(1.0)}")
    return RiskEstimate.of(risk_mc([scorer(procedure, 1.0)], problem, [params], reps, seed)[0, 0])
