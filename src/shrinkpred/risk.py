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
predictive.PredictiveKernel) from the truth is computed exactly too: Gamma
integrals and a Gaussian integral in y leave 1-D or 2-D Gauss-Laguerre
rules, and at alpha = -1 Frullani integrals, all on the certified rules of
quad.  The Gaussian integral factors over the axes, and axes with equal
scales (c2 + d, c2 + e_b) share one factor, so a rule's work grows with the
number of such spectral groups (PredictiveKernel.groups; one in the replicated design), not with m;
each row's few coefficients per group multiply node-pair arrays fixed per
rule.  Risks are then single-level Monte Carlo averages of exact losses at
every alpha, in numpy alone.

Rows, then reductions: risk_mc scores keyed observation blocks (with scorer,
at any alpha) into a table of per-row losses, and RiskEstimate.of reduces a
row by pairwise summation in replication order, so reruns agree bit for bit.
The exact losses' oracle is tests/oracles.py's alpha_divergence_mc.
"""

from __future__ import annotations

import functools
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
from .predictive import PluginEstimate, PredictiveKernel
from .quad import certified, laguerre, log_trapezoid

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

# _node_pairs leaves out pairs below e^-LOSS_WEIGHT_DROP of the heaviest; LOSS_CHUNK bounds one temporary (256 kB)
LOSS_WEIGHT_DROP, LOSS_CHUNK = 60.0, 1 << 15
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
    -gamma - 2 log 2 + sum_{j<=floor(x)} 2/(2j-1) at half-integers.
    """
    if q % 2 == 0:
        return math.fsum([-np.euler_gamma] + [1.0 / j for j in range(1, q // 2)])
    return math.fsum([-np.euler_gamma, -2.0 * math.log(2.0)] + [2.0 / (2 * j - 1) for j in range(1, q // 2 + 1)])


def minimax_risk(problem: CanonicalProblem) -> float:
    """Constant risk of the unbiased baseline under the alpha = 1 loss."""
    q = problem.n - problem.k
    return 0.5 * (float(problem.d.sum()) + problem.m * (math.log(q / 2.0) - _digamma_half(q)))


# ---------------------------------------------------------------------------
# Exact losses and Monte Carlo risk
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _node_pairs(a_x: float, a_y: float | None, n: int) -> tuple[np.ndarray, ...]:
    """The kept node pairs of the tensor of laguerre(a_x, n) and laguerre(a_y, n): rows 1, X, Y, X Y; log w.

    a_y None stands for a single node 0 of weight 1.  Pairs run x-major, and
    those weighing less than e^-LOSS_WEIGHT_DROP of the heaviest are left
    out.  Memoized per (a_x, a_y, n); the arrays are read-only.
    """
    x, log_wx = laguerre(a_x, n)
    y, log_wy = (np.zeros(1), np.zeros(1)) if a_y is None else laguerre(a_y, n)
    log_w = (log_wx[:, None] + log_wy).ravel()
    keep = log_w >= log_w.max() - LOSS_WEIGHT_DROP
    X, Y = np.repeat(x, y.size)[keep], np.tile(y, x.size)[keep]
    out = np.stack([np.ones_like(X), X, Y, X * Y]), log_w[keep]
    for array in out:
        array.setflags(write=False)
    return out


def _log_affinity(kernel: PredictiveKernel, theta: np.ndarray) -> Callable[[int, np.ndarray], np.ndarray]:
    """log_i(n, index): log I, I = int p^(1-beta) phat^beta, for the rows index of kernel at n nodes per factor.

    Each factor (q + s)^(-A beta) = int t^(A beta - 1) e^(-t(q + s)) dt / Gamma(A beta),
    after which y integrates as a Gaussian: per axis, with kappa = (1-alpha)/4, a
    factor (pi sigma_u sigma_b/P)^(1/2) exp(-(t dv + u db + t u dvb)/P), where
    P = kappa sigma_u sigma_b + sigma_b t + sigma_u u, dv = kappa sigma_b (theta - v)^2,
    db = kappa sigma_u (theta - theta_b)^2 and dvb = (v - theta_b)^2.  The axes
    of one spectral group (kernel.groups) share P: its size scales the log,
    and its members' deviations along Q add up.  The rules run in the node
    coordinates X = t s and Y = u o, where P = kappa sigma_u sigma_b
    + (sigma_b/s) X + (sigma_u/o) Y and the exponent's numerator is
    (dv/s) X + (db/o) Y + (dvb/(s o)) X Y: each row has two triples of
    coefficients per group, built once as (rows, 3) arrays, which np.einsum
    contracts with the bases [1, X, Y] and [X, Y, XY], the first and last
    three rows of _node_pairs's array.  einsum without optimize sums each element in the same
    order whatever the number of rows, where a BLAS product need not, so a
    row's bits do not depend on its chunk.  A kernel without a second
    factor takes the single node u = 0.  The integrand is at most
    (pi/kappa)^(m/2), so dropping light pairs is safe; rows go
    LOSS_CHUNK // kept at a time.
    """
    alpha, m, l = kernel.alpha, kernel.problem.m, kernel.problem.l
    beta, kappa = (1.0 + alpha) / 2.0, (1.0 - alpha) / 4.0
    s = np.reshape(kernel.s, -1)
    theta_b, o, a_y = ((kernel.v, np.ones_like(s), None) if kernel.o is None
                       else (kernel.theta_b, np.reshape(kernel.o, -1), kernel.B * beta - 1.0))
    v, theta_b = np.reshape(kernel.v, (-1, l)), np.reshape(theta_b, (-1, l))
    log_const = beta * np.reshape(kernel.log_const, -1) - kernel.A * beta * np.log(s) - kernel.B * beta * np.log(o)
    log_const += (m * (1.0 - alpha) / 4.0) * math.log(1.0 / (2.0 * math.pi))
    terms = []
    for count, sigma_u, sigma_b, eig in kernel.groups:
        log_const += (count / 2.0) * math.log(math.pi * sigma_u * sigma_b)
        lin = np.stack([np.full_like(s, kappa * sigma_u * sigma_b), sigma_b / s, sigma_u / o], axis=1)
        dev = np.stack([kappa * sigma_b * ((theta[eig] - v[:, eig]) ** 2).sum(axis=1) / s,
                        kappa * sigma_u * ((theta[eig] - theta_b[:, eig]) ** 2).sum(axis=1) / o,
                        ((v[:, eig] - theta_b[:, eig]) ** 2).sum(axis=1) / (s * o)], axis=1) if eig else None
        terms.append((count / 2.0, lin, dev))

    def log_i(n: int, index: np.ndarray) -> np.ndarray:
        basis, log_w = _node_pairs(kernel.A * beta - 1.0, a_y, n)
        width = max(1, LOSS_CHUNK // log_w.size)
        chosen = [(half, lin[index], None if dev is None else dev[index]) for half, lin, dev in terms]
        out = log_const[index]
        for lo in range(0, index.size, width):
            log_f = log_w   # each subtraction writes into the temporary it consumes
            for half, lin, dev in chosen:
                P = np.einsum("ik,kj->ij", lin[lo:lo + width], basis[:3])
                if dev is not None:
                    num = np.einsum("ik,kj->ij", dev[lo:lo + width], basis[1:])
                    log_f = np.subtract(log_f, np.divide(num, P, out=num), out=num)
                log_f = np.subtract(log_f, np.multiply(half, np.log(P, out=P), out=P), out=P)
            shift = log_f.max(axis=1)
            log_f -= shift[:, None]
            out[lo:lo + width] += shift + np.log(np.exp(log_f, out=log_f).sum(axis=1))
        return out

    return log_i


def _expected_log(kernel: PredictiveKernel, second: bool, theta: np.ndarray) -> np.ndarray:
    """E log(q(Y) + o) for each row, Y ~ N(Q theta, I), q and o a kernel factor's quadratic form and offset.

    log(q + o) = log o + int_0^inf e^-t (1 - e^(-t q/o)) dt/t (Frullani), and
    M(tau) = E e^(-tau q(Y)) = prod_j (1 + 2 tau/sigma_j)^(-n_j/2) exp(-(tau/sigma_j) dev_j/(1 + 2 tau/sigma_j))
    over kernel.groups: group j has n_j axes at the factor's scale sigma_j (sigma_u, or sigma_b for the second
    factor), and dev_j sums (theta_i - mu_i)^2 over its axes along Q, mu the factor's center.  The t-integral
    is positive and runs on z = log t by quad.log_trapezoid.
    """
    o = np.reshape(kernel.o if second else kernel.s, -1)
    sq = np.reshape(theta - (kernel.theta_b if second else kernel.v), (-1, kernel.problem.l)) ** 2
    terms = [(n / 2.0, sigma[second], sq[:, axes].sum(axis=1) / sigma[second]) for n, *sigma, axes in kernel.groups]

    def g(z: np.ndarray, rows: slice) -> np.ndarray:
        t, log_m = np.exp(z), 0.0
        tau = t / o[rows, None]
        for half, sigma, dev in terms:
            grow = 2.0 * tau / sigma
            log_m = log_m - half * np.log1p(grow) - tau * dev[rows, None] / (1.0 + grow)
        return -t + np.log(-np.expm1(log_m))

    return np.log(o) + np.exp(log_trapezoid(g, o.size))


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
        if block.o is not None:
            loss = loss + block.B * _expected_log(block, True, theta)
    else:
        scale, log_i = 4.0 / (1.0 - block.alpha * block.alpha), _log_affinity(block, theta)
        loss = certified(lambda n, index: -scale * np.expm1(log_i(n, index)), np.size(block.s))
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
