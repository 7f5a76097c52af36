"""Monte Carlo oracles for the exact quadratures of shrinkpred, and the samplers they draw with.

The program computes the shrinkage density's constant by certified
Gauss-Jacobi rules (predictive.shrinkage_bayes_kernel), the alpha < 1
losses by Gauss-Laguerre rules and the alpha = -1 losses' Frullani
integrals by Gauss-Legendre rules (risk.alpha_divergence_loss), and both
sides of the chi-square identity by one Gauss-Jacobi certificate
(identities.chi_square_identity).  The tests check them against
independent Monte Carlo estimates: normalize_density by importance
sampling, alpha_divergence_mc by sampling the truth (or, at alpha = 1, the
estimate), chi_square_identity_mc by paired chi-square draws.  Each draws
on its own keyed stream, STREAM_NORMALIZATION, STREAM_DIVERGENCE or
STREAM_IDENTITY, which canonical keeps reserved.  log_marginal_kernel is
the alpha = 1 marginal whose gradient gives the plug-in estimators.  Tests
import these as ``from oracles import ...``, as they import from conftest.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from shrinkpred.canonical import STREAM_DIVERGENCE, STREAM_IDENTITY, STREAM_NORMALIZATION, replication_rng
from shrinkpred.identities import CHISQ_DOF, CHISQ_NUMERATOR_DOF
from shrinkpred.predictive import DegenerateObservationError, PluginEstimate, PredictiveKernel
from shrinkpred.quad import UnreliableNormalizationError
from shrinkpred.risk import RiskEstimate

MIN_ESS_FRACTION = 0.05


def sample(density: PredictiveKernel | PluginEstimate, rng: np.random.Generator, size: int) -> np.ndarray:
    """size draws, shape (size, m), of one observation's plug-in normal or best invariant t.

    The t, the kernel of exponent B = 0 on its second factor, is
    Q v + sqrt(A_u) z sqrt(s/chi2_dof), A_u = c2 I + Q diag(d) Q': the normal
    draws z come first, then the chi-square draws.  A block density, or a
    shrinkage kernel (B > 0), raises ValueError.
    """
    if isinstance(density, PluginEstimate):
        m = density._single_m(density.sigma2_hat)
        mean = density.problem.Q @ density.theta_hat
        return mean + math.sqrt(density.sigma2_hat) * rng.standard_normal((size, m))
    m = density._single_m(density.s)
    if density.B:
        raise ValueError("the shrinkage density has no sampler")
    y = rng.standard_normal((size, m))
    # sqrt(A_u) y = sqrt(c2) y + Q diag(sqrt(c2 + d) - sqrt(c2)) Q' y, in place
    root_c2, Q = math.sqrt(density.c2), density.problem.Q
    yq = y @ Q
    yq *= np.sqrt(density.c2 + density.problem.d) - root_c2
    y *= root_c2
    y += yq @ Q.T
    y *= np.sqrt(density.s / rng.chisquare(density.dof, size))[:, None]
    y += Q @ density.v
    return y


def normalize_density(log_unnormalized: Callable[[np.ndarray], np.ndarray],
                      proposal: PredictiveKernel | PluginEstimate, n_samples: int, seed: int,
                      rep_index: int = 0) -> tuple[float, float]:
    """Normalize a density by importance sampling against a known proposal.

    The oracle for the quadrature constant of shrinkage_bayes_kernel.  The
    proposal, one observation's best invariant kernel or a plug-in normal,
    must dominate the target.  Returns (log_norm_const, rel_se): the
    constant that normalizes log_unnormalized, and the relative standard
    error of its integral.  Raises UnreliableNormalizationError when the
    effective sample size drops below MIN_ESS_FRACTION of n_samples.
    """
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rng = replication_rng(seed, rep_index, stream=STREAM_NORMALIZATION)
    ys = sample(proposal, rng, n_samples)
    logw = log_unnormalized(ys) - proposal.log_density(ys)
    shift = float(np.max(logw))
    w = np.exp(logw - shift)
    zbar = float(np.mean(w))
    ess = float(w.sum() ** 2 / (w @ w))
    if ess < MIN_ESS_FRACTION * n_samples:
        raise UnreliableNormalizationError(
            f"effective sample size {ess:.1f} of {n_samples} is below the 5% guard"
        )
    return -(shift + math.log(zbar)), float(np.std(w, ddof=1) / math.sqrt(n_samples) / zbar)


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


def alpha_divergence_mc(
    phat: PredictiveKernel | PluginEstimate,
    theta,
    eta: float,
    alpha: float,
    n_mc: int,
    seed: int,
    rep_index: int = 0,
) -> RiskEstimate:
    """Monte Carlo alpha-divergence of phat from the true density N_m(Q theta, I/eta), Q that of phat's problem.

    The oracle for risk.alpha_divergence_loss.  phat is one observation's
    density: a PredictiveKernel or a PluginEstimate.  For alpha < 1 the draws
    come from the truth; at alpha = 1 the integral runs against phat itself,
    so phat must be samplable there (a plug-in normal or a best invariant
    kernel; a shrinkage kernel raises ValueError).
    """
    alpha = float(alpha)
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    n_mc = int(n_mc)
    if n_mc < 100:
        raise ValueError("n_mc must be at least 100")
    truth = PluginEstimate(phat.problem, theta, 1.0 / eta)
    rng = replication_rng(seed, rep_index, stream=STREAM_DIVERGENCE)
    if alpha == 1.0:
        ys = sample(phat, rng, n_mc)
        terms = phat.log_density(ys) - truth.log_density(ys)
    else:
        ys = sample(truth, rng, n_mc)
        terms = f_alpha(phat.log_density(ys) - truth.log_density(ys), alpha)
    mean = float(np.mean(terms))
    se = float(np.std(terms, ddof=1) / math.sqrt(n_mc))
    return RiskEstimate(mean=mean, std_error=se, reps=n_mc)


def chi_square_identity_mc(phi: Callable[[np.ndarray], np.ndarray], phi_prime: Callable[[np.ndarray], np.ndarray],
                           n_mc: int, seed: int) -> tuple[RiskEstimate, RiskEstimate]:
    """Monte Carlo estimates of both sides of the chi-square identity, from one set of paired draws.

    The oracle for identities.chi_square_identity.  With S ~ chi^2_CHISQ_DOF
    and U ~ chi^2_CHISQ_NUMERATOR_DOF independent and W = U/S, returns the
    sample means of phi(W) S/W and of (CHISQ_DOF + 2) phi(W)/W - 2 phi'(W),
    each with its standard error.
    """
    rng = replication_rng(seed, 0, stream=STREAM_IDENTITY)
    s = rng.chisquare(CHISQ_DOF, n_mc)
    w = rng.chisquare(CHISQ_NUMERATOR_DOF, n_mc) / s
    pw = phi(w)
    sides = (pw * s / w, (CHISQ_DOF + 2.0) * pw / w - 2.0 * phi_prime(w))
    return tuple(RiskEstimate(float(np.mean(t)), float(np.std(t, ddof=1) / math.sqrt(n_mc)), n_mc) for t in sides)


def log_marginal_kernel(
    v: np.ndarray,
    v_star: np.ndarray,
    s: float,
    d: np.ndarray,
    c: np.ndarray,
    gamma_prior: float,
    a: float,
    n: int,
    k: int,
) -> float:
    """Log marginal kernel of (V, V*, S) under the shrinkage prior at alpha = 1.

    Up to a constant: -(n-k)/2 log s - (k/2 + a + 1) log(V'C^{-1}D^{-1}V +
    |V*|^2/gamma + s).  Its gradient reproduces the plug-in estimators.
    """
    v = np.asarray(v, dtype=float).ravel()
    v_star = np.asarray(v_star, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    if s <= 0:
        raise DegenerateObservationError("s must be positive")
    u = float(v @ (v / (c * d)) + v_star @ v_star / gamma_prior)
    return -(n - k) / 2.0 * math.log(s) - (k / 2.0 + a + 1.0) * math.log(u + s)
