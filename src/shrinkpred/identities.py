"""The identity suite: the identities the paper's densities and its alpha = 1 domination proof rest on.

Four checks, all exact up to rounding or a certified quadrature:

* the quadratic-form lemma (lemma_identity_residual) on LEMMA_INSTANCES
  random instances;
* the beta integral (beta_integral_identity), quad.log_trapezoid against its
  closed form, on BETA_INSTANCES random instances;
* the chi-square integration-by-parts identity (chi_square_identity) at the
  shrinkage factor phi(w) = nu w/(nu + 1 + w), nu = CHISQ_NU, as one
  integral over W = U/S for each side;
* the bound -log(1-x) <= x + x^2/(2(1-x)) (log_inequality_margin) on a grid
  of LOG_GRID_POINTS points in (0, 0.99).

Instance i of the lemma and beta checks draws from its own keyed stream,
STREAM_LEMMA or STREAM_BETA, so the suite depends on the master seed alone
and reruns agree bit for bit.  The chi-square identity's Monte Carlo
reference lives with the tests (tests/oracles.py).
"""

from __future__ import annotations

import math

import numpy as np

from .canonical import STREAM_BETA, STREAM_LEMMA, replication_rng
from .quad import log_trapezoid

__all__ = [
    "lemma_identity_residual",
    "beta_integral_identity",
    "chi_square_identity",
    "log_inequality_margin",
    "run_identities",
]

LEMMA_INSTANCES, BETA_INSTANCES, LOG_GRID_POINTS = 200, 50, 10_000
# lemma and beta relative gaps, the chi-square identity's relative gap and the log bound's least margin
LEMMA_TOL, BETA_TOL, CHISQ_TOL, LOG_TOL = 1e-8, 1e-6, 1e-9, 1e-12
CHISQ_NU, CHISQ_DOF, CHISQ_NUMERATOR_DOF = 0.3, 9, 3


def lemma_identity_residual(F, D_star, Q, ytilde, v) -> tuple[float, float]:
    """Both sides of the quadratic-form rearrangement used in the derivations.

    F and D_star are the diagonals of diagonal matrices, Q has orthonormal
    columns.  Returns (lhs, rhs) where lhs is the direct quadratic form and
    rhs its completed-square re-expression; they agree to rounding error.
    """
    F = np.asarray(F, dtype=float).ravel()
    ds = np.asarray(D_star, dtype=float).ravel()
    Q = np.asarray(Q, dtype=float)
    y = np.asarray(ytilde, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    l = F.size
    if ds.shape != (l,) or v.shape != (l,) or Q.shape != (y.size, l):
        raise ValueError("inconsistent dimensions")
    if np.abs(Q.T @ Q - np.eye(l)).max() > 1e-8:
        raise ValueError("Q must have orthonormal columns")
    g = 1.0 + ds * (1.0 - F)
    if np.any(np.abs(g) < 1e-12):
        raise np.linalg.LinAlgError("I + D*(I - F) is singular")

    t = Q.T @ y + v / ds
    lhs = float(y @ y + v @ (v / ds) - t @ (F / (1.0 + 1.0 / ds) * t))

    loc = Q @ (F / g * v)
    mat = np.eye(y.size) + (Q * (F * ds / g)) @ Q.T
    resid = y - loc
    quad = float(resid @ np.linalg.solve(mat, resid))
    rhs = quad + float(v @ ((ds + 1.0) * (1.0 - F) / (ds * g) * v))
    return lhs, rhs


def beta_integral_identity(a_exp: float, b_exp: float, w: float) -> tuple[float, float]:
    """Quadrature and closed form of int_0^1 t^a (1-t)^b (1 + w t)^{-(a+b+2)} dt.

    At exponent a + b + 2 the integral collapses to
    Be(a+1, b+1) / (w+1)^{a+1}.  The quadrature is quad.log_trapezoid on the
    logit scale t = expit(z), where the integrand becomes
    exp((a+1) log t + (b+1) log(1-t) - (a+b+2) log1p(w t)).  Returns
    (quadrature, closed_form).

    Any a, b > -1 and w > -1 are accepted, but the tails of the logit-scale
    integrand fall with slopes a + 1 and b + 1, so the window must reach
    about quad.QUAD_DROP/(min(a, b) + 1).  The working domain is exponents down to about
    -0.997: at -0.99 and -0.995 the quadrature matches the closed form to
    2e-15, while at -0.998 and below it needs more than quad.QUAD_MAX_INTERVALS
    and raises UnreliableNormalizationError.
    """
    if a_exp <= -1 or b_exp <= -1:
        raise ValueError("exponents must exceed -1")
    if w <= -1:
        raise ValueError("w must exceed -1")

    def g(z: np.ndarray, rows: slice) -> np.ndarray:   # rows is slice(0, 1), the one row, of w
        log_t = -np.logaddexp(0.0, -z)
        return ((a_exp + 1.0) * log_t + (b_exp + 1.0) * -np.logaddexp(0.0, z)
                - (a_exp + b_exp + 2.0) * np.log1p(np.array([[w]]) * np.exp(log_t)))

    log_closed = (math.lgamma(a_exp + 1.0) + math.lgamma(b_exp + 1.0) - math.lgamma(a_exp + b_exp + 2.0)
                  - (a_exp + 1.0) * math.log(w + 1.0))
    return math.exp(float(log_trapezoid(g, 1)[0])), math.exp(log_closed)


def chi_square_identity(phi, phi_prime) -> tuple[float, float]:
    """Both sides of E[phi(W) S/W] = E[(CHISQ_DOF + 2) phi(W)/W - 2 phi'(W)], each one integral over W.

    S ~ chi^2_nu and U ~ chi^2_p are independent (nu = CHISQ_DOF,
    p = CHISQ_NUMERATOR_DOF) and W = U/S.  W has the density
    w^{p/2-1} (1+w)^{-(p+nu)/2} / B(p/2, nu/2), and given W = w, S is
    Gamma((p+nu)/2) with rate (1+w)/2, so E[S | W = w] = (p+nu)/(1+w) and the
    left side is E[phi(W)/W (p+nu)/(1+W)].  phi and phi_prime map an array of
    w to arrays, and both integrands must be positive: quad.log_trapezoid
    integrates their logarithms over z = log w, as the two rows of one grid.
    Returns (lhs, rhs).
    """
    p, nu = CHISQ_NUMERATOR_DOF, CHISQ_DOF
    log_beta = math.lgamma(p / 2.0) + math.lgamma(nu / 2.0) - math.lgamma((p + nu) / 2.0)

    def g(z: np.ndarray, rows: slice) -> np.ndarray:   # rows is slice(0, 2): the lhs, then the rhs
        w = np.exp(z)
        ratio = phi(w) / w
        sides = np.log([ratio * (p + nu) / (1.0 + w), (nu + 2.0) * ratio - 2.0 * phi_prime(w)])
        # dw = w dz, so the density of W carries w^{p/2} on the log scale
        return sides + (p / 2.0 * z - (p + nu) / 2.0 * np.log1p(w) - log_beta)

    lhs, rhs = np.exp(log_trapezoid(g, 2))
    return float(lhs), float(rhs)


def log_inequality_margin(x: np.ndarray) -> np.ndarray:
    """Margin of the bound -log(1-x) <= x + x^2/(2(1-x)) for x in (0, 1).

    Nonnegative wherever the bound holds; evaluated with log1p to keep the
    cancellation at small x below the margin itself.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise ValueError("x must lie in (0, 1)")
    return x + 0.5 * x * x / (1.0 - x) + np.log1p(-x)


def _lemma_gap(rng) -> float:
    """Relative gap of the quadratic-form lemma on one random instance."""
    l = int(rng.integers(1, 5))
    m = l + int(rng.integers(0, 4))
    Q, _ = np.linalg.qr(rng.standard_normal((m, l)))
    F = rng.uniform(0.0, 1.0, l)
    ds = rng.uniform(0.1, 3.0, l)
    y = rng.standard_normal(m)
    v = rng.standard_normal(l)
    lhs, rhs = lemma_identity_residual(F, ds, Q, y, v)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def _beta_gap(rng) -> float:
    """Relative gap of the beta integral's quadrature on one random instance."""
    a_exp = rng.uniform(-0.45, 2.5)
    b_exp = rng.uniform(-0.45, 2.5)
    w = rng.uniform(0.05, 8.0)
    quad_val, closed = beta_integral_identity(a_exp, b_exp, w)
    return abs(quad_val - closed) / closed


def _phi(w: np.ndarray) -> np.ndarray:
    return CHISQ_NU * w / (CHISQ_NU + 1.0 + w)


def _phi_prime(w: np.ndarray) -> np.ndarray:
    return CHISQ_NU * (CHISQ_NU + 1.0) / (CHISQ_NU + 1.0 + w) ** 2


def run_identities(seed: int) -> dict:
    """Every check of the suite at master seed seed: one entry per check, with its pass flag, and all_pass."""
    results = {}
    for name, instances, stream, gap, tol in (
        ("lemma_quadratic_form", LEMMA_INSTANCES, STREAM_LEMMA, _lemma_gap, LEMMA_TOL),
        ("beta_integral", BETA_INSTANCES, STREAM_BETA, _beta_gap, BETA_TOL),
    ):
        max_gap = float(np.max([gap(replication_rng(seed, i, stream=stream)) for i in range(instances)]))  # NaN fails
        results[name] = {"instances": instances, "max_rel_gap": max_gap, "tolerance": tol, "pass": max_gap <= tol}

    # phi(w) = nu w/(nu + 1 + w) keeps the right side positive: (CHISQ_DOF + 2)(nu + 1 + w) > 2(nu + 1)
    lhs, rhs = chi_square_identity(_phi, _phi_prime)
    rel_gap = abs(lhs - rhs) / rhs
    results["chi_square_identity"] = {"lhs": lhs, "rhs": rhs, "rel_gap": rel_gap, "tolerance": CHISQ_TOL,
                                      "pass": rel_gap <= CHISQ_TOL}

    x = np.arange(1, LOG_GRID_POINTS + 1) / (LOG_GRID_POINTS + 1) * 0.99
    margin = float(log_inequality_margin(x).min())
    results["log_inequality"] = {"instances": LOG_GRID_POINTS, "min_margin": margin, "tolerance": LOG_TOL,
                                 "pass": margin >= -LOG_TOL}
    results["all_pass"] = all(entry["pass"] for entry in results.values())
    return results
