"""The identity suite: the identities the paper's densities and its alpha = 1 domination proof rest on.

Four checks, all exact up to rounding or a certified quadrature:

* the quadratic-form lemma (lemma_identity_residual) on LEMMA_INSTANCES
  random instances;
* the beta integral (beta_integral_identity), a certified Gauss-Jacobi rule
  against its closed form, on BETA_INSTANCES random instances;
* the chi-square integration-by-parts identity (chi_square_identity) at the
  shrinkage factor phi(w) = nu w/(nu + 1 + w), nu = CHISQ_NU, as one
  Beta expectation for each side;
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
from .quad import QUAD_TOL, certified, jacobi

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

    At exponent a + b + 2 the integral collapses to Be(a+1, b+1) / (w+1)^{a+1}.  The quadrature is
    Be(a+1, b+1) times the mean of (1 + w t)^{-(a+b+2)} under quad.jacobi(a, b, n), whose weight is
    t^a (1-t)^b itself, certified to QUAD_TOL in log; so any exponents above -1 integrate, -0.999 included.
    Returns (quadrature, closed_form).
    """
    if a_exp <= -1 or b_exp <= -1:
        raise ValueError("exponents must exceed -1")
    if w <= -1:
        raise ValueError("w must exceed -1")

    def log_mean(n: int, index: np.ndarray) -> np.ndarray:   # index is the one row
        x, log_w = jacobi(a_exp, b_exp, n)
        return np.full(index.size, np.logaddexp.reduce(log_w - (a_exp + b_exp + 2.0) * np.log1p(w * x)))

    log_beta = math.lgamma(a_exp + 1.0) + math.lgamma(b_exp + 1.0) - math.lgamma(a_exp + b_exp + 2.0)
    log_quad = log_beta + float(certified(log_mean, 1, f"beta integral at a = {a_exp:.6g}, b = {b_exp:.6g}, "
                                                       f"w = {w:.6g}", QUAD_TOL)[0])
    return math.exp(log_quad), math.exp(log_beta - (a_exp + 1.0) * math.log(w + 1.0))


def chi_square_identity(phi, phi_prime) -> tuple[float, float]:
    """Both sides of E[phi(W) S/W] = E[(CHISQ_DOF + 2) phi(W)/W - 2 phi'(W)], each one Beta expectation.

    S ~ chi^2_nu and U ~ chi^2_p are independent (nu = CHISQ_DOF, p = CHISQ_NUMERATOR_DOF) and W = U/S, so
    W/(1+W) ~ Beta(p/2, nu/2).  Given W = w, S is Gamma((p+nu)/2) with rate (1+w)/2, so E[S | W = w] =
    (p+nu)/(1+w) and the left side is E[phi(W)/W (p+nu)/(1+W)].  phi and phi_prime map an array of w to
    arrays, and both integrands must be positive: each side is the log of its mean under
    quad.jacobi(p/2 - 1, nu/2 - 1, n), the two rows of one certificate to QUAD_TOL.  Returns (lhs, rhs).
    """
    p, nu = CHISQ_NUMERATOR_DOF, CHISQ_DOF

    def log_sides(n: int, index: np.ndarray) -> np.ndarray:   # index holds rows 0, the lhs, and 1, the rhs
        u, log_w = jacobi(p / 2.0 - 1.0, nu / 2.0 - 1.0, n)
        w = u / (1.0 - u)
        ratio = phi(w) / w
        sides = np.log([ratio * (p + nu) * (1.0 - u), (nu + 2.0) * ratio - 2.0 * phi_prime(w)])
        return np.logaddexp.reduce(sides + log_w, axis=1)[index]

    lhs, rhs = np.exp(certified(log_sides, 2, "chi-square identity", QUAD_TOL))
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
