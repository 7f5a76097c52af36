"""Certified Gauss quadrature, numpy alone; a rule that misses its certificate raises UnreliableNormalizationError.

Every kernel integral runs on one family: the Gauss rules of a weight, built from its three-term
recurrence by _gauss (Golub & Welsch, Math. Comp. 1969).  laguerre's weight x^a e^-x carries the
alpha < 1 losses, jacobi's x^a (1 - x)^b the shrinkage constant, and jacobi(0, 0, n), Gauss-Legendre,
the alpha = -1 loss's Frullani integrals.  certified accepts each row once its n- and 3n/2-node values
agree, on the ladder n = 16, 24, 36, ..., 406, 609.
"""

import functools
import math
from typing import Callable

import numpy as np

__all__ = ["UnreliableNormalizationError", "laguerre", "jacobi", "certified"]

# certified's tolerances: LOSS_TOL for the losses, QUAD_TOL for the constants (the shrinkage constant and the
# Frullani integrals), which LOSS_TOL would loosen; its ladder, n from LOSS_START_NODES while 3n/2 <= LOSS_MAX_NODES,
# serves every integral; it passes ROW_CHUNK // n rows at a time; _gauss's bound on |log sum w|
LOSS_TOL, QUAD_TOL, LOSS_START_NODES, LOSS_MAX_NODES, ROW_CHUNK, MASS_TOL = 1e-6, 1e-10, 16, 640, 1 << 15, 1e-10


class UnreliableNormalizationError(RuntimeError):
    """A quadrature (normalizing constant or loss) failed its certificate.

    The importance-sampling oracle of tests/oracles.py raises it too, when its
    effective sample size falls below the guard.
    """


@functools.lru_cache(maxsize=256)
def laguerre(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the n-point Gauss rule for the weight x^a e^-x / Gamma(a+1) on (0, inf).

    Its recurrence has diagonal 2k + a + 1 and off-diagonal sqrt(k (k + a)).  Against a 50-digit reference
    (without _gauss's Newton steps in brackets): at n = 72 the log weights are within 4e-14 (6e-13).  At
    certified's top rung, n = 609, at a = -0.99 the nodes are within 3.7e-12 relative (2.5e-12) and the log
    weights within 3.6e-12 (2.5e-11); at a = 896, about the largest A beta - 1 of the shipped configs' problems
    (alpha = 0.99), 5.7e-16 and 5.0e-13 (1.6e-14 and 1.7e-11).  At n = 406 they are 2.7e-12 and 7.0e-13, and
    3.6e-16 and 3.3e-13.  |log sum w| is at worst 1.4e-13 on the ladder at a <= 9000, but 8.5e-9 at a = 1e20.
    """
    k = np.arange(n + 1.0)
    return _gauss(2.0 * k[:n] + a + 1.0, np.sqrt(k[1:] * (k[1:] + a)), f"Gauss-Laguerre rule at a = {a:.6g}, n = {n}")


@functools.lru_cache(maxsize=256)
def jacobi(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the n-point Gauss rule for the weight x^a (1-x)^b / Be(a+1, b+1) on (0, 1).

    The shifted Jacobi recurrence, s = a + b: diagonal (a+1)/(s+2) at k = 0, then (2k(k+s+1) + s(a+1))/
    ((2k+s)(2k+s+2)), which does not cancel where b dwarfs a; squared off-diagonal k(k+a)(k+b)(k+s)/
    ((2k+s)^2 (2k+s+1)(2k+s-1)), its (k+s)/(2k+s-1) 1 at k = 1; both as products of ratios, finite for any
    finite b.  Against a 50-digit reference at certified's top rung, n = 609, the nodes are within 2.4e-16
    and the log weights within 1.1e-11 at a = 9.5, b = -1 + 2.5e-8 (as1_desk's shrinkage constant at
    alpha = 0, nu = 1e-8 nu_max), and within 2.7e-12 at a = 900.5, b = 246 (alpha = 0.99, nu_max).
    Unless a, b > -1 the weight has no finite mass, and it raises.
    """
    if not (a > -1.0 and b > -1.0):
        raise UnreliableNormalizationError(f"Gauss-Jacobi rule at a = {a:.6g}, b = {b:.6g}: no finite weight")
    k, s = np.arange(1, n + 1.0), a + b
    with np.errstate(all="ignore"):  # a product overflows past b ~ 1e154; _gauss rejects a rule that is not finite
        ratio = np.concatenate([[1.0], (k[1:] + s) / (2.0 * k[1:] + s - 1.0)])
        off = np.sqrt(k * (k + a) / ((2.0 * k + s) * (2.0 * k + s + 1.0)) * ((k + b) / (2.0 * k + s)) * ratio)
        diag = ((2.0 * k * (k + s + 1.0) + s * (a + 1.0)) / (2.0 * k + s))[:n - 1] / (2.0 * k + s + 2.0)[:n - 1]
    diag = np.concatenate([[(a + 1.0) / (s + 2.0)], diag])
    return _gauss(diag, off, f"Gauss-Jacobi rule at a = {a:.6g}, b = {b:.6g}, n = {n}")


def _gauss(diag: np.ndarray, off: np.ndarray, rule: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the Gauss rule of the mass-1 weight whose recurrence is diag and off.

    The nodes are the eigenvalues of the Jacobi matrix T (diag and off[:-1]) from LAPACK (np.linalg.eigvalsh
    of the dense T, already tridiagonal, so they do not depend on the BLAS thread count).  Three Newton steps
    on p_n, the recurrence's orthonormal polynomial, move each node to where the recurrence has its root,
    which buys the weights.  Each weight is 1/sum_{k<n} p_k(x)^2, the Christoffel-Darboux kernel at the node,
    its log kept finite where the weight's normalizer overflows.  The arrays are read-only.  It raises
    UnreliableNormalizationError, naming rule, unless nodes and log weights are finite and |log sum w| <= MASS_TOL.
    """
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], -1))
    step, log_sum = _orthonormal(x, diag, off)
    for _ in range(3):
        x = x - step
        step, log_sum = _orthonormal(x, diag, off)
    log_w = -log_sum
    if not (np.all(np.isfinite(x) & np.isfinite(log_w)) and abs(np.logaddexp.reduce(log_w)) <= MASS_TOL):
        raise UnreliableNormalizationError(f"{rule}: not finite or not of mass 1")
    x.setflags(write=False)
    log_w.setflags(write=False)
    return x, log_w


@np.errstate(all="ignore")
def _orthonormal(x: np.ndarray, diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p_n(x)/p_n'(x) and log sum_{k<n} p_k(x)^2 for the orthonormal polynomials of the recurrence, n = diag.size.

    off[k] p_{k+1} = (x - diag[k]) p_k - off[k-1] p_{k-1}, p_0 = 1.  Whenever a sum passes 1e200 every node's
    terms are divided by the square root of its sum, whose log is carried aside.  Its floating-point warnings
    are off: _gauss rejects a rule that is not finite.
    """
    n = diag.size
    p_prev, p, dp_prev, dp = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    total, log_scale, b = np.ones_like(x), np.zeros_like(x), 0.0
    for k in range(n):
        b_next, xd = off[k], x - diag[k]
        dp_prev, dp = dp, (xd * dp + p - b * dp_prev) / b_next
        p_prev, p, b = p, (xd * p - b * p_prev) / b_next, b_next
        if k < n - 1:
            total += p * p
            if total.max() > 1e200:
                r = 1.0 / np.sqrt(total)
                log_scale += np.log(total)
                p, p_prev, dp, dp_prev, total = p * r, p_prev * r, dp * r, dp_prev * r, np.ones_like(x)
    return p / dp, log_scale + np.log(total)


def certified(integral: Callable[[int, np.ndarray], np.ndarray], rows: int, what: str = "loss quadrature",
              tol: float | None = None, start: int | None = None) -> np.ndarray:
    """Per-row values, each accepted once integral(n, index) and integral(3n/2, index) agree within tol.

    Rows that disagree move on to the next pair, from start (LOSS_START_NODES unless given) while
    3n/2 <= LOSS_MAX_NODES: n = 16, 24, 36, 54, 81, 121, 181, 271, 406, 609; past 609 the certificate fails.
    tol defaults to LOSS_TOL.  Every failure raises UnreliableNormalizationError naming what, the integral:
    a certificate's message begins with it, a rule's own failure ends with it, and a value that is not
    finite fails at once.  The first pair costs a shrinkage row of as1_desk's alpha = 0 loss 244 + 436 kept
    node pairs.  On both shipped configs' problems at alpha from -0.99 to 0.99 the accepted losses lie
    within 3.3e-8 of a reference certified to 1e-11 from 64 nodes.
    """

    def run(n: int, index: np.ndarray) -> np.ndarray:
        width = max(1, ROW_CHUNK // n)   # a temporary of n nodes per row stays near 256 kB
        try:
            value = np.concatenate([integral(n, index[lo:lo + width]) for lo in range(0, index.size, width)])
        except UnreliableNormalizationError as exc:
            raise UnreliableNormalizationError(f"{exc} ({what})") from exc
        if not np.all(np.isfinite(value)):
            raise UnreliableNormalizationError(f"{what}: a row's value is not finite at {n} nodes")
        return value

    out, todo, n = np.empty(rows), np.arange(rows), LOSS_START_NODES if start is None else start
    coarse, gap = run(n, todo), math.inf
    while todo.size:
        if 3 * n // 2 > LOSS_MAX_NODES:
            last = "no n vs 3n/2 pair" if gap == math.inf else (
                f"n vs 3n/2 gap {gap:.3e} at {coarse_n} vs {n} nodes, the last pair")
            raise UnreliableNormalizationError(
                f"{what}: {todo.size} row(s) uncertified, {last} within LOSS_MAX_NODES = {LOSS_MAX_NODES}")
        coarse_n, n = n, 3 * n // 2
        fine = run(n, todo)
        diff = np.abs(fine - coarse)
        ok = diff <= (LOSS_TOL if tol is None else tol)
        out[todo[ok]] = fine[ok]
        todo, coarse, gap = todo[~ok], fine[~ok], float(np.max(diff[~ok], initial=0.0))
    return out
