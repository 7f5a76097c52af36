"""Certified quadrature rules, numpy alone; a rule that misses its certificate raises UnreliableNormalizationError.

The shrinkage constant and the alpha = -1 loss's Frullani integrals run on log_trapezoid, which
halves its step only inside the integrand's bulk.  The alpha < 1 losses run on laguerre's
Gauss-Laguerre rules, accepted row by row by certified on the ladder n = 16, 24, 36, ..., 406, 609.
"""

import functools
import math
from typing import Callable

import numpy as np

__all__ = ["UnreliableNormalizationError", "log_trapezoid", "laguerre", "certified"]

# log_trapezoid's window, refinement and certificate; QUAD_ROWS rows share one grid
QUAD_HALF_WIDTH, QUAD_MAX_WIDTH, QUAD_DROP = 32.0, 2.0**30, 40.0
QUAD_START_INTERVALS, QUAD_MAX_INTERVALS, QUAD_TOL, QUAD_ROWS = 128, 1 << 16, 1e-10, 64
QUAD_BULK_MARGIN = 10.0  # the bulk: within QUAD_DROP + QUAD_BULK_MARGIN of a row's peak; inf refines the whole window

# certified's tolerance and node counts (n from LOSS_START_NODES while 3n/2 <= LOSS_MAX_NODES); laguerre's on log sum w
LOSS_TOL, LOSS_START_NODES, LOSS_MAX_NODES, LAGUERRE_SUM_TOL = 1e-6, 16, 640, 1e-10


class UnreliableNormalizationError(RuntimeError):
    """A quadrature (normalizing constant or loss) failed its certificate.

    The importance-sampling oracle of tests/oracles.py raises it too, when its
    effective sample size falls below the guard.
    """


def log_trapezoid(g: Callable[[np.ndarray, slice], np.ndarray], rows: int) -> np.ndarray:
    """log of the integral of exp(g) over the real line for each of rows rows, by the trapezoid rule.

    g(z, chunk) maps the nodes z to an array of shape (chunk rows, z.size)
    and must be smooth in z with tails that fall at least linearly; there
    the rule converges geometrically (Trefethen & Weideman, SIAM Rev. 2014).
    While g at an end of the window is within QUAD_DROP of its row's largest
    node value, the window doubles toward that end.  Otherwise the step
    halves, reusing every node, until the n- and 2n-interval values of every
    row agree to QUAD_TOL.  Only the bulk is refined: the rule runs between
    the first-pass nodes that bracket every node within QUAD_DROP +
    QUAD_BULK_MARGIN of its row's peak, since the trapezoid's accuracy comes
    from there, and g beyond lies lower still.  Past QUAD_MAX_INTERVALS
    (intervals of the whole window, so a floor on the step) or
    QUAD_MAX_WIDTH, or once a row's peak or value is not finite, it raises
    UnreliableNormalizationError.
    """
    out = np.empty(rows)
    for start in range(0, rows, QUAD_ROWS):
        chunk = slice(start, min(start + QUAD_ROWS, rows))
        out[chunk] = _shared_grid(lambda z: g(z, chunk))
    return out


def _shared_grid(g: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """log_trapezoid of every row of g(z), all rows on one grid."""
    lo, hi = -QUAD_HALF_WIDTH, QUAD_HALF_WIDTH
    while hi - lo <= QUAD_MAX_WIDTH:
        gz = g(np.linspace(lo, hi, QUAD_START_INTERVALS + 1))
        shift = gz.max(axis=1)
        if not np.isfinite(shift).all():  # no window or step makes such a row's integral a finite log
            raise UnreliableNormalizationError(f"a row's largest value on [{lo:.3g}, {hi:.3g}] is not finite")
        low = gz[:, [0, -1]] <= (shift - QUAD_DROP)[:, None]
        if low.all():
            return _refine_bulk(g, lo, (hi - lo) / QUAD_START_INTERVALS, gz, shift)
        # an end lies in the bulk of some row: widen toward it
        width = hi - lo
        lo -= 0.0 if low[:, 0].all() else width
        hi += 0.0 if low[:, 1].all() else width
    raise UnreliableNormalizationError(f"integrand within {QUAD_DROP} of its peak at an end of [{lo:.3g}, {hi:.3g}]")


def _refine_bulk(g: Callable[[np.ndarray], np.ndarray], lo: float, step: float, gz: np.ndarray,
                 shift: np.ndarray) -> np.ndarray:
    """The trapezoid rule from the first-pass nodes gz = g(lo + step j), halving the step inside the bulk.

    The bulk is every node within QUAD_DROP + QUAD_BULK_MARGIN of its row's
    peak; the rule runs between the first-pass nodes that bracket it, whose
    values pass the window's QUAD_DROP test too.  n counts intervals of the
    whole first-pass window, so QUAD_MAX_INTERVALS floors the step.
    """
    n = gz.shape[1] - 1
    inside = (gz > (shift - QUAD_DROP - QUAD_BULK_MARGIN)[:, None]).any(axis=0)
    first, last = max(int(np.argmax(inside)) - 1, 0), min(n + 1 - int(np.argmax(inside[::-1])), n)
    lo, gz, span = lo + first * step, gz[:, first:last + 1], last - first
    # each row's trapezoid sum in units of exp(shift), shift the row's largest node value
    e = np.exp(gz - shift[:, None])
    total, gap = e.sum(axis=1) - 0.5 * (e[:, 0] + e[:, -1]), math.inf
    log_int = shift + np.log(step * total)
    while gap > QUAD_TOL:
        if n >= QUAD_MAX_INTERVALS:
            last = "no n vs 2n pair" if gap == math.inf else (
                f"n vs 2n gap {gap:.3e} at {n // 2} vs {n} intervals of the window, the last pair")
            raise UnreliableNormalizationError(f"trapezoid rule on [{lo:.3g}, {lo + step * span:.3g}]: {last} "
                                               f"within QUAD_MAX_INTERVALS = {QUAD_MAX_INTERVALS}")
        gm = g(lo + step * (np.arange(span) + 0.5))
        top = np.maximum(shift, gm.max(axis=1))
        total = total * np.exp(shift - top) + np.exp(gm - top[:, None]).sum(axis=1)
        shift, n, span, step = top, 2 * n, 2 * span, step / 2.0
        new = shift + np.log(step * total)
        gap, log_int = float(np.max(np.abs(new - log_int))), new
        if not math.isfinite(gap):  # a nan gap would end the loop as if the rows agreed
            raise UnreliableNormalizationError(f"trapezoid rule on [{lo:.3g}, {lo + step * span:.3g}]: "
                                               f"a row's value is not finite at {n} intervals of the window")
    return log_int


@functools.lru_cache(maxsize=256)
def laguerre(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and log weights of the n-point Gauss rule for the weight x^a e^-x / Gamma(a+1) on (0, inf).

    Golub & Welsch (Math. Comp. 1969): the nodes are the eigenvalues of the
    Jacobi matrix T with diagonal 2j + a + 1 and off-diagonal sqrt(j (j + a)),
    from LAPACK (np.linalg.eigvalsh of the dense T, already tridiagonal, so
    they do not depend on the BLAS thread count).  Three Newton steps on p_n,
    the orthonormal polynomial of T's three-term recurrence, move each node to
    where the recurrence has its root.  That buys the weights, not the nodes.
    Against a 50-digit reference, at n = 72 the log weights are within 4e-14
    (6e-13 without the steps).  At certified's top rung, n = 609: at
    a = -0.99 the nodes are within 3.7e-12 relative (2.5e-12 without) and
    the log weights within 3.6e-12 (2.5e-11 without); at a = 896, about the
    largest A beta - 1 of the shipped configs' problems (alpha = 0.99),
    5.7e-16 and 5.0e-13 (1.6e-14 and 1.7e-11 without).  At n = 406 they are
    2.7e-12 and 7.0e-13, and 3.6e-16 and 3.3e-13.  Each weight is 1/sum_{k<n}
    p_k(x)^2, the Christoffel-Darboux kernel at the node, summed with a running
    rescale so its log stays finite where Gamma(a+1) overflows.  Memoized per
    (a, n); the arrays are read-only.  It raises UnreliableNormalizationError
    unless its nodes and log weights are finite and |log sum w| <= LAGUERRE_SUM_TOL:
    at worst 1.4e-13 on the ladder at a <= 9000, but 8.5e-9 at a = 1e20, n = 16.
    """
    j = np.arange(1, n)
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + a + 1.0) + np.diag(np.sqrt(j * (j + a)), -1))
    step, log_sum = _orthonormal(x, a, n)
    for _ in range(3):
        x = x - step
        step, log_sum = _orthonormal(x, a, n)
    log_w = -log_sum
    if not (np.all(np.isfinite(x) & np.isfinite(log_w)) and abs(np.logaddexp.reduce(log_w)) <= LAGUERRE_SUM_TOL):
        raise UnreliableNormalizationError(f"Gauss-Laguerre rule at a = {a:.6g}, n = {n}: not finite or not of mass 1")
    x.setflags(write=False)
    log_w.setflags(write=False)
    return x, log_w


@np.errstate(all="ignore")
def _orthonormal(x: np.ndarray, a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """p_n(x)/p_n'(x) and log sum_{k<n} p_k(x)^2 for the orthonormal polynomials of laguerre's weight.

    sqrt((k+1)(k+1+a)) p_{k+1} = (x - 2k - a - 1) p_k - sqrt(k (k+a)) p_{k-1}, p_0 = 1.  Whenever a sum passes
    1e200 every node's terms are divided by the square root of its sum, whose log is carried aside.  Its
    floating-point warnings are off: laguerre rejects a rule that is not finite.
    """
    p_prev, p, dp_prev, dp = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x)
    total, log_scale, b = np.ones_like(x), np.zeros_like(x), 0.0
    for k in range(n):
        b_next, xd = math.sqrt((k + 1.0) * (k + 1.0 + a)), x - (2.0 * k + a + 1.0)
        dp_prev, dp = dp, (xd * dp + p - b * dp_prev) / b_next
        p_prev, p, b = p, (xd * p - b * p_prev) / b_next, b_next
        if k < n - 1:
            total += p * p
            if total.max() > 1e200:
                r = 1.0 / np.sqrt(total)
                log_scale += np.log(total)
                p, p_prev, dp, dp_prev, total = p * r, p_prev * r, dp * r, dp_prev * r, np.ones_like(x)
    return p / dp, log_scale + np.log(total)


def certified(loss: Callable[[int, np.ndarray], np.ndarray], rows: int) -> np.ndarray:
    """Per-row losses, each accepted once loss(n, index) and loss(3n/2, index) agree within LOSS_TOL.

    Rows that disagree move on to the next pair, from LOSS_START_NODES while
    3n/2 <= LOSS_MAX_NODES: n = 16, 24, 36, 54, 81, 121, 181, 271, 406, 609;
    past 609 the certificate fails.  The first pair costs a shrinkage row of
    as1_desk at alpha = 0 244 + 436 kept node pairs.  On both shipped
    configs' problems at alpha from -0.99 to 0.99 the accepted losses lie
    within 3.3e-8 of a reference certified to 1e-11 from 64 nodes.
    """
    out, todo, n = np.empty(rows), np.arange(rows), LOSS_START_NODES
    coarse, gap = loss(n, todo), math.inf
    while todo.size:
        if 3 * n // 2 > LOSS_MAX_NODES:
            last = "no n vs 3n/2 pair" if gap == math.inf else (
                f"n vs 3n/2 gap {gap:.3e} at {coarse_n} vs {n} nodes, the last pair")
            raise UnreliableNormalizationError(
                f"loss quadrature: {todo.size} row(s) uncertified, {last} within LOSS_MAX_NODES = {LOSS_MAX_NODES}")
        coarse_n, n = n, 3 * n // 2
        fine = loss(n, todo)
        diff = np.abs(fine - coarse)
        ok = diff <= LOSS_TOL
        out[todo[ok]] = fine[ok]
        todo, coarse, gap = todo[~ok], fine[~ok], float(np.max(diff[~ok], initial=0.0))
    return out
