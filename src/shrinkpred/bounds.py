"""Minimaxity thresholds for the shrinkage plug-in rule.

The plug-in rule with shrinkage weight nu dominates the unbiased baseline
under the combined quadratic/entropy loss whenever 0 < nu <= min(nu1, nu2,
nu3), where the three bounds depend on the canonical problem (d, m and
n - k; it guarantees d > 0 nonincreasing and n > k) and on the prior scaling
C, which prior_scale alone checks.  nu2 and nu3 are always positive; nu1
can be negative, in which case inflating C restores positivity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalProblem

__all__ = ["NuBounds", "prior_scale", "nu_limits", "rescale_C_for_positivity", "condition_d"]


@dataclass(frozen=True)
class NuBounds:
    nu1: float
    nu2: float
    nu3: float

    @property
    def nu_max(self) -> float:
        return min(self.nu1, self.nu2, self.nu3)

    @property
    def positive(self) -> bool:
        return self.nu_max > 0


def prior_scale(c, l: int | None = None) -> np.ndarray:
    """c as a new float array of finite entries >= 1 (C >= I); given l, the l-vector, a number standing for every axis.

    Without l (a configuration, read before its problem is built) only the entries are checked.
    """
    out = np.array(c, dtype=float)
    if not np.all(np.isfinite(out) & (out >= 1.0)):
        raise ValueError(f"c must be finite and >= 1 in every entry, got {out.tolist()!r}")
    if l is None:
        return out
    if out.ndim == 0:
        return np.full(l, out)
    if out.shape != (l,):
        raise ValueError(f"c must have l = {l} entries, got {out.size if out.ndim == 1 else out.shape}")
    return out


def nu_limits(problem: CanonicalProblem, c) -> NuBounds:
    """Domination thresholds nu1, nu2, nu3 for the shrinkage weight under prior scale c.

    Proof of the nu2 bound uses n - k - 2 >= 0; a warning is emitted when
    the residual degrees of freedom fall below that.
    """
    c = prior_scale(c, problem.l)
    m, q = problem.m, problem.n - problem.k
    if q < 2:
        warnings.warn("domination bounds need n - k >= 2; values are not trustworthy", stacklevel=2)
    r = problem.d / c
    total, peak = r.sum(), r.max()
    nu1 = 4.0 * (total - 2.0 * peak + m / q) / (2.0 * peak * (q + 2) + m)
    nu2 = (4.0 * (total - peak) + 2.0 * m / q) / ((q - 2) * peak + m)
    nu3 = 4.0 / m * total
    return NuBounds(nu1=float(nu1), nu2=float(nu2), nu3=float(nu3))


def rescale_C_for_positivity(problem: CanonicalProblem, c0) -> float:
    """Smallest factor g >= 1 such that C = g*C0 makes nu1 positive.

    The nu1 numerator scales as (sum - 2*max)(d_i/c_i)/g + m/(n-k), so a
    closed-form g exists whenever the first term is negative; a 5% safety
    margin keeps the rescaled nu1 away from zero.
    """
    m, q = problem.m, problem.n - problem.k
    r = problem.d / prior_scale(c0, problem.l)
    deficit = r.sum() - 2.0 * r.max()
    if deficit + m / q > 0:
        return 1.0
    return float(max(1.0, 1.05 * (-deficit) * q / m))


def condition_d(problem: CanonicalProblem) -> bool:
    """Spread condition on the canonical eigenvalues: l - 2 <= 2(sum(d)/d1 - 2), d1 the largest."""
    d = problem.d
    return bool(d.size - 2 <= 2.0 * (d.sum() / d[0] - 2.0))
