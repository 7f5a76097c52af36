"""Minimaxity thresholds for the shrinkage plug-in rule.

The plug-in rule with shrinkage weight nu dominates the unbiased baseline
under the combined quadratic/entropy loss whenever 0 < nu <= min(nu1, nu2,
nu3), where the three bounds depend on the canonical eigenvalues d, the
prior scaling C and the residual degrees of freedom.  nu2 and nu3 are
always positive; nu1 can be negative, in which case inflating C restores
positivity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["NuBounds", "nu_limits", "rescale_C_for_positivity", "condition_d"]


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


def _validate_dc(d: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(d, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    if d.shape != c.shape:
        raise ValueError("d and c must have the same length")
    if np.any(d <= 0):
        raise ValueError("entries of d must be positive")
    if np.any(c < 1):
        raise ValueError("entries of c must be >= 1")
    return d, c


def nu_limits(d: np.ndarray, c: np.ndarray, m: int, n: int, k: int) -> NuBounds:
    """Domination thresholds nu1, nu2, nu3 for the shrinkage weight.

    Proof of the nu2 bound uses n - k - 2 >= 0; a warning is emitted when
    the residual degrees of freedom fall below that.
    """
    d, c = _validate_dc(d, c)
    if n <= k:
        raise ValueError("need n > k")
    q = n - k
    if q < 2:
        warnings.warn("domination bounds need n - k >= 2; values are not trustworthy", stacklevel=2)
    r = d / c
    total, peak = r.sum(), r.max()
    nu1 = 4.0 * (total - 2.0 * peak + m / q) / (2.0 * peak * (q + 2) + m)
    nu2 = (4.0 * (total - peak) + 2.0 * m / q) / ((q - 2) * peak + m)
    nu3 = 4.0 / m * total
    return NuBounds(nu1=float(nu1), nu2=float(nu2), nu3=float(nu3))


def rescale_C_for_positivity(d: np.ndarray, c0: np.ndarray, m: int, n: int, k: int) -> float:
    """Smallest factor g >= 1 such that C = g*C0 makes nu1 positive.

    The nu1 numerator scales as (sum - 2*max)(d_i/c_i)/g + m/(n-k), so a
    closed-form g exists whenever the first term is negative; a 5% safety
    margin keeps the rescaled nu1 away from zero.
    """
    d, c0 = _validate_dc(d, c0)
    if n <= k:
        raise ValueError("need n > k")
    r = d / c0
    deficit = r.sum() - 2.0 * r.max()
    if deficit + m / (n - k) > 0:
        return 1.0
    return float(max(1.0, 1.05 * (-deficit) * (n - k) / m))


def condition_d(d: np.ndarray) -> bool:
    """Spread condition on the canonical eigenvalues: l - 2 <= 2(sum(d)/d1 - 2), l = len(d).

    Requires d sorted nonincreasing (d1 is the largest entry).
    """
    d = np.asarray(d, dtype=float).ravel()
    if np.any(np.diff(d) > 0):
        raise ValueError("d must be sorted nonincreasing")
    if np.any(d <= 0):
        raise ValueError("entries of d must be positive")
    return bool(d.size - 2 <= 2.0 * (d.sum() / d[0] - 2.0))
