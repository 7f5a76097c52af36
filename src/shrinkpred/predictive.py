"""Generalized Bayes predictive densities for the canonical problem.

Three density constructions are provided for the future observation
ytilde ~ N_m(Q theta, I/eta):

* the best invariant density (Bayes under the right invariant prior
  pi(theta, mu, eta) = 1/eta), a multivariate t once normalized;
* the hierarchical shrinkage density for divergence index alpha < 1, which
  factors as the best invariant kernel times a second polynomial kernel
  centered at a shrunken mean (the best invariant kernel is its B = 0 member);
* the plug-in normal at alpha = 1, whose mean and variance shrink the
  unbiased estimators by the data-adaptive factor nu/(nu + 1 + W).

Densities are evaluated in the log domain.  Each is one block of per-row
parameters: a PredictiveKernel below alpha = 1 (best_invariant_kernel and
shrinkage_bayes_kernel map a whole block of observations to it at once) and
a PluginEstimate at alpha = 1, which is its own plug-in normal.
risk.alpha_divergence_loss scores a block, and indexing it gives one
observation's density, which evaluates (log_density).  Every integral of a
kernel is here, one factor per spectral group (PredictiveKernel.groups): the
shrinkage constant (_log_integral), the affinity behind the alpha < 1 loss
(_log_affinity) and the Frullani integrals of the alpha = -1 loss
(_expected_log).  Their oracles live with the tests, in tests/oracles.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bounds import nu_limits, prior_scale, rescale_C_for_positivity
from .canonical import CanonicalObservation, CanonicalProblem, _freeze, _row_dot, _rows
from .quad import QUAD_TOL, ROW_CHUNK, UnreliableNormalizationError, certified, jacobi, laguerre

__all__ = [
    "DegenerateObservationError",
    "PriorSpec",
    "PluginEstimate",
    "PredictiveKernel",
    "shrinkage_components",
    "best_invariant_kernel",
    "shrinkage_bayes_kernel",
    "plugin_bayes_estimators",
    "umvu_estimators",
    "stein_variance",
    "stein_variance_star",
    "alpha_limit_check",
    "ALPHA_MAX",
]


class DegenerateObservationError(ValueError):
    """Residual sum of squares is zero; scale-dependent densities are undefined."""


# The largest alpha below 1 a density is built at.  Nearer 1 the exact loss cancels terms of size
# 1/(1 - alpha) and loses digits its certificate cannot see: on as1_desk at alpha = 1 - 1e-4 its
# mean is 2.7e-6 off the alpha -> 1 limit's linear term, above the loss tolerance 1e-6.
ALPHA_MAX = 0.999


def _check_alpha(alpha: float, name: str = "alpha") -> float:
    """alpha as a float, once a density kernel can be built at it (alpha = 1 takes a plug-in estimate instead)."""
    alpha = float(alpha)
    if not -1.0 <= alpha <= ALPHA_MAX:
        raise ValueError(f"{name} must lie in [-1, {ALPHA_MAX}], got {alpha!r}")
    return alpha


def _check_obs(problem: CanonicalProblem, obs: CanonicalObservation) -> float | np.ndarray:
    """obs.s, once obs (one observation or a block) fits problem: l entries of v, k - l of v_star, and s > 0."""
    l = problem.l
    for key, value, size, name in (("v", obs.v, l, "l"), ("v_star", obs.v_star, problem.k - l, "k - l")):
        if value.shape[-1] != size:
            raise ValueError(f"{key} must have {name} = {size} entries, got shape {value.shape}")
    if np.any(obs.s <= 0):
        raise DegenerateObservationError(f"s must be positive, got {float(np.min(obs.s))!r}")
    return obs.s


def _points(y, m: int) -> tuple[np.ndarray, bool]:
    """Coerce a point or batch of points to shape (N, m)."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        if y.shape != (m,):
            raise ValueError(f"point has dimension {y.shape[0]}, expected {m}")
        return y[None, :], True
    if y.ndim == 2 and y.shape[1] == m:
        return y, False
    raise ValueError(f"points must have shape (m,) or (N, {m})")


class _Density:
    """What PredictiveKernel and PluginEstimate share: one observation's density evaluates, a block does not."""

    def _single_m(self, row_value) -> int:
        """m, once row_value (one entry per block row) shows the density holds one observation, not a block."""
        if np.ndim(row_value) != 0:
            raise ValueError("a density is evaluated for one observation, not a block; index it first")
        return self.problem.m

    def log_density(self, y) -> float | np.ndarray:
        """The normalized log density at a point, shape (m,), or at the rows of a batch, shape (N, m)."""
        return self.log_unnormalized(y) + self.log_const


def _quad_form(resid: np.ndarray, Q: np.ndarray, c2: float, e: np.ndarray) -> np.ndarray:
    """Quadratic forms r' A^{-1} r for rows r of resid, shape (N, m), A = c2 I + Q diag(e) Q' a kernel's scale matrix.

    Q has orthonormal columns and e >= 0, so A has eigenvalue c2 + e_i along column i of Q and c2 on the
    orthogonal complement (PredictiveKernel.groups): the form is (|r|^2 - sum_i (Q'r)_i^2 e_i/(c2 + e_i))/c2.
    A row whose squares overflow is scaled by its largest |r_i| M first, as M^2 q(r/M), so a far point gets
    inf rather than inf - inf; a row with an infinite coordinate gets inf.
    """
    def form(r: np.ndarray) -> np.ndarray:
        proj = r @ Q
        proj *= proj
        return (np.einsum("ij,ij->i", r, r) - proj @ (e / (c2 + e))) / c2

    with np.errstate(over="ignore", invalid="ignore"):
        out = form(resid)
        far = ~np.isfinite(out)
        if far.any():
            far &= ~np.isnan(resid).any(axis=1)
            r = resid[far]
            top = np.abs(r).max(axis=1)
            out[far] = np.where(np.isinf(top), np.inf, form(r / top[:, None]) * top * top)
    return out


# ---------------------------------------------------------------------------
# Prior and estimate types
# ---------------------------------------------------------------------------


def _check_prior_weights(nu: float | None, gamma_prior: float) -> None:
    """Raise unless nu (None: the domination cap, set later) is positive and finite, and gamma_prior finite and >= 1."""
    if nu is not None and not 0 < nu < math.inf:  # the prior's integrability floor a > -k/2 - 1
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    if not 1 <= gamma_prior < math.inf:
        raise ValueError(f"gamma_prior must be finite and >= 1, got {gamma_prior!r}")


@dataclass(frozen=True)
class PriorSpec:
    """The hierarchical shrinkage prior of one problem.

    ``c`` scales the prior covariance componentwise (finite c_i >= 1, read by
    bounds.prior_scale; a number stands for every axis, and a larger c_i
    shrinks component i less).  ``nu`` = (k + 2a + 2)/(n - k) > 0 is the
    shrinkage weight; it fixes the common exponent a of the precision and
    mixing densities, which must be finite.  None, the default, takes the
    domination cap nu_max at c.  Finite ``gamma_prior`` >= 1 scales the prior
    on the auxiliary mean.  The rules that take the prior read n, k, l and d
    from its ``problem``, so a prior cannot be paired with another problem.
    minimax_default rescales c first (minimax_scale), so that nu1 > 0.
    """

    problem: CanonicalProblem
    c: np.ndarray | float = 1.0
    nu: float | None = None
    gamma_prior: float = 1.0

    def __post_init__(self):
        c = prior_scale(self.c, self.problem.l)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        if self.nu is None and not (nb := nu_limits(self.problem, c)).positive:
            raise ValueError("nu bounds are not positive; rescale C or set nu explicitly")
        object.__setattr__(self, "nu", float(nb.nu_max if self.nu is None else self.nu))
        object.__setattr__(self, "gamma_prior", float(self.gamma_prior))
        _check_prior_weights(self.nu, self.gamma_prior)
        if not math.isfinite(self.a):
            raise ValueError(f"nu must leave the prior exponent a = (nu (n - k) - k - 2)/2 finite, got {self.nu!r}")

    @property
    def a(self) -> float:
        """The prior exponent a = (nu (n - k) - k - 2)/2."""
        n, k = self.problem.n, self.problem.k
        return (self.nu * (n - k) - k - 2.0) / 2.0

    @staticmethod
    def minimax_scale(problem: CanonicalProblem, c: np.ndarray | float = 1.0) -> np.ndarray:
        """C = g0 C0, C0 = diag(c) and g0 = bounds.rescale_C_for_positivity(problem, c), so nu1 > 0 at C."""
        c = prior_scale(c, problem.l)
        return rescale_C_for_positivity(problem, c) * c

    @classmethod
    def minimax_default(cls, problem: CanonicalProblem, c: np.ndarray | float = 1.0, nu: float | None = None,
                        gamma_prior: float = 1.0) -> "PriorSpec":
        """The prior at C = minimax_scale(problem, c); nu = None takes the cap, a prior wherever n - k >= 2."""
        return cls(problem, cls.minimax_scale(problem, c), nu, gamma_prior)


@dataclass(frozen=True)
class PluginEstimate(_Density):
    """Plug-in estimates of theta and sigma^2, and the alpha = 1 density N_m(Q theta_hat, sigma2_hat I).

    A block of observations gives theta_hat one row, and sigma2_hat one
    entry, per observation; indexing the estimate selects rows.  One
    observation's estimate evaluates its density (log_unnormalized,
    log_const, log_density), as a PredictiveKernel does below alpha = 1.
    """

    problem: CanonicalProblem
    theta_hat: np.ndarray
    sigma2_hat: float | np.ndarray
    alpha = 1.0

    def __post_init__(self):
        sigma2 = _freeze(self.sigma2_hat)
        object.__setattr__(self, "theta_hat", _rows(self.theta_hat, sigma2.shape))
        object.__setattr__(self, "sigma2_hat", float(sigma2) if sigma2.ndim == 0 else sigma2)
        if not np.all(sigma2 > 0):
            raise ValueError("sigma2_hat must be positive")

    def __getitem__(self, index) -> "PluginEstimate":
        return replace(self, theta_hat=self.theta_hat[index], sigma2_hat=np.asarray(self.sigma2_hat)[index])

    @property
    def log_const(self) -> float:
        return -self._single_m(self.sigma2_hat) / 2.0 * math.log(2.0 * math.pi * self.sigma2_hat)

    def log_unnormalized(self, y) -> float | np.ndarray:
        """log p(y) - log_const at a point, shape (m,), or at the rows of a batch, shape (N, m)."""
        pts, single = _points(y, self._single_m(self.sigma2_hat))
        r = pts - self.problem.Q @ self.theta_hat
        out = -0.5 * np.einsum("ij,ij->i", r, r) / self.sigma2_hat
        return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Density kernels and their integrals
# ---------------------------------------------------------------------------


def shrinkage_components(prior: PriorSpec, alpha: float,
                         v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """(e_b, theta_b, r): spectrum, shrunken mean and residual of the two-kernel factorization.

    With c2 = 2/(1 - alpha) the kernels' scale matrices are c2 I + Q diag(d) Q'
    and c2 I + Q diag(e_b) Q' with
      e_b       = (c - 1) d / (c + (1-alpha)d/2)                (componentwise)
      theta_b   = (C - I)(C + (1-alpha)D/2)^{-1} v
      r         = sum_i v_i^2 ((1-alpha)d_i/2 + 1) / (d_i (c_i + (1-alpha)d_i/2))
    A block of v (one row per observation) gives one theta_b row and one r each.
    """
    alpha = _check_alpha(alpha)
    v = np.asarray(v, dtype=float)
    d, c = prior.problem.d, prior.c
    if v.ndim not in (1, 2) or v.shape[-1] != prior.problem.l:
        raise ValueError("v must have length l")
    half = (1.0 - alpha) / 2.0
    theta_b = (c - 1.0) / (c + half * d) * v
    e_b = (c - 1.0) * d / (c + half * d)
    r = _row_dot(v, (half * d + 1.0) / (d * (c + half * d)) * v)
    return e_b, theta_b, r


@dataclass(frozen=True)
class PredictiveKernel(_Density):
    """Per-row parameters of a predictive density at alpha < 1.

    log p(y) = log_const - A log(q_u(y) + s) - B log(q_b(y) + o), q_u the
    quadratic form of c2 I + Q diag(d) Q' about Q v, q_b that of
    c2 I + Q diag(e_b) Q' about Q theta_b, with Q, d, m, n and k those of
    ``problem``, c2 = 2/(1 - alpha) and A = (m + dof)/2, dof = 2(n-k)/(1-alpha).
    Its B = 0 member (e_b = d, theta_b = v, o = s, the nu -> 0 limit) is the
    best invariant density, multivariate t with dof degrees of freedom.  A
    block of observations gives v and theta_b one row, and s, o and log_const
    one entry, per observation; indexing the kernel selects rows.  One
    observation's kernel evaluates its density (log_unnormalized, log_density).
    """

    problem: CanonicalProblem
    alpha: float
    v: np.ndarray
    s: float | np.ndarray
    B: float
    e_b: np.ndarray
    theta_b: np.ndarray
    o: float | np.ndarray
    log_const: float | np.ndarray = 0.0

    @property
    def c2(self) -> float:
        return 2.0 / (1.0 - self.alpha)

    @property
    def dof(self) -> float:
        return 2.0 * (self.problem.n - self.problem.k) / (1.0 - self.alpha)

    @property
    def A(self) -> float:
        return self.problem.m / 2.0 + self.dof / 2.0

    @property
    def groups(self) -> list[tuple[int, float, float, list[int]]]:
        """The spectrum of both scale matrices: (count, sigma_u, sigma_b, axes) per set of axes with equal scales.

        Axis i < l along Q has sigma_u = c2 + d_i and sigma_b = c2 + e_b,i (sigma_b = sigma_u at B = 0), and the
        m - l axes outside Q have (c2, c2).  Groups come in first-seen order; axes lists the members below l.
        """
        c2, m, l, d = self.c2, self.problem.m, self.problem.l, self.problem.d
        members: dict[tuple[float, float], list[int]] = {}
        for i, key in enumerate(list(zip((c2 + d).tolist(), (c2 + self.e_b).tolist())) + [(c2, c2)] * (m - l)):
            members.setdefault(key, []).append(i)
        return [(len(axes), u, b, [i for i in axes if i < l]) for (u, b), axes in members.items()]

    def __getitem__(self, index) -> "PredictiveKernel":
        rows = ("v", "s", "log_const", "theta_b", "o")
        return replace(self, **{name: np.asarray(getattr(self, name))[index] for name in rows})

    def log_unnormalized(self, y) -> float | np.ndarray:
        """log p(y) - log_const at a point, shape (m,), or at the rows of a batch, shape (N, m)."""
        pts, single = _points(y, self._single_m(self.s))
        Q = self.problem.Q
        out = -self.A * np.log(_quad_form(pts - Q @ self.v, Q, self.c2, self.problem.d) + self.s)
        if self.B:  # a zero exponent skips its factor: 0 log(inf) at an infinite point would be nan
            out -= self.B * np.log(_quad_form(pts - Q @ self.theta_b, Q, self.c2, self.e_b) + self.o)
        return float(out[0]) if single else out


def best_invariant_kernel(problem: CanonicalProblem, obs: CanonicalObservation, alpha: float) -> PredictiveKernel:
    """The best invariant density of each observation of a block (or of one observation).

    It is multivariate t with 2(n-k)/(1-alpha) degrees of freedom, location
    Q v and scale matrix (s/dof) A_u, A_u = c2 I + Q diag(d) Q'.
    """
    s = _check_obs(problem, obs)
    kernel = PredictiveKernel(problem, _check_alpha(alpha), obs.v, s, B=0.0, e_b=problem.d, theta_b=obs.v, o=s)
    m, dof = problem.m, kernel.dof
    counts, sigma_u = np.array([group[:2] for group in kernel.groups]).T
    log_const = (math.lgamma((dof + m) / 2.0) - math.lgamma(dof / 2.0)
                 - (m / 2.0) * math.log(math.pi) - 0.5 * float(counts @ np.log(sigma_u)) + (dof / 2.0) * np.log(s))
    return replace(kernel, log_const=log_const)


def shrinkage_bayes_kernel(prior: PriorSpec, obs: CanonicalObservation, alpha: float) -> PredictiveKernel:
    """The shrinkage density of each observation of a block (or of one observation).

    Its kernel is (q_u(y) + s)^-A (q_b(y) + o)^-B with A = m/2 + (n-k)/(1-alpha),
    B = nu(n-k)/(1-alpha) and o = r + |v*|^2/gamma + s (v* is empty when m >= k),
    normalized by its certified Gauss-Jacobi quadrature (_log_integral).  Raises
    UnreliableNormalizationError when the certificate fails for any row, as it
    does once a tiny nu rounds B - 1 to -1, where the Beta weight has no mass.
    """
    alpha, problem = _check_alpha(alpha), prior.problem
    s = _check_obs(problem, obs)
    e_b, theta_b, r = shrinkage_components(prior, alpha, obs.v)
    kernel = PredictiveKernel(
        problem=problem, alpha=alpha, v=obs.v, s=s, B=prior.nu * (problem.n - problem.k) / (1.0 - alpha),
        e_b=e_b, theta_b=theta_b, o=r + _row_dot(obs.v_star, obs.v_star) / prior.gamma_prior + s,
    )
    return replace(kernel, log_const=-_log_integral(kernel, prior.nu))


JACOBI_POWER = 8.0  # _log_integral's power kappa makes kappa (A - m/2) at least this


def _log_integral(kernel: PredictiveKernel, nu: float) -> float | np.ndarray:
    """log Z of each row, Z the integral of the shrinkage kernel over R^m, as a Beta(A, B) expectation.

    Write each factor as a Gamma integral, integrate y per spectral group j of kernel.groups (n_j axes at
    scales sigma_u_j, sigma_b_j) and then the total rate.  The first factor's share w of it, mapped by
    w' = w s/(w s + (1-w) o), is Beta(A, B).  With P = A + B - m/2 and delta2_j the sum of (v - theta_b)^2
    over j's axes along Q:
      log Z = (m/2) log pi + lnG(P) - lnG(A + B) + (m/2 - A) log s + (m/2 - B) log o + log E F(w'),
      log F = -P log(1 + w'(1-w') sum_j delta2_j/(sigma_u_j sigma_b_j q_j)) - sum_j (n_j/2) log q_j,
      q_j = w' o/sigma_u_j + (1-w') s/sigma_b_j, so no product s o can overflow.
    The weight carries (1-w')^(B-1), so a small B costs nothing.  But F falls like w'^(-m/2) down to
    w' ~ s/o, whose share (s/o)^(A - m/2) of E F no w'^(A-1) rule resolves once A - m/2 = (n-k)/(1-alpha) is
    small (n - k = 1 at alpha = -1: 134 of 4096 rows uncertified).  So w' = xi^kappa, with
    kappa = ceil(JACOBI_POWER/(A - m/2)) (1 on the shipped configs from alpha = -1/8): that share falls
    like xi^(kappa (A - m/2)), and E F is kappa Be(kappa A, B)/Be(A, B) times the mean of
    (sum_{i<kappa} xi^i)^(B-1) F(xi^kappa) under jacobi(kappa A - 1, B - 1, n), certified to QUAD_TOL.
    A B whose B - 1 rounds to -1, or a lnG past the float range, raises UnreliableNormalizationError
    naming alpha, the prior's nu and B.
    """
    A, B, m, groups = kernel.A, kernel.B, kernel.problem.m, kernel.groups
    P, kappa = A + B - m / 2.0, max(1, math.ceil(JACOBI_POWER / (A - m / 2.0)))
    what = f"shrinkage constant at alpha = {kernel.alpha:.6g}, nu = {nu:.6g}, B = {B:.6g}"
    half, inv_u, inv_b = np.array([(count / 2.0, 1.0 / u, 1.0 / b) for count, u, b, _ in groups]).T
    s, o = np.reshape(kernel.s, -1), np.reshape(kernel.o, -1)
    delta2 = np.reshape(kernel.v - kernel.theta_b, (-1, kernel.problem.l)) ** 2
    coupling = np.stack([delta2[:, axes].sum(axis=1) for *_, axes in groups], axis=1) * inv_u * inv_b

    def log_mean(n: int, rows: np.ndarray) -> np.ndarray:
        xi, log_w = jacobi(kappa * A - 1.0, B - 1.0, n)
        x = xi ** kappa
        log_w = log_w + (B - 1.0) * np.log((xi[:, None] ** np.arange(kappa)).sum(axis=1))
        q = (x[:, None] * inv_u) * o[rows, None, None] + ((1.0 - x)[:, None] * inv_b) * s[rows, None, None]
        ratio = np.einsum("rng,rg->rn", (x * (1.0 - x))[:, None] / q, coupling[rows])
        log_f = log_w - P * np.log1p(ratio) - np.log(q) @ half
        top = log_f.max(axis=1)
        return top + np.log(np.exp(log_f - top[:, None]).sum(axis=1))

    if not P < 2.5e305:  # math.lgamma overflows from about 2.55e305, and an infinite B makes P infinite
        raise UnreliableNormalizationError(f"lnGamma(P) is not finite at P = {P:.6g} ({what})")
    const = ((m / 2.0) * math.log(math.pi) + math.lgamma(P) - math.lgamma(kappa * A + B)
             + (math.lgamma(kappa * A) - math.lgamma(A) + math.log(kappa)))
    out = const + (m / 2.0 - A) * np.log(s) + (m / 2.0 - B) * np.log(o) + certified(log_mean, s.size, what, QUAD_TOL)
    return float(out[0]) if np.ndim(kernel.s) == 0 else out


# _node_pairs leaves out pairs below e^-LOSS_WEIGHT_DROP of the heaviest
LOSS_WEIGHT_DROP = 60.0


@functools.lru_cache(maxsize=64)
def _node_pairs(a_x: float, a_y: float | None, n: int) -> tuple[np.ndarray, ...]:
    """The kept node pairs of the tensor of laguerre(a_x, n) and laguerre(a_y, n): rows 1, X, Y, X Y; log w.

    a_y None, for a factor of exponent 0, stands for a single node 0 of weight 1.  Pairs run x-major, and
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
    """log_i(n, index): log I, I = int p^(1-beta) phat^beta, for the rows index of a block kernel at n nodes per factor.

    Each factor (q + s)^(-A beta) = int t^(A beta - 1) e^(-t(q + s)) dt / Gamma(A beta), after which y integrates
    as a Gaussian: per axis, with kappa = (1-alpha)/4, a factor (pi sigma_u sigma_b/P)^(1/2)
    exp(-(t dv + u db + t u dvb)/P), where P = kappa sigma_u sigma_b + sigma_b t + sigma_u u,
    dv = kappa sigma_b (theta - v)^2, db = kappa sigma_u (theta - theta_b)^2 and dvb = (v - theta_b)^2.  The
    axes of one spectral group (kernel.groups) share P: its size scales the log, and its members' deviations
    along Q add up (the m - l axes outside Q have none).  The rules run in the node coordinates X = t s and
    Y = u o, with P and the numerator times s: s P = kappa sigma_u sigma_b s + sigma_b X + sigma_u (s/o) Y and
    s num = dv X + db (s/o) Y + (dvb/o) X Y.  As o >= s (o = s at B = 0), no 1/s, 1/o or 1/(s o) forms, and
    s from 1e-300 to 1e300 scores; the groups' log s P give back (m/2) log s, so the row constant carries
    (m/2 - A beta) log s.  Each row has two triples of coefficients per group, built once as (rows, 3) arrays,
    which np.einsum contracts with the bases [1, X, Y] and [X, Y, XY], the first and last three rows of
    _node_pairs's array.  einsum without optimize sums each element in the same order whatever the number of
    rows, where a BLAS product need not, so a row's bits do not depend on its chunk.  At B = 0 u takes the
    single node 0.  The integrand is at most (pi/kappa)^(m/2), so dropping light pairs is safe; rows go
    ROW_CHUNK // kept at a time.
    """
    alpha, m = kernel.alpha, kernel.problem.m
    beta, kappa = (1.0 + alpha) / 2.0, (1.0 - alpha) / 4.0
    s, o, v, theta_b, s_o = kernel.s, kernel.o, kernel.v, kernel.theta_b, kernel.s / kernel.o
    log_const = beta * kernel.log_const + (m / 2.0 - kernel.A * beta) * np.log(s) - kernel.B * beta * np.log(o)
    log_const += (m * (1.0 - alpha) / 4.0) * math.log(1.0 / (2.0 * math.pi))
    terms = []
    for count, sigma_u, sigma_b, eig in kernel.groups:
        log_const += (count / 2.0) * math.log(math.pi * sigma_u * sigma_b)
        lin = np.stack([kappa * sigma_u * sigma_b * s, np.full_like(s, sigma_b), sigma_u * s_o], axis=1)
        dev = np.stack([kappa * sigma_b * ((theta[eig] - v[:, eig]) ** 2).sum(axis=1),
                        kappa * sigma_u * ((theta[eig] - theta_b[:, eig]) ** 2).sum(axis=1) * s_o,
                        ((v[:, eig] - theta_b[:, eig]) ** 2).sum(axis=1) / o], axis=1)
        terms.append((count / 2.0, lin, dev))

    def log_i(n: int, index: np.ndarray) -> np.ndarray:
        basis, log_w = _node_pairs(kernel.A * beta - 1.0, kernel.B * beta - 1.0 if kernel.B else None, n)
        width = max(1, ROW_CHUNK // log_w.size)
        chosen = [(half, lin[index], dev[index]) for half, lin, dev in terms]
        out = log_const[index]
        for lo in range(0, index.size, width):
            # each subtraction writes into the temporary it consumes: as1_desk's alpha = 0 risk, 7 points x 2 rules
            # x 2000 rows, took 0.18-0.26 s with plain expressions and 0.13 s in place (2-core Xeon, numpy 2.4.6)
            log_f = log_w
            for half, lin, dev in chosen:
                P = np.einsum("ik,kj->ij", lin[lo:lo + width], basis[:3])
                num = np.einsum("ik,kj->ij", dev[lo:lo + width], basis[1:])
                log_f = np.subtract(log_f, np.divide(num, P, out=num), out=num)
                log_f = np.subtract(log_f, np.multiply(half, np.log(P, out=P), out=P), out=P)
            shift = log_f.max(axis=1)
            log_f -= shift[:, None]
            out[lo:lo + width] += shift + np.log(np.exp(log_f, out=log_f).sum(axis=1))
        return out

    return log_i


# _expected_log's window in z = log(c tau) runs from FRULLANI_Z0 to e^(-o tau) = e^-FRULLANI_T or M's tail FRULLANI_EPS
FRULLANI_EPS, FRULLANI_T, FRULLANI_Z0, FRULLANI_START_NODES = 1e-14, 60.0, -16.0, 54


def _expected_log(kernel: PredictiveKernel, second: bool, theta: np.ndarray) -> np.ndarray:
    """E log(q(Y) + o) for each row of a block, Y ~ N(Q theta, I), q and o a kernel factor's quadratic form and offset.

    M(tau) = E e^(-tau q(Y)) = prod_j (1 + 2 tau/sigma_j)^(-n_j/2) exp(-(tau/sigma_j) dev_j/(1 + 2 tau/sigma_j))
    over kernel.groups: group j has n_j axes at the factor's scale sigma_j (sigma_u, or sigma_b for the second
    factor), and dev_j sums (theta_i - mu_i)^2 over its axes along Q, mu the factor's center.  With c = o + E q,
    E q = sum_j (n_j + dev_j)/sigma_j, E log(q + o) = log c + int_0^inf e^(-o tau) (e^((o - c) tau) - M) dtau/tau
    (Frullani), of one scale in z = log(c tau): near 0 the integrand is -tau^2 Var q/2 and Var q <= 2 c^2, so z
    from FRULLANI_Z0 drops under FRULLANI_EPS, and as M <= (1 + 2 tau/sigma_max)^(-m/2) the window is at most
    about 90 wide.  Gauss-Legendre rules, certified to QUAD_TOL from FRULLANI_START_NODES, contract by np.einsum.
    """
    o, m = kernel.o if second else kernel.s, kernel.problem.m
    sq = (theta - (kernel.theta_b if second else kernel.v)) ** 2
    terms = [(n / 2.0, sigma[second], sq[:, axes].sum(axis=1) / sigma[second]) for n, *sigma, axes in kernel.groups]
    c = o + sum(2.0 * half / sigma + dev for half, sigma, dev in terms)
    tail = math.log(max(sigma for _, sigma, _ in terms) / 2.0) + (2.0 / m) * math.log(2.0 / (m * FRULLANI_EPS))
    width = np.log(c) + np.minimum(math.log(FRULLANI_T) - np.log(o), tail) - FRULLANI_Z0

    def integral(n: int, rows: np.ndarray) -> np.ndarray:
        x, log_w = jacobi(0.0, 0.0, n)
        tau, log_m = np.exp(FRULLANI_Z0 + width[rows, None] * x) / c[rows, None], 0.0
        for half, sigma, dev in terms:
            grow = 2.0 * tau / sigma
            log_m = log_m - half * np.log1p(grow) - tau * dev[rows, None] / (1.0 + grow)
        f = np.exp(-o[rows, None] * tau) * (np.expm1((o - c)[rows, None] * tau) - np.expm1(log_m))
        return width[rows] * np.einsum("rn,n->r", f, np.exp(log_w))

    return np.log(c) + certified(integral, o.size, "Frullani integral at alpha = -1", QUAD_TOL, FRULLANI_START_NODES)


# ---------------------------------------------------------------------------
# Plug-in estimators (alpha = 1)
# ---------------------------------------------------------------------------


def plugin_bayes_estimators(prior: PriorSpec, obs: CanonicalObservation) -> PluginEstimate:
    """Shrinkage plug-in estimates of theta and sigma^2 at alpha = 1.

    W = (V' C^{-1} D^{-1} V + |V*|^2 / gamma) / S; both estimators shrink
    by nu/(nu + 1 + W).  A block of observations gives a block of estimates.
    """
    problem, c = prior.problem, prior.c
    s = _check_obs(problem, obs)
    v, v_star = obs.v, obs.v_star
    w = (_row_dot(v, v / (c * problem.d)) + _row_dot(v_star, v_star) / prior.gamma_prior) / s
    nu = prior.nu
    f = nu / (nu + 1.0 + w)
    theta = (1.0 - f[..., None] / c) * v
    sigma2 = (1.0 - f) * s / (problem.n - problem.k)
    return PluginEstimate(problem, theta, sigma2)


def umvu_estimators(problem: CanonicalProblem, obs: CanonicalObservation) -> PluginEstimate:
    """Unbiased baseline: theta_hat = V, sigma2_hat = S/(n-k), per observation of a block.

    It is the no-shrinkage limit of the plug-in rule, W at infinity.
    """
    s = _check_obs(problem, obs)
    return PluginEstimate(problem, obs.v, s / (problem.n - problem.k))


def stein_variance(problem: CanonicalProblem, obs: CanonicalObservation) -> PluginEstimate:
    """theta_hat = V and Stein's variance estimate min(S/(n-k), (V'D^{-1}V + S)/(l + n - k)), per observation."""
    s = _check_obs(problem, obs)
    n, k, l, d = problem.n, problem.k, problem.l, problem.d
    return PluginEstimate(problem, obs.v, np.minimum(s / (n - k), (_row_dot(obs.v, obs.v / d) + s) / (l + n - k)))


def stein_variance_star(problem: CanonicalProblem, obs: CanonicalObservation) -> PluginEstimate:
    """theta_hat = V and the variance estimate pooling the auxiliary statistic, min(S/(n-k), (|V*|^2 + S)/(n - l))."""
    s = _check_obs(problem, obs)
    if obs.v_star.shape[-1] == 0:
        raise ValueError("v_star is empty; the pooled variant needs m < k")
    n, k, l = problem.n, problem.k, problem.l
    return PluginEstimate(problem, obs.v, np.minimum(s / (n - k), (_row_dot(obs.v_star, obs.v_star) + s) / (n - l)))


def alpha_limit_check(prior: PriorSpec, obs: CanonicalObservation, points, alpha_sequence) -> np.ndarray:
    """Gap between the normalized shrinkage log density and the plug-in normal.

    Returns an array of shape (len(alpha_sequence), n_points) with
    |log p_alpha(y) - log plugin(y)|.  The sequence must increase toward 1, at most to ALPHA_MAX.
    """
    alphas = [_check_alpha(a) for a in alpha_sequence]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha_sequence must be increasing")
    pts, _ = _points(np.atleast_2d(points), prior.problem.m)
    ref = plugin_bayes_estimators(prior, obs).log_density(pts)
    gaps = np.empty((len(alphas), pts.shape[0]))
    for i, alpha in enumerate(alphas):
        gaps[i] = np.abs(shrinkage_bayes_kernel(prior, obs, alpha).log_density(pts) - ref)
    return gaps
