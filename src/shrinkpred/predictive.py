"""Generalized Bayes predictive densities for the canonical problem.

Three density constructions are provided for the future observation
ytilde ~ N_m(Q theta, I/eta):

* the best invariant density (Bayes under the right invariant prior
  pi(theta, mu, eta) = 1/eta), a multivariate t once normalized;
* the hierarchical shrinkage density for divergence index alpha < 1, which
  factors as the best invariant kernel times a second polynomial kernel
  centered at a shrunken mean;
* the plug-in normal at alpha = 1, whose mean and variance shrink the
  unbiased estimators by the data-adaptive factor nu/(nu + 1 + W).

Densities are evaluated in the log domain.  The shrinkage density's
constant reduces, through Gamma integrals, to one integral on the logit
scale, which a trapezoid rule computes to a certified 1e-10 in log Z;
importance sampling (normalize_density) stays only as its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import betaln, gammaln, log_expit

from .bounds import a_of_nu, nu_limits, nu_of_prior, rescale_C_for_positivity
from .canonical import (
    STREAM_NORMALIZATION,
    CanonicalObservation,
    CanonicalProblem,
    _freeze,
    _rows,
    replication_rng,
)

__all__ = [
    "DegenerateObservationError",
    "UnreliableNormalizationError",
    "PriorSpec",
    "ShrinkageComponents",
    "NormalizationCertificate",
    "PredictiveDensity",
    "PluginEstimate",
    "shrinkage_components",
    "log_best_invariant",
    "best_invariant_normalizer",
    "best_invariant_density",
    "log_shrinkage_bayes",
    "shrinkage_bayes_density",
    "normalize_density",
    "plugin_bayes_estimators",
    "plugin_density",
    "umvu_estimators",
    "stein_variance",
    "stein_variance_star",
    "alpha_limit_check",
    "lemma_identity_residual",
    "beta_integral_identity",
    "log_marginal_kernel",
]

MIN_ESS_FRACTION = 0.05

# Certificate of the logit-scale trapezoid rule for the shrinkage constant (_log_trapezoid):
# both window ends QUAD_DROP below the peak, and n vs 2n intervals within QUAD_TOL in log Z.
QUAD_HALF_WIDTH, QUAD_MAX_WIDTH, QUAD_DROP = 32.0, 2.0**30, 40.0
QUAD_START_INTERVALS, QUAD_MAX_INTERVALS, QUAD_TOL = 128, 1 << 16, 1e-10


class DegenerateObservationError(ValueError):
    """Residual sum of squares is zero; scale-dependent densities are undefined."""


class UnreliableNormalizationError(RuntimeError):
    """A normalizing constant failed its certificate (quadrature or importance-sampling guard)."""


def _check_alpha(alpha: float, allow_one: bool = False) -> float:
    alpha = float(alpha)
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    if not allow_one and alpha == 1.0:
        raise ValueError("alpha = 1 is not supported here; use the plug-in path")
    return alpha


def _check_s(obs: CanonicalObservation) -> float | np.ndarray:
    if np.any(obs.s <= 0):
        raise DegenerateObservationError("observation has s = 0")
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


class _SpectralScale:
    """Scale matrix A = c2 I + Q diag(e) Q' of a density kernel.

    Q has orthonormal columns and e >= 0, so A has eigenvalue c2 + e_i along
    column i of Q and c2 on the orthogonal complement: its inverse,
    log-determinant and square root are closed-form.
    """

    def __init__(self, c2: float, Q: np.ndarray, e: np.ndarray):
        self.c2, self.Q, self.e = c2, Q, e

    def quad(self, resid: np.ndarray) -> np.ndarray:
        """Quadratic forms r' A^{-1} r for rows r of resid, shape (N, m).

        (|r|^2 - |Q'r|^2)/c2 + sum_i (Q'r)_i^2/(c2 + e_i), arranged as
        (|r|^2 - sum_i (Q'r)_i^2 e_i/(c2 + e_i))/c2.
        """
        proj = resid @ self.Q
        proj *= proj
        return (np.einsum("ij,ij->i", resid, resid) - proj @ (self.e / (self.c2 + self.e))) / self.c2

    def logdet(self) -> float:
        m, l = self.Q.shape
        return (m - l) * math.log(self.c2) + float(np.sum(np.log(self.c2 + self.e)))

    def root(self, z: np.ndarray) -> np.ndarray:
        """Rows of z mapped in place by the symmetric square root of A.

        sqrt(A) z = sqrt(c2) z + Q diag(sqrt(c2 + e_i) - sqrt(c2)) Q' z.
        """
        root_c2 = math.sqrt(self.c2)
        zq = z @ self.Q
        zq *= np.sqrt(self.c2 + self.e) - root_c2
        z *= root_c2
        z += zq @ self.Q.T
        return z


# ---------------------------------------------------------------------------
# Prior and estimate types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the hierarchical shrinkage prior.

    ``c`` scales the prior covariance componentwise (c_i >= 1; a larger c_i
    shrinks component i less), ``a`` is the common exponent of the
    precision and mixing densities, and ``gamma_prior`` scales the prior on
    the auxiliary mean.  Problem dimensions are captured so the derived
    quantities nu and b_of_alpha are self-contained.
    """

    c: np.ndarray
    a: float
    gamma_prior: float
    n: int
    k: int
    m: int

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).ravel()
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        l = min(self.k, self.m)
        if c.shape != (l,):
            raise ValueError(f"c must have length l = {l}")
        if np.any(c < 1):
            raise ValueError("entries of c must be >= 1")
        if not self.a > -self.k / 2.0 - 1.0:
            raise ValueError("a must exceed -k/2 - 1")
        if self.gamma_prior < 1:
            raise ValueError("gamma_prior must be >= 1")
        if self.n <= self.k:
            raise ValueError("need n > k")

    @property
    def l(self) -> int:
        return min(self.k, self.m)

    @property
    def nu(self) -> float:
        return nu_of_prior(self.k, self.a, self.n)

    def b_of_alpha(self, alpha: float) -> float:
        alpha = _check_alpha(alpha, allow_one=True)
        return (1.0 - alpha) * self.m / 4.0 + (self.n - self.k) / 2.0 - 1.0

    @classmethod
    def from_problem(
        cls,
        problem: CanonicalProblem,
        c: np.ndarray | float | None = None,
        a: float | None = None,
        nu: float | None = None,
        gamma_prior: float = 1.0,
    ) -> "PriorSpec":
        if c is None:
            c_arr = np.ones(problem.l)
        else:
            c_arr = np.broadcast_to(np.asarray(c, dtype=float), (problem.l,)).copy()
        if (a is None) == (nu is None):
            raise ValueError("specify exactly one of a or nu")
        if a is None:
            a = a_of_nu(problem.k, nu, problem.n)
        return cls(c=c_arr, a=float(a), gamma_prior=float(gamma_prior),
                   n=problem.n, k=problem.k, m=problem.m)

    @classmethod
    def minimax_default(cls, problem: CanonicalProblem, gamma_prior: float = 1.0) -> "PriorSpec":
        """C = g0*I with g0 the positivity rescale, nu at the domination cap."""
        c0 = np.ones(problem.l)
        g0 = rescale_C_for_positivity(problem.d, c0, problem.m, problem.n, problem.k)
        c = g0 * c0
        nb = nu_limits(problem.d, c, problem.m, problem.n, problem.k)
        return cls.from_problem(problem, c=c, nu=nb.nu_max, gamma_prior=gamma_prior)


@dataclass(frozen=True)
class ShrinkageComponents:
    """Pieces of the two-kernel factorization of the shrinkage density.

    The kernels' scale matrices are c2 I + Q diag(e_u) Q' and
    c2 I + Q diag(e_b) Q' with c2 = 2/(1 - alpha).
    """

    e_u: np.ndarray
    theta_hat_b: np.ndarray
    e_b: np.ndarray
    r: float

    def __post_init__(self):
        for name in ("e_u", "theta_hat_b", "e_b"):
            v = np.asarray(getattr(self, name), dtype=float).ravel()
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if self.r < 0:
            raise ValueError("r must be nonnegative")


@dataclass(frozen=True)
class PluginEstimate:
    """Plug-in mean and variance estimates with the shrinkage statistic W, one row per block row."""

    theta_hat: np.ndarray
    sigma2_hat: float | np.ndarray
    w: float | np.ndarray

    def __post_init__(self):
        sigma2 = _freeze(self.sigma2_hat)
        object.__setattr__(self, "theta_hat", _rows(self.theta_hat, sigma2.shape))
        object.__setattr__(self, "sigma2_hat", float(sigma2) if sigma2.ndim == 0 else sigma2)
        if not np.all(sigma2 > 0):
            raise ValueError("sigma2_hat must be positive")
        if np.any(np.asarray(self.w) < 0):
            raise ValueError("w must be nonnegative")


@dataclass(frozen=True)
class NormalizationCertificate:
    """Provenance of a density's normalizing constant."""

    method: str  # "closed_form", "quadrature" or "importance_sampled"
    n_samples: int | None = None
    seed: int | None = None
    std_error: float = 0.0

    def __post_init__(self):
        if self.method not in ("closed_form", "quadrature", "importance_sampled"):
            raise ValueError("unknown normalization method")


@dataclass(frozen=True)
class PredictiveDensity:
    """Evaluable log density: log p(y) = log_unnormalized(y) + log_norm_const."""

    log_unnormalized: Callable[[np.ndarray], np.ndarray]
    log_norm_const: float
    certificate: NormalizationCertificate
    m: int
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None

    def log_density(self, y) -> np.ndarray | float:
        pts, single = _points(y, self.m)
        out = self.log_unnormalized(pts) + self.log_norm_const
        return float(out[0]) if single else out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.sampler is None:
            raise ValueError("density has no sampler")
        return self.sampler(rng, size)


# ---------------------------------------------------------------------------
# Shrinkage factorization
# ---------------------------------------------------------------------------


def shrinkage_components(
    problem: CanonicalProblem,
    prior: PriorSpec,
    alpha: float,
    v: np.ndarray,
) -> ShrinkageComponents:
    """Spectra, shrunken mean and residual of the two-kernel factorization.

    With c2 = 2/(1 - alpha) the scale matrices are c2 I + Q diag(e) Q' with
      e_u       = d
      e_b       = (c - 1) d / (c + (1-alpha)d/2)                (componentwise)
      theta_b   = (C - I)(C + (1-alpha)D/2)^{-1} v
      r         = sum_i v_i^2 ((1-alpha)d_i/2 + 1) / (d_i (c_i + (1-alpha)d_i/2))
    """
    alpha = _check_alpha(alpha)
    v = np.asarray(v, dtype=float).ravel()
    d, c = problem.d, prior.c
    if v.shape != (problem.l,):
        raise ValueError("v must have length l")
    half = (1.0 - alpha) / 2.0
    theta_b = (c - 1.0) / (c + half * d) * v
    e_b = (c - 1.0) * d / (c + half * d)
    r = float(v @ ((half * d + 1.0) / (d * (c + half * d)) * v))
    return ShrinkageComponents(e_u=d, theta_hat_b=theta_b, e_b=e_b, r=r)


def log_best_invariant(
    problem: CanonicalProblem,
    obs: CanonicalObservation,
    alpha: float,
    ytilde,
) -> float:
    """Unnormalized log of the best invariant density at ytilde."""
    dens = best_invariant_density(problem, obs, alpha)
    pts, single = _points(ytilde, problem.m)
    out = dens.log_unnormalized(pts)
    return float(out[0]) if single else out


def best_invariant_normalizer(problem: CanonicalProblem, obs: CanonicalObservation, alpha: float) -> float:
    """Log constant that normalizes the best invariant kernel."""
    return best_invariant_density(problem, obs, alpha).log_norm_const


def best_invariant_density(problem: CanonicalProblem, obs: CanonicalObservation, alpha: float) -> PredictiveDensity:
    """Normalized best invariant density with a multivariate-t sampler.

    The density is multivariate t with 2(n-k)/(1-alpha) degrees of freedom,
    location Qv and scale matrix (s/dof) A_u, A_u = c2 I + Q diag(d) Q'.
    """
    alpha = _check_alpha(alpha)
    s = _check_s(obs)
    m, q = problem.m, problem.n - problem.k
    scale = _SpectralScale(2.0 / (1.0 - alpha), problem.Q, problem.d)
    mean = problem.Q @ obs.v
    expo = -m / 2.0 - q / (1.0 - alpha)
    nu_a = 2.0 * q / (1.0 - alpha)
    log_nc = float(
        gammaln((nu_a + m) / 2.0) - gammaln(nu_a / 2.0)
        - (m / 2.0) * math.log(math.pi) - 0.5 * scale.logdet() + (nu_a / 2.0) * math.log(s)
    )

    def log_unnorm(pts: np.ndarray) -> np.ndarray:
        return expo * np.log(scale.quad(pts - mean) + s)

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        y = scale.root(rng.standard_normal((size, m)))
        y *= np.sqrt(s / rng.chisquare(nu_a, size))[:, None]
        y += mean
        return y

    return PredictiveDensity(
        log_unnormalized=log_unnorm,
        log_norm_const=log_nc,
        certificate=NormalizationCertificate(method="closed_form"),
        m=m,
        sampler=sampler,
    )


class _ShrinkageKernel:
    """The shrinkage kernel (q_u(y) + s)^-A (q_b(y) + o)^-B: log values on rows, and its log integral.

    q_u, q_b are the quadratic forms of c2 I + Q diag(e_u) Q' about Q v and
    of c2 I + Q diag(e_b) Q' about Q theta_b, c2 = 2/(1-alpha),
    A = m/2 + (n-k)/(1-alpha), B = (k+2a+2)/(1-alpha) and
    o = r + |v*|^2/gamma + s (v* is empty when m >= k).
    """

    def __init__(self, problem: CanonicalProblem, prior: PriorSpec, obs: CanonicalObservation, alpha: float):
        comp = shrinkage_components(problem, prior, alpha, obs.v)
        self.m, self.c2, self.s = problem.m, 2.0 / (1.0 - alpha), _check_s(obs)
        self.scales = [_SpectralScale(self.c2, problem.Q, e) for e in (comp.e_u, comp.e_b)]
        self.means = [problem.Q @ obs.v, problem.Q @ comp.theta_hat_b]
        self.delta = obs.v - comp.theta_hat_b
        self.A = problem.m / 2.0 + (problem.n - problem.k) / (1.0 - alpha)
        self.B = (problem.k + 2.0 * prior.a + 2.0) / (1.0 - alpha)
        self.o = comp.r + float(obs.v_star @ obs.v_star) / prior.gamma_prior + self.s

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        (scale_u, scale_b), (mean_u, mean_b) = self.scales, self.means
        lu, lb = np.log(scale_u.quad(pts - mean_u) + self.s), np.log(scale_b.quad(pts - mean_b) + self.o)
        return -self.A * lu - self.B * lb

    def log_integral(self) -> float:
        """log Z, Z the integral over R^m, as one integral on the logit scale.

        Write each factor as a Gamma integral, integrate y and then the total
        rate.  With w = expit(z), sigma_u = c2 + e_u, sigma_b = c2 + e_b,
        p_i(w) = w/sigma_u_i + (1-w)/sigma_b_i, delta = v - theta_b, P = A + B - m/2:
          log Z = (m/2) log pi + ((m-l)/2) log c2 + lnG(P) - lnG(A) - lnG(B) + log int e^G(z) dz,
          G(z) = A log w + B log(1-w) - (1/2) sum_i log p_i(w) - P log h(w),
          h(w) = w s + (1-w) o + w(1-w) sum_i delta_i^2/(sigma_u_i sigma_b_i p_i(w)).
        """
        A, B, s, o, l = self.A, self.B, self.s, self.o, self.delta.size
        P = A + B - self.m / 2.0
        inv_u, inv_b = (1.0 / (self.c2 + scale.e) for scale in self.scales)
        coupling = self.delta**2 * inv_u * inv_b

        def g(z: np.ndarray) -> np.ndarray:
            log_w, log_w1 = log_expit(z), log_expit(-z)
            w, w1 = np.exp(log_w), np.exp(log_w1)
            p = w[:, None] * inv_u + w1[:, None] * inv_b
            h = w * s + w1 * o + w * w1 * ((1.0 / p) @ coupling)
            return A * log_w + B * log_w1 - 0.5 * np.log(p).sum(axis=1) - P * np.log(h)

        const = (self.m / 2.0) * math.log(math.pi) + ((self.m - l) / 2.0) * math.log(self.c2)
        return float(const + gammaln(P) - gammaln(A) - gammaln(B) + _log_trapezoid(g))


def _log_trapezoid(g: Callable[[np.ndarray], np.ndarray]) -> float:
    """log of the integral of exp(g) over the real line, by the trapezoid rule.

    g must be smooth with tails that fall at least linearly; there the rule
    converges geometrically (Trefethen & Weideman, SIAM Rev. 2014).  While
    g at an end of the window is within QUAD_DROP of the largest node value,
    the window doubles toward that end.  Otherwise the step halves, reusing
    every node, until the n- and 2n-interval values agree to QUAD_TOL.
    Past QUAD_MAX_INTERVALS or QUAD_MAX_WIDTH it raises
    UnreliableNormalizationError.
    """
    lo, hi = -QUAD_HALF_WIDTH, QUAD_HALF_WIDTH
    while hi - lo <= QUAD_MAX_WIDTH:
        n, step = QUAD_START_INTERVALS, (hi - lo) / QUAD_START_INTERVALS
        gz = g(np.linspace(lo, hi, n + 1))
        # the trapezoid sum in units of exp(shift), shift the largest node value
        shift = float(gz.max())
        e = np.exp(gz - shift)
        total, gap = float(e.sum() - 0.5 * (e[0] + e[-1])), math.inf
        log_int = shift + math.log(step * total)
        while gz[0] <= shift - QUAD_DROP and gz[-1] <= shift - QUAD_DROP:
            if gap <= QUAD_TOL:
                return log_int
            if n >= QUAD_MAX_INTERVALS:
                raise UnreliableNormalizationError(
                    f"trapezoid rule on [{lo:.3g}, {hi:.3g}] at {n} intervals: n vs 2n gap {gap:.3e}")
            gm = g(lo + step * (np.arange(n) + 0.5))
            top = max(shift, float(gm.max()))
            total = total * math.exp(shift - top) + float(np.exp(gm - top).sum())
            shift, n, step = top, 2 * n, step / 2.0
            new = shift + math.log(step * total)
            gap, log_int = abs(new - log_int), new
        # an end lies in the bulk (or g is not finite there): widen toward it
        width = hi - lo
        lo -= 0.0 if gz[0] <= shift - QUAD_DROP else width
        hi += 0.0 if gz[-1] <= shift - QUAD_DROP else width
    raise UnreliableNormalizationError(f"integrand within {QUAD_DROP} of its peak at an end of [{lo:.3g}, {hi:.3g}]")


def log_shrinkage_bayes(problem: CanonicalProblem, prior: PriorSpec, obs: CanonicalObservation, alpha: float,
                        ytilde) -> float:
    """Unnormalized log of the hierarchical shrinkage density at ytilde."""
    pts, single = _points(ytilde, problem.m)
    out = _ShrinkageKernel(problem, prior, obs, _check_alpha(alpha))(pts)
    return float(out[0]) if single else out


def normalize_density(log_unnormalized: Callable[[np.ndarray], np.ndarray], proposal: PredictiveDensity,
                      n_samples: int, seed: int, rep_index: int = 0) -> PredictiveDensity:
    """Normalize a density by importance sampling against a known proposal.

    The test oracle for the quadrature constant of shrinkage_bayes_density.
    The proposal must be normalized, samplable and dominate the target.
    Raises UnreliableNormalizationError when the effective sample size
    drops below MIN_ESS_FRACTION of n_samples.
    """
    if proposal.sampler is None:
        raise ValueError("proposal must be samplable")
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rng = replication_rng(seed, rep_index, stream=STREAM_NORMALIZATION)
    ys = proposal.sample(rng, n_samples)
    logw = log_unnormalized(ys) - proposal.log_density(ys)
    shift = float(np.max(logw))
    w = np.exp(logw - shift)
    zbar = float(np.mean(w))
    ess = float(w.sum() ** 2 / (w @ w))
    if ess < MIN_ESS_FRACTION * n_samples:
        raise UnreliableNormalizationError(
            f"effective sample size {ess:.1f} of {n_samples} is below the 5% guard"
        )
    rel_se = float(np.std(w, ddof=1) / math.sqrt(n_samples) / zbar)
    return PredictiveDensity(
        log_unnormalized=log_unnormalized,
        log_norm_const=-(shift + math.log(zbar)),
        certificate=NormalizationCertificate(
            method="importance_sampled", n_samples=n_samples, seed=int(seed), std_error=rel_se
        ),
        m=proposal.m,
    )


def shrinkage_bayes_density(problem: CanonicalProblem, prior: PriorSpec, obs: CanonicalObservation,
                            alpha: float) -> PredictiveDensity:
    """Shrinkage density normalized by its certified logit-scale quadrature.

    Raises UnreliableNormalizationError when the certificate fails.
    """
    kernel = _ShrinkageKernel(problem, prior, obs, _check_alpha(alpha))
    return PredictiveDensity(
        log_unnormalized=kernel,
        log_norm_const=-kernel.log_integral(),
        certificate=NormalizationCertificate(method="quadrature"),
        m=problem.m,
    )


# ---------------------------------------------------------------------------
# Plug-in estimators and density (alpha = 1)
# ---------------------------------------------------------------------------


def plugin_bayes_estimators(
    problem: CanonicalProblem,
    prior: PriorSpec,
    obs: CanonicalObservation,
) -> PluginEstimate:
    """Shrinkage plug-in estimates of theta and sigma^2 at alpha = 1.

    W = (V' C^{-1} D^{-1} V + |V*|^2 / gamma) / S; both estimators shrink
    by nu/(nu + 1 + W).  A block of observations gives a block of estimates.
    """
    s = _check_s(obs)
    d, c = problem.d, prior.c
    v, v_star = obs.v, obs.v_star
    w = (np.sum(v * (v / (c * d)), axis=-1) + np.sum(v_star * v_star, axis=-1) / prior.gamma_prior) / s
    nu = prior.nu
    f = nu / (nu + 1.0 + w)
    theta = (1.0 - f[..., None] / c) * v
    sigma2 = (1.0 - f) * s / (problem.n - problem.k)
    return PluginEstimate(theta_hat=theta, sigma2_hat=sigma2, w=w)


def umvu_estimators(obs: CanonicalObservation, n: int, k: int) -> PluginEstimate:
    """Unbiased baseline: theta_hat = V, sigma2_hat = S/(n-k), per observation of a block.

    The no-shrinkage limit corresponds to W at infinity, which is what the
    estimate records.
    """
    s = _check_s(obs)
    return PluginEstimate(theta_hat=obs.v, sigma2_hat=s / (n - k), w=math.inf)


def stein_variance(obs: CanonicalObservation, d: np.ndarray, n: int, k: int) -> float | np.ndarray:
    """Stein variance estimate min(S/(n-k), (V'D^{-1}V + S)/(l + n - k)), per observation of a block."""
    s = _check_s(obs)
    d = np.asarray(d, dtype=float).ravel()
    l = obs.v.shape[-1]
    if d.shape != (l,):
        raise ValueError("d must match the length of v")
    return np.minimum(s / (n - k), (np.sum(obs.v * (obs.v / d), axis=-1) + s) / (l + n - k))


def stein_variance_star(obs: CanonicalObservation, n: int, k: int) -> float | np.ndarray:
    """Variance estimate pooling the auxiliary statistic: min(S/(n-k), (|V*|^2 + S)/(n - l))."""
    s = _check_s(obs)
    if obs.v_star.shape[-1] == 0:
        raise ValueError("v_star is empty; the pooled variant needs m < k")
    l = obs.v.shape[-1]
    return np.minimum(s / (n - k), (np.sum(obs.v_star * obs.v_star, axis=-1) + s) / (n - l))


def plugin_density(est: PluginEstimate, problem: CanonicalProblem) -> PredictiveDensity:
    """Normal density N_m(Q theta_hat, sigma2_hat I) with closed-form constant."""
    mean = problem.Q @ est.theta_hat
    m = problem.m
    sigma2 = est.sigma2_hat
    log_nc = -m / 2.0 * math.log(2.0 * math.pi * sigma2)

    def log_unnorm(pts: np.ndarray) -> np.ndarray:
        r = pts - mean
        return -0.5 * np.einsum("ij,ij->i", r, r) / sigma2

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return mean + math.sqrt(sigma2) * rng.standard_normal((size, m))

    return PredictiveDensity(
        log_unnormalized=log_unnorm,
        log_norm_const=log_nc,
        certificate=NormalizationCertificate(method="closed_form"),
        m=m,
        sampler=sampler,
    )


def alpha_limit_check(problem: CanonicalProblem, prior: PriorSpec, obs: CanonicalObservation, points,
                      alpha_sequence) -> np.ndarray:
    """Gap between the normalized shrinkage log density and the plug-in normal.

    Returns an array of shape (len(alpha_sequence), n_points) with
    |log p_alpha(y) - log plugin(y)|.  The sequence must increase toward 1.
    """
    alphas = [float(a) for a in alpha_sequence]
    if any(a >= 1.0 for a in alphas):
        raise ValueError("all alphas must be < 1")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha_sequence must be increasing")
    pts, _ = _points(np.atleast_2d(points), problem.m)
    target = plugin_density(plugin_bayes_estimators(problem, prior, obs), problem)
    ref = target.log_density(pts)
    gaps = np.empty((len(alphas), pts.shape[0]))
    for i, alpha in enumerate(alphas):
        gaps[i] = np.abs(shrinkage_bayes_density(problem, prior, obs, alpha).log_density(pts) - ref)
    return gaps


# ---------------------------------------------------------------------------
# Identity machinery
# ---------------------------------------------------------------------------


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
    Be(a+1, b+1) / (w+1)^{a+1}.  Returns (quadrature, closed_form).
    """
    if a_exp <= -1 or b_exp <= -1:
        raise ValueError("exponents must exceed -1")
    if w <= -1:
        raise ValueError("w must exceed -1")
    from scipy import integrate  # loads scipy.optimize too; only this check needs it

    g_exp = a_exp + b_exp + 2.0
    val, _ = integrate.quad(
        lambda lam: lam**a_exp * (1.0 - lam) ** b_exp * (1.0 + w * lam) ** (-g_exp),
        0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200,
    )
    closed = math.exp(betaln(a_exp + 1.0, b_exp + 1.0) - (a_exp + 1.0) * math.log(w + 1.0))
    return float(val), closed


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
