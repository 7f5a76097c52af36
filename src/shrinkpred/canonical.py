"""Canonical reduction of the Gaussian regression prediction problem.

Observed data follow y ~ N_n(X beta, sigma^2 I) and the prediction target
follows ytilde ~ N_m(Xtilde beta, sigma^2 I).  This module rotates the
problem into canonical coordinates in which the sufficient statistics are
an l-vector V with diagonal covariance D (l = min(k, m)), an auxiliary
(k - l)-vector V* with identity covariance, and an independent residual
sum of squares S.  The future observation then has mean Q theta with Q
column-orthonormal, which is the form the density and risk modules work in.

One construction serves every design shape.  With the triangular factor
U of the QR decomposition of X, so that X'X = U'U without forming X'X,
and the full singular value decomposition Xtilde U^{-1} = W diag(sv) Z',
the future mean map is Q = W[:, :l] and D = diag(sv[:l]^2).  The
coefficient transform stacks Q' Xtilde, which gives V, over Z[:, l:]' U,
which gives V* and is empty when m >= k; both blocks come out
uncorrelated, with covariances D and I.

Observations are simulated in keyed blocks of BLOCK_SIZE rows (stream
layout 2) at the origin theta = 0, mu = 0, sigma = 1, so replication i
depends only on (seed, i); risk.risk_mc translates a block to each point.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "RankDeficiencyError",
    "CanonicalProblem",
    "CanonicalObservation",
    "CanonicalParams",
    "BLOCK_SIZE",
    "replication_rng",
    "sufficient_statistics",
    "canonicalize",
    "as1_design",
    "as1_problem",
    "to_canonical",
    "params_to_canonical",
    "simulate_observation",
    "invariant_report",
    "problem_to_dict",
    "problem_from_dict",
    "read_int",
    "read_number",
    "read_array",
]

COND_WARN_THRESHOLD = 1e12

# Rows per keyed block of simulated observations; changing it changes every draw.
BLOCK_SIZE = 4096

# Stream tags for the counter-based generator; each consumer of randomness
# gets its own 2^192-draw slice of the keyed counter space, so streams
# sharing a (seed, rep) key never overlap.  DIVERGENCE, NORMALIZATION and
# IDENTITY key only the draws of the Monte Carlo test oracles in
# tests/oracles.py (alpha_divergence_mc, normalize_density,
# chi_square_identity_mc) and stay reserved so no other consumer reuses
# them; LEMMA and BETA draw the identity suite's random instances.
STREAM_OBSERVATION = 0
STREAM_DIVERGENCE = 1
STREAM_NORMALIZATION = 2
STREAM_IDENTITY = 3
STREAM_DESIGN = 4
STREAM_LEMMA = 5
STREAM_BETA = 6


class RankDeficiencyError(ValueError):
    """Design matrix rank deficient beyond tolerance."""


def _check_seed(value: int, name: str = "seed") -> int:
    """value as an int, once it fits a 64-bit key word of the generator (one outside [0, 2^64) aliases one inside)."""
    if not 0 <= int(value) < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2^64), got {value}")
    return int(value)


def replication_rng(master_seed: int, rep_index: int = 0, stream: int = STREAM_OBSERVATION) -> Generator:
    """Counter-based generator keyed by (master_seed, rep_index), each a 64-bit key word in [0, 2^64).

    Distinct (seed, index) pairs map to distinct Philox keys, so draws are
    reproducible in any execution order.  The index is a block index on
    the observation stream and a replication index elsewhere; ``stream``
    separates uses of the same key by offsetting the counter.
    """
    key = (_check_seed(master_seed) << 64) | _check_seed(rep_index, "index")
    return Generator(Philox(key=key, counter=int(stream) << 192))


# Risks depend on (theta, sigma2) only through theta/sigma, and past these bounds a point loses digits.  Above
# THETA_OVER_SIGMA_MAX, V = theta/sigma + sqrt(d) z rounds the noise away (and V* = mu/sigma + z*): umvu's risk on
# as1_desk (seed 1) is 1.2e-10 off its theta = 0 value at 1e8 and 1.1e-9 at 1e9.  risk.risk_mc scores every point at
# sigma = 1, so no loss sees sigma2; SIGMA2_RANGE keeps eta = 1/sigma2 and theta/sigma far inside the float range.
THETA_OVER_SIGMA_MAX = 1e8
SIGMA2_RANGE = (1e-100, 1e100)


def _check_scale(sigma2: float, norm: float = 0.0, name: str = "|theta|", slack: float = 0.0) -> None:
    """Raise unless sigma2 is in SIGMA2_RANGE and norm (of name) at most THETA_OVER_SIGMA_MAX sigma, up to slack."""
    lo, hi = SIGMA2_RANGE
    if not lo * (1.0 - slack) <= sigma2 <= hi * (1.0 + slack):
        raise ValueError(f"sigma2 must be in [{lo:g}, {hi:g}], got {sigma2!r}")
    if not norm / np.sqrt(sigma2) <= THETA_OVER_SIGMA_MAX * (1.0 + slack):
        raise ValueError(f"{name} must be at most {THETA_OVER_SIGMA_MAX:g} sigma, got {norm!r} at sigma2 = {sigma2!r}")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _rows(arr, lead: tuple) -> np.ndarray:
    """arr frozen as one vector (lead == ()) or one vector per block row (lead == (reps,))."""
    out = _freeze(arr)
    return out.ravel() if not lead else out.reshape(lead + out.shape[-1:])


def _row_dot(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """np.sum(a * b, axis=-1) bit for bit, without numpy's per-row reduction cost on short rows.

    numpy adds a row of fewer than 8 entries left to right; so does this, one
    column of the block at a time.  Single rows and longer ones go to np.sum.
    """
    p = a * b
    if p.ndim < 2 or not 0 < p.shape[-1] < 8:
        return np.sum(p, axis=-1)
    out = p[..., 0]
    for j in range(1, p.shape[-1]):
        out = out + p[..., j]
    return out


@dataclass(frozen=True)
class CanonicalProblem:
    """Reduced geometry of the prediction problem.

    ``d`` holds the diagonal of D (nonincreasing, positive), ``Q`` is the
    m x l column-orthonormal mean map of the future observation, and
    ``coef_transform`` is the k x k matrix T with (V; V*) = T beta_hat and
    (theta; mu) = T beta.  n > k, so S has residual degrees of freedom, and
    ``cond_xtx``, the condition number of X'X, is a finite number >= 1.
    """

    n: int
    k: int
    m: int
    d: np.ndarray
    Q: np.ndarray
    coef_transform: np.ndarray
    cond_xtx: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "d", _freeze(self.d).ravel())
        object.__setattr__(self, "Q", _freeze(self.Q))
        object.__setattr__(self, "coef_transform", _freeze(self.coef_transform))
        for name in ("d", "Q", "coef_transform"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must hold finite numbers")
        if not self.n > self.k:
            raise ValueError(f"n must exceed k (no residual degrees of freedom otherwise), got n={self.n}, k={self.k}")
        if not (np.isfinite(self.cond_xtx) and self.cond_xtx >= 1.0):
            raise ValueError(f"cond_xtx must be a finite number >= 1, got {self.cond_xtx!r}")
        l = self.l
        if self.d.shape != (l,) or np.any(self.d <= 0):
            raise ValueError("d must be a positive l-vector")
        if np.any(np.diff(self.d) > 0):
            raise ValueError("d must be nonincreasing")
        if self.Q.shape != (self.m, l):
            raise ValueError("Q must be m x l")
        if np.abs(self.Q.T @ self.Q - np.eye(l)).max() > 1e-8:
            raise ValueError("Q must have orthonormal columns")

    @property
    def l(self) -> int:
        return min(self.k, self.m)

    @property
    def case(self) -> str:
        """Case "I" when m >= k (V* is empty), case "II" when m < k."""
        return "I" if self.m >= self.k else "II"

    @property
    def conditioning_warning(self) -> str | None:
        """A warning when cond_xtx exceeds COND_WARN_THRESHOLD (the reduction still ran), else None."""
        if self.cond_xtx > COND_WARN_THRESHOLD:
            return f"condition number of X'X is {self.cond_xtx:.3e}, above {COND_WARN_THRESHOLD:.1e}"
        return None


@dataclass(frozen=True)
class CanonicalObservation:
    """Sufficient statistics in canonical coordinates: V, V*, S.

    A block of observations gives all three a leading replication axis (s
    of shape (reps,)); indexing it gives one row or a shorter block.
    """

    v: np.ndarray
    v_star: np.ndarray
    s: float | np.ndarray

    def __post_init__(self):
        s = _freeze(self.s)
        object.__setattr__(self, "v", _rows(self.v, s.shape))
        object.__setattr__(self, "v_star", _rows(self.v_star, s.shape))
        object.__setattr__(self, "s", float(s) if s.ndim == 0 else s)
        for key in ("v", "v_star", "s"):
            if not np.all(np.isfinite(getattr(self, key))):
                raise ValueError(f"{key} must hold finite numbers")
        if np.any(s < 0):
            raise ValueError("s must be nonnegative")

    def __getitem__(self, index) -> "CanonicalObservation":
        return CanonicalObservation(v=self.v[index], v_star=self.v_star[index], s=self.s[index])


@dataclass(frozen=True)
class CanonicalParams:
    """Canonical parameters: theta (l-vector), mu ((k-l)-vector), eta; held to THETA_OVER_SIGMA_MAX and SIGMA2_RANGE."""

    theta: np.ndarray
    mu: np.ndarray
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _freeze(self.theta).ravel())
        object.__setattr__(self, "mu", _freeze(self.mu).ravel())
        object.__setattr__(self, "eta", float(self.eta))
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        # to within the rounding of forming theta and eta: at the cap along (1, 1, 1) |theta| is an ulp above it
        for name, part in (("|theta|", self.theta), ("|mu|", self.mu)):
            _check_scale(self.sigma2, float(np.linalg.norm(part)), name, slack=1e-12)

    @property
    def sigma2(self) -> float:
        return 1.0 / self.eta


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def sufficient_statistics(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """(beta_hat, s): least squares coefficients (from X itself, not X'X) and residual sum of squares.

    X must be a finite n x k matrix of full column rank with n > k, and y a
    finite n-vector.
    """
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or not X.shape[0] > X.shape[1] >= 1:
        raise ValueError(f"X must be an n x k matrix with n > k >= 1, got shape {X.shape}")
    if y.shape != X.shape[:1]:
        raise ValueError("y length must match rows of X")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise RankDeficiencyError("X is rank deficient")
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    return beta, float(resid @ resid)


def _fix_column_signs(U: np.ndarray) -> np.ndarray:
    """Flip columns so the first nonzero entry of each is positive."""
    nonzero = np.abs(U) > 1e-12 * np.abs(U).max(axis=0, initial=0.0)
    first = U[nonzero.argmax(axis=0), np.arange(U.shape[1])]
    return U * np.where(first < 0, -1.0, 1.0)


def canonicalize(X: np.ndarray, Xtilde: np.ndarray) -> CanonicalProblem:
    """Reduce the design pair (X, Xtilde) to canonical form.

    Parameters
    ----------
    X : (n, k) array
        Observed design, full column rank.
    Xtilde : (m, k) array
        Future design, rank min(m, k).

    Returns
    -------
    CanonicalProblem
        Case "I" when m >= k, case "II" otherwise.  A condition number of
        X'X above COND_WARN_THRESHOLD gives it a conditioning_warning (the
        reduction still runs).
    """
    X = np.asarray(X, dtype=float)
    Xtilde = np.atleast_2d(np.asarray(Xtilde, dtype=float))
    n, k = X.shape
    m = Xtilde.shape[0]
    if Xtilde.shape[1] != k:
        raise ValueError("Xtilde must have k columns")
    if not (n > k >= 1):
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    # The QR factor U of X never forms X'X, yet X'X = U'U; the row signs of U cancel.  U has the
    # singular values of X, which decide its rank as np.linalg.matrix_rank(X) does and give cond(X'X).
    U = np.linalg.qr(X, mode="r")
    sx = np.linalg.svd(U, compute_uv=False)
    if not sx[-1] > sx[0] * n * np.finfo(float).eps:
        raise RankDeficiencyError("X is rank deficient")
    if np.linalg.matrix_rank(Xtilde) < min(m, k):
        raise RankDeficiencyError("Xtilde is rank deficient")

    # Cov(Xtilde beta_hat) is proportional to A A' for A = Xtilde U^{-1};
    # the SVD A = W diag(sv) Z' diagonalizes it without forming the Gram product A A'.
    A = np.linalg.solve(U.T, Xtilde.T).T
    W, sv, Zt = np.linalg.svd(A)
    l = min(m, k)
    Q = _fix_column_signs(W[:, :l])
    complement = _fix_column_signs((Zt[l:] @ U).T).T  # rows of V*, empty when m >= k
    return CanonicalProblem(
        n=n, k=k, m=m, d=sv[:l] ** 2, Q=Q,
        coef_transform=np.vstack([Q.T @ Xtilde, complement]), cond_xtx=float((sx[0] / sx[-1]) ** 2),
    )


def _check_as1(m: int, k: int, N: int) -> None:
    """Raise unless N copies of an m x k Xtilde form a replicated design: m >= k, a whole N >= 1 and n = N m > k."""
    if not m >= k:
        raise ValueError(f"m must be at least k in the replicated design, got m={m}, k={k}")
    if not (N >= 1 and float(N).is_integer() and N * m > k):
        raise ValueError(f"N must be a positive integer with n = N m > k, got N={N}, m={m}, k={k}")


def as1_design(Xtilde: np.ndarray, N: int) -> np.ndarray:
    """Replicated design: N stacked copies of Xtilde, so X'X = N Xtilde'Xtilde."""
    Xtilde = np.atleast_2d(np.asarray(Xtilde, dtype=float))
    _check_as1(*Xtilde.shape, N)
    return np.tile(Xtilde, (int(N), 1))


def as1_problem(Xtilde: np.ndarray, N: int) -> CanonicalProblem:
    """Canonical problem for the replicated design, with D = I/N held exactly.

    Under X = (Xtilde; ...; Xtilde) every eigenvalue of the canonical
    covariance equals 1/N, the coefficient transform is the symmetric
    square root of Xtilde'Xtilde and Q is the polar factor of Xtilde.  Building these in closed form
    keeps D exact instead of passing through a generic eigensolve.
    """
    Xtilde = np.atleast_2d(np.asarray(Xtilde, dtype=float))
    m, k = Xtilde.shape
    _check_as1(m, k, N)
    if np.linalg.matrix_rank(Xtilde) < k:
        raise RankDeficiencyError("Xtilde is rank deficient")
    U, sv, Vt = np.linalg.svd(Xtilde, full_matrices=False)
    root = Vt.T @ np.diag(sv) @ Vt
    Q = U @ Vt  # polar factor Xtilde (Xtilde'Xtilde)^{-1/2}, exactly orthonormal
    d = np.full(k, 1.0 / N)
    cond = float((sv.max() / sv.min()) ** 2)
    return CanonicalProblem(n=m * int(N), k=k, m=m, d=d, Q=Q, coef_transform=root.T, cond_xtx=cond)


def to_canonical(problem: CanonicalProblem, beta_hat: np.ndarray, s: float) -> CanonicalObservation:
    """Map (beta_hat, S) into canonical coordinates."""
    beta = np.asarray(beta_hat, dtype=float).ravel()
    if beta.shape != (problem.k,):
        raise ValueError(f"beta_hat has length {beta.shape[0]}, expected k={problem.k}")
    w = problem.coef_transform @ beta
    l = problem.l
    return CanonicalObservation(v=w[:l], v_star=w[l:], s=s)


def params_to_canonical(problem: CanonicalProblem, beta: np.ndarray, sigma2: float) -> CanonicalParams:
    """Map (beta, sigma2), sigma2 in SIGMA2_RANGE, into canonical coordinates."""
    _check_scale(sigma2)
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.shape != (problem.k,):
        raise ValueError(f"beta has length {beta.shape[0]}, expected k={problem.k}")
    w = problem.coef_transform @ beta
    l = problem.l
    return CanonicalParams(theta=w[:l], mu=w[l:], eta=1.0 / sigma2)


def simulate_observation(problem: CanonicalProblem, seed: int, block: int = 0) -> CanonicalObservation:
    """Block ``block`` of canonical observations at the origin (theta = 0, mu = 0, sigma = 1): BLOCK_SIZE rows.

    The generator keyed by (seed, block) draws standard normals z (B, l),
    then z* (B, k - l), then B gamma((n-k)/2, 2) variates g; the block is
    V = sqrt(d) z, V* = z*, S = g.  Row r is replication block * B + r, so
    it depends only on (seed, replication); risk.risk_mc moves a block to a
    unit-scale point by translating V by theta and V* by mu.
    """
    rng = replication_rng(seed, block, stream=STREAM_OBSERVATION)
    z = rng.standard_normal((BLOCK_SIZE, problem.l))
    z_star = rng.standard_normal((BLOCK_SIZE, problem.k - problem.l))
    g = rng.gamma((problem.n - problem.k) / 2.0, 2.0, BLOCK_SIZE)
    return CanonicalObservation(v=np.sqrt(problem.d) * z, v_star=z_star, s=g)


# ---------------------------------------------------------------------------
# Invariant checking and serialization
# ---------------------------------------------------------------------------


def invariant_report(problem: CanonicalProblem, X: np.ndarray, Xtilde: np.ndarray) -> dict:
    """Numeric residuals of the defining equations of a canonical problem.

    With T = coef_transform, the covariance T (X'X)^{-1} T' of (V; V*) must
    be blockdiag(D, I), and the future mean map Q T[:l] must reproduce
    Xtilde; (X'X)^{-1} = V diag(sx^-2) V' comes from the SVD of X, which
    shares no factor with the reduction.  Returns a dict with one entry per
    invariant: {"value": gap, "tol": tol, "pass": bool}, plus "all_pass".
    """
    X = np.asarray(X, dtype=float)
    Xtilde = np.atleast_2d(np.asarray(Xtilde, dtype=float))
    _, sx, Vt = np.linalg.svd(X, full_matrices=False)
    l = problem.l
    T = problem.coef_transform
    checks: dict[str, dict] = {}

    def add(name, value, tol):
        checks[name] = {"value": float(value), "tol": float(tol), "pass": bool(value <= tol)}

    add("q_orthonormality", np.abs(problem.Q.T @ problem.Q - np.eye(l)).max(), 1e-10)
    add("d_nonincreasing", max(0.0, float(np.max(np.diff(problem.d), initial=0.0))), 0.0)
    s = np.concatenate([problem.d, np.ones(problem.k - l)]) ** -0.5
    root = s[:, None] * (T @ Vt.T) / sx  # cov = root root'
    cov = root @ root.T
    add("coefficient_covariance", np.abs(cov - np.eye(problem.k)).max(), 1e-8)
    add("future_mean_map", np.linalg.norm(problem.Q @ T[:l] - Xtilde) / np.linalg.norm(Xtilde), 1e-8)
    checks["all_pass"] = all(c["pass"] for c in checks.values() if isinstance(c, dict))
    return checks


def problem_to_dict(problem: CanonicalProblem) -> dict:
    """JSON-ready dict with matrices as row-major nested lists."""
    return {
        "n": problem.n,
        "k": problem.k,
        "m": problem.m,
        "l": problem.l,
        "case": problem.case,
        "d": problem.d.tolist(),
        "Q": problem.Q.tolist(),
        "coef_transform": problem.coef_transform.tolist(),
        "cond_xtx": problem.cond_xtx,
        "conditioning_warning": problem.conditioning_warning,
    }


def _is_number(value) -> bool:
    """A finite JSON number: not a string, true or false, NaN, an infinity or an int beyond the float range."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _nested(value, depth: int) -> bool:
    """depth levels of JSON lists around finite numbers; below the top level, lists of one length."""
    if depth == 0:
        return _is_number(value)
    return (isinstance(value, list) and all(_nested(v, depth - 1) for v in value)
            and (depth == 1 or len(set(map(len, value))) <= 1))


# The readers of every number from outside, a configuration or a problem document: an absent key
# takes its default, and an absent key without one, or a value that is not of its shape of finite
# JSON numbers (null included), raises a ValueError that names the key.
_REQUIRED = object()  # the default of a key that must be given
_SHAPES = {1: "a list of finite numbers", 2: "a list of equal-length rows of finite numbers"}


def _read(doc: dict, key: str, default, valid: Callable, what: str):
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{key} must be given")
        return default
    if not valid(doc[key]):
        raise ValueError(f"{key} must be {what}, got {doc[key]!r}")
    return doc[key]


def read_int(doc: dict, key: str, default=_REQUIRED) -> int:
    """doc[key] as an int; a float of integral value counts."""
    return int(_read(doc, key, default, lambda v: _is_number(v) and float(v).is_integer(), "an integer"))


def read_number(doc: dict, key: str, default=_REQUIRED, low: float | None = None) -> float | None:
    """doc[key] as a float, at least low when one is given."""
    value = _read(doc, key, default, lambda v: _is_number(v) and (low is None or v >= low),
                  "a finite number" + ("" if low is None else f" >= {low:g}"))
    return None if value is None else float(value)


def read_array(doc: dict, key: str, ndim: int, default=_REQUIRED) -> np.ndarray:
    """doc[key], ndim levels of JSON lists of finite numbers, as a float array."""
    out = np.array(_read(doc, key, default, lambda v: _nested(v, ndim), _SHAPES[ndim]), dtype=float)
    return out if out.ndim == ndim else out.reshape((0,) * ndim)  # [] has one dimension


def problem_from_dict(doc: dict) -> CanonicalProblem:
    """Rebuild a problem from ``problem_to_dict`` output; other keys are ignored.

    conditioning_warning is not read: it follows from cond_xtx.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"problem document must be a JSON object, got {type(doc).__name__}")
    args = {}
    for key, read in (("n", read_int), ("k", read_int), ("m", read_int), ("d", partial(read_array, ndim=1)),
                      ("Q", partial(read_array, ndim=2)), ("coef_transform", partial(read_array, ndim=2)),
                      ("cond_xtx", partial(read_number, default=CanonicalProblem.cond_xtx, low=1.0))):
        try:
            args[key] = read(doc, key)
        except ValueError as exc:
            raise ValueError(f"problem document's '{key}' is malformed: {exc}") from None
    try:
        return CanonicalProblem(**args)
    except ValueError as exc:
        raise ValueError(f"problem document is invalid: {exc}") from None
