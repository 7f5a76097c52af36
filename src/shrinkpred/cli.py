"""Batch front-end: canonicalize designs, check identities, compare risks.

Subcommands: canonicalize, bounds, identities, risk-compare, density-eval.
Every run is configured by a single JSON document and one master seed;
outputs are JSON or CSV files under the --out directory, byte-identical
across reruns.

Exit codes: 0 success, 1 usage or configuration error, 2 canonicalization failure, 3 identity
failure, 4 a quadrature (a shrinkage normalizing constant, an alpha < 1 loss or an alpha = -1
Frullani integral) failed its certificate; the message names which, and its alpha.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import bounds as bounds_mod
from .canonical import (
    BLOCK_SIZE,
    STREAM_DESIGN,
    CanonicalObservation,
    CanonicalParams,
    CanonicalProblem,
    RankDeficiencyError,
    _check_as1,
    _check_scale,
    _check_seed,
    as1_problem,
    canonicalize,
    invariant_report,
    problem_from_dict,
    problem_to_dict,
    read_array,
    read_int,
    read_number,
    replication_rng,
)
from .predictive import (
    PriorSpec,
    _check_alpha,
    _check_prior_weights,
    best_invariant_kernel,
    plugin_bayes_estimators,
    shrinkage_bayes_kernel,
    stein_variance,
    stein_variance_star,
    umvu_estimators,
)
from .identities import run_identities
from .quad import UnreliableNormalizationError
from .risk import RiskEstimate, min_reps, minimax_risk, risk_mc, scorer

__all__ = [
    "ExperimentConfig",
    "load_config",
    "run_canonicalize",
    "run_bounds",
    "run_identity_suite",
    "run_risk_compare",
    "run_density_eval",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CANONICAL = 2
EXIT_IDENTITY = 3
EXIT_CERTIFICATE = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_17g(value, indent: int = 0) -> str:
    """Serialize to JSON with floats at 17 significant digits."""
    pad, inner = " " * indent, " " * (indent + 1)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_17g(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{inner}{json.dumps(str(k))}: {_json_17g(v, indent + 1)}" for k, v in value.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_json(path: str, doc: dict):
    with open(path, "w", newline="\n") as fh:
        fh.write(_json_17g(doc) + "\n")


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass
class DesignConfig:
    type: str = "explicit"  # or "as1"
    m: int | None = None
    k: int | None = None
    N: int | None = None
    xtilde: np.ndarray | None = None
    X: np.ndarray | None = None
    Xtilde: np.ndarray | None = None


@dataclass
class PriorConfig:
    c: str | float | list = "identity"
    nu: float | None = None
    gamma_prior: float = 1.0

    @property
    def c0(self) -> float | list:
        """C0, the configured scale before the positivity rescale: "identity" is 1."""
        return 1.0 if self.c == "identity" else self.c


@dataclass
class GridConfig:
    theta_directions: list = field(default_factory=list)
    theta_norms: list = field(default_factory=lambda: [0.0])
    sigma2: list = field(default_factory=lambda: [1.0])


@dataclass
class DensityConfig:
    problem: str | dict | None = None
    observation: str | dict | None = None
    type: str = "best_invariant"
    alpha: float = 0.0
    points: str | None = None
    is_samples: int = 20_000  # read and checked, but without effect: the shrinkage constant is a quadrature


@dataclass
class ExperimentConfig:
    seed: int = 0
    design: DesignConfig | None = None
    prior: PriorConfig = field(default_factory=PriorConfig)
    alphas: list = field(default_factory=lambda: [1.0])
    grid: GridConfig = field(default_factory=GridConfig)
    reps: int = 2000
    reps_outer: int = 2000
    n_mc_inner: int = 2000  # read and checked, but without effect: alpha < 1 losses are exact
    density: DensityConfig = field(default_factory=DensityConfig)


# risk_mc fills a (points x rules x reps) float64 table of losses, allocated whole before the first draw.  On a 2-core
# host with 7.8 GiB, as1_desk's 7 points x 3 rules at alpha = 1 took 100 ns a loss (2.3 s and 249 MB peak RSS for a
# 168 MiB table) and 6.9 us a loss at alpha = 0, so a 1 GiB table takes about 14 s at alpha = 1 and 15 min below
LOSS_TABLE_BYTES_MAX = 1 << 30

# n - k of a replicated design, whose N the config sets freely: the baseline's risk sums (n - k)/2 terms of psi
# (under 0.1 s at 1e6), the alpha < 1 certificates fail from about 3e6 (m = k = 3), and past it the alpha = 1 entropy
# term sigma_hat^2 - log sigma_hat^2 - 1 cancels to rounding, about (n - k) 1e-16 relative
AS1_RESIDUAL_DOF_MAX = 10**6


def _parse_design(doc: dict) -> DesignConfig:
    cfg = DesignConfig()
    cfg.type = doc.get("type", cfg.type)
    if not isinstance(cfg.type, str) or cfg.type not in _DESIGN_TYPE_KEYS:
        raise ValueError(f"unknown design type {cfg.type!r}")
    foreign = sorted(set(doc) - _DESIGN_TYPE_KEYS[cfg.type] - {"type"})
    if foreign:
        raise ValueError(f"design option(s) {', '.join(map(repr, foreign))} do not apply to type {cfg.type!r}")
    if cfg.type == "as1":
        m, k, N = cfg.m, cfg.k, cfg.N = [read_int(doc, key) for key in ("m", "k", "N")]
        _check_as1(m, k, N)
        if k < 3:  # the design is run to show shrinkage domination, which (Stein) needs 3 coefficients or more
            raise ValueError(f"k must be at least 3 in the replicated design, got k={k}")
        if N * m - k > AS1_RESIDUAL_DOF_MAX:
            raise ValueError(f"N must leave n - k = N m - k at most {AS1_RESIDUAL_DOF_MAX} in the replicated design, "
                             f"got N={N}, m={m}, k={k}")
        if "xtilde" in doc:
            cfg.xtilde = _matrix(doc, "xtilde")
            if cfg.xtilde.shape != (m, k):
                raise ValueError(f"xtilde must be m x k = {m} x {k}, got shape {cfg.xtilde.shape}")
        return cfg
    if "X" not in doc or "Xtilde" not in doc:
        raise ValueError("explicit design needs X and Xtilde")
    cfg.X, cfg.Xtilde = _matrix(doc, "X"), _matrix(doc, "Xtilde")
    return cfg


def _load_csv(path: str, key: str) -> np.ndarray:
    """The rows of the comma-separated file at path, as a 2-D float array; a file that is not one names key."""
    with warnings.catch_warnings():
        # loadtxt only warns on a file without rows, and hands back an array of the wrong shape
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2)
        except UserWarning:
            raise ValueError(f"{key} file {path} holds no rows") from None
        except ValueError as exc:
            raise ValueError(f"{key} file {path} is not a table of numbers: {exc}") from None


def _matrix(doc: dict, key: str) -> np.ndarray:
    """doc[key] as a 2-D float array: inline rows of numbers, or a path to a dense row-major CSV.

    A value that does not read as finite numbers names the key.
    """
    if not isinstance(doc[key], str):
        return read_array(doc, key, 2)
    try:
        out = _load_csv(doc[key], key)
    except ValueError as exc:
        raise ValueError(f"{key} must be a matrix of numbers: {exc}") from None
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{key} must be a matrix of finite numbers")
    return out


_DESIGN_TYPE_KEYS = {"as1": {"m", "k", "N", "xtilde"}, "explicit": {"X", "Xtilde"}}
_DENSITY_TYPES = ("best_invariant", "shrinkage_bayes", "plugin")


def _section(doc, cls, name: str) -> dict:
    """A config section whose every key names a field of the dataclass cls."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {name} option(s): {', '.join(map(repr, unknown))}")
    return doc


def load_config(path: str) -> ExperimentConfig:
    """The configuration at path, every value checked; an absent key keeps its dataclass field's default."""
    with open(path) as fh:
        doc = _section(json.load(fh), ExperimentConfig, "configuration")
    cfg = ExperimentConfig()
    cfg.seed = _check_seed(read_int(doc, "seed", cfg.seed))
    if "design" in doc:
        cfg.design = _parse_design(_section(doc["design"], DesignConfig, "design"))
    # a value no prior can take fails here (the prior's own checks), also for subcommands that build none
    pr, prior = _section(doc.get("prior", {}), PriorConfig, "prior"), cfg.prior
    c = pr.get("c", prior.c)
    if c != "identity":
        try:
            prior.c = read_array(pr, "c", 1).tolist() if isinstance(c, list) else read_number(pr, "c")
        except ValueError:
            raise ValueError(f'c must be "identity", a finite number or a list of finite numbers, got {c!r}') from None
        bounds_mod.prior_scale(prior.c)  # the prior needs C >= I
    prior.nu = read_number(pr, "nu", prior.nu)
    prior.gamma_prior = read_number(pr, "gamma_prior", prior.gamma_prior)
    _check_prior_weights(prior.nu, prior.gamma_prior)
    cfg.alphas = read_array(doc, "alphas", 1, cfg.alphas).tolist()
    for alpha in cfg.alphas:
        if alpha != 1.0:  # 1 runs the plug-in rules, any other alpha the density kernels
            _check_alpha(alpha, "alphas other than 1")
    gr, grid = _section(doc.get("grid", {}), GridConfig, "grid"), cfg.grid
    grid.theta_directions = read_array(gr, "theta_directions", 2, grid.theta_directions).tolist()
    grid.theta_norms = read_array(gr, "theta_norms", 1, grid.theta_norms).tolist()
    grid.sigma2 = read_array(gr, "sigma2", 1, grid.sigma2).tolist()
    # a repeated value would repeat a row's key (procedure, alpha, theta_norm, theta_direction, sigma2)
    for key, values in (("alphas", cfg.alphas), ("theta_norms", grid.theta_norms), ("sigma2", grid.sigma2)):
        if not values:  # risk-compare would write a header and no row
            raise ValueError(f"{key} must hold at least one value")
        if len(set(values)) < len(values):
            raise ValueError(f"{key} must not repeat a value, got {values}")
    # a negative norm would label the opposite direction's point
    if any(t < 0 for t in grid.theta_norms):
        raise ValueError("theta_norms must be nonnegative")
    # every grid point keeps to CanonicalParams's bounds; the largest norm at the smallest sigma2 comes nearest the cap
    _check_scale(max(grid.sigma2))
    _check_scale(min(grid.sigma2), max(grid.theta_norms), "theta_norms")
    cfg.reps = read_int(doc, "reps", cfg.reps)
    cfg.reps_outer = read_int(doc, "reps_outer", cfg.reps_outer)
    # reps drives the alpha = 1 rows and reps_outer the alpha < 1 ones; each is checked where used
    for key, count, alpha, used in (("reps", cfg.reps, 1.0, 1.0 in cfg.alphas),
                                    ("reps_outer", cfg.reps_outer, 0.0, min(cfg.alphas) < 1.0)):
        if used and count < min_reps(alpha):
            raise ValueError(f"{key} must be at least {min_reps(alpha)}, got {count}")
    cfg.n_mc_inner = read_int(doc, "n_mc_inner", cfg.n_mc_inner)
    # problem, observation and points are checked for presence where density-eval reads them
    dn, density = _section(doc.get("density", {}), DensityConfig, "density"), cfg.density
    density.is_samples = read_int(dn, "is_samples", density.is_samples)
    density.type = dn.get("type", density.type)
    if density.type not in _DENSITY_TYPES:
        raise ValueError(f"type must be one of {', '.join(_DENSITY_TYPES)}, got {density.type!r}")
    # the plug-in normal is the alpha = 1 density; the other two are built for alpha < 1
    if density.type == "plugin" and "alpha" in dn:
        raise ValueError("alpha must be left out for type 'plugin', the alpha = 1 plug-in normal")
    density.alpha = _check_alpha(read_number(dn, "alpha", density.alpha))
    for key, types, what in (("problem", (str, dict), "a path or a JSON object"),
                             ("observation", (str, dict), "a path or a JSON object"),
                             ("points", str, "a path to a CSV file")):
        if key in dn and not isinstance(dn[key], types):
            raise ValueError(f"{key} must be {what}, got {dn[key]!r}")
    density.problem, density.observation, density.points = dn.get("problem"), dn.get("observation"), dn.get("points")
    return cfg


def build_problem(cfg: ExperimentConfig) -> tuple[CanonicalProblem, np.ndarray | None, np.ndarray]:
    """Materialize the design and reduce it: (problem, X, Xtilde), X None for as1, whose N copies of Xtilde no
    subcommand tiles."""
    design = cfg.design
    if design is None:
        raise ValueError("configuration has no design section")
    if design.type == "as1":
        xt = design.xtilde
        if xt is None:
            rng = replication_rng(cfg.seed, 0, stream=STREAM_DESIGN)
            for _ in range(10):
                xt = rng.standard_normal((design.m, design.k))
                if np.linalg.matrix_rank(xt) == design.k and np.linalg.cond(xt) < 1e6:
                    break
            else:
                raise RankDeficiencyError("no random Xtilde with condition number below 1e6 in 10 draws")
        return as1_problem(xt, design.N), None, xt
    return canonicalize(design.X, design.Xtilde), design.X, design.Xtilde


def build_prior(cfg: ExperimentConfig, problem: CanonicalProblem) -> PriorSpec:
    """The configured prior, at C = g0 C0 (PriorSpec.minimax_default)."""
    pc = cfg.prior
    return PriorSpec.minimax_default(problem, pc.c0, pc.nu, pc.gamma_prior)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_canonicalize(cfg: ExperimentConfig, out_dir: str) -> int:
    problem, X, Xtilde = build_problem(cfg)
    if X is None:  # a stand-in for the N copies of Xtilde with their Gram matrix N Xtilde'Xtilde, in k x k memory
        X = math.sqrt(cfg.design.N) * np.linalg.qr(Xtilde, mode="r")
    report = invariant_report(problem, X, Xtilde)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "problem.json"), problem_to_dict(problem))
    _write_json(os.path.join(out_dir, "canonicalize_report.json"), report)
    for name, entry in report.items():
        if isinstance(entry, dict):
            status = "PASS" if entry["pass"] else "FAIL"
            print(f"{name}: {status} (value={entry['value']:.3e}, tol={entry['tol']:.1e})")
    if problem.conditioning_warning:
        print(f"warning: {problem.conditioning_warning}")
    if not report["all_pass"]:
        print("canonical invariants failed", file=sys.stderr)
        return EXIT_CANONICAL
    return EXIT_OK


def run_bounds(cfg: ExperimentConfig, out_dir: str) -> int:
    problem, _, _ = build_problem(cfg)
    # the scale of build_prior's prior, whose nu these bounds cap: with n - k < 2 they need not be positive
    nb = bounds_mod.nu_limits(problem, PriorSpec.minimax_scale(problem, cfg.prior.c0))
    out = {
        "nu1": nb.nu1,
        "nu2": nb.nu2,
        "nu3": nb.nu3,
        "nu_max": nb.nu_max,
        "positive": nb.positive,
        "g0": bounds_mod.rescale_C_for_positivity(problem, cfg.prior.c0),
        "condition_d": bounds_mod.condition_d(problem),
    }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "bounds.json"), out)
    print(json.dumps(out))
    return EXIT_OK


def run_identity_suite(cfg: ExperimentConfig, out_dir: str) -> int:
    results = run_identities(cfg.seed)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "identities.json"), results)
    for name, entry in results.items():
        if isinstance(entry, dict):
            status = "PASS" if entry["pass"] else "FAIL"
            gap = entry.get("max_rel_gap", entry.get("rel_gap", entry.get("min_margin")))
            print(f"{name}: {status} (gap={gap:.3e}, tol={entry['tolerance']:.1e})")
    return EXIT_OK if results["all_pass"] else EXIT_IDENTITY


def _grid_points(cfg: ExperimentConfig, problem: CanonicalProblem) -> list[tuple[CanonicalParams, float, int, float]]:
    """Cross the configured directions, norms and variances into (params, norm, direction, sigma2).

    direction indexes grid.theta_directions (0 when none are configured, and for theta = 0).  Each direction is
    divided by its largest |entry| first, so its squared norm neither overflows nor underflows."""
    l = problem.l
    dirs = [np.asarray(v) for v in cfg.grid.theta_directions] or [np.eye(l)[0]]
    for v in dirs:
        if v.shape != (l,):
            raise ValueError(f"theta directions must have length l = {l}")
        if not np.abs(v).max() > 0:
            raise ValueError("theta directions must be nonzero")
    dirs = [v / np.abs(v).max() for v in dirs]
    points = []
    for norm in cfg.grid.theta_norms:
        for index, direction in enumerate(dirs if norm != 0.0 else dirs[:1]):
            theta = norm * direction / np.linalg.norm(direction)
            points += [(CanonicalParams(theta=theta, mu=np.zeros(problem.k - l), eta=1.0 / s2), norm, index, s2)
                       for s2 in cfg.grid.sigma2]
    return points


def run_risk_compare(cfg: ExperimentConfig, out_dir: str) -> int:
    problem, _, _ = build_problem(cfg)
    prior = build_prior(cfg, problem)
    mr = minimax_risk(problem)
    points = _grid_points(cfg, problem)
    seed = cfg.seed
    # the domination guarantee is proved under n - k - 2 >= 0; never claim it below
    may_claim_domination = (problem.n - problem.k) >= 2

    # each rule maps a block of observations to a block of densities: plug-in
    # estimates at alpha = 1, predictive kernels below
    plugin_rules = {
        "umvu": functools.partial(umvu_estimators, problem),
        "shrink_plugin": functools.partial(plugin_bayes_estimators, prior),
        "stein_variance": functools.partial(stein_variance, problem),
    }
    if problem.case == "II":
        plugin_rules["stein_variance_star"] = functools.partial(stein_variance_star, problem)

    runs = {}  # alpha -> (the config key of its rep count, the count, its rules)
    for alpha in cfg.alphas:
        kernels = {"best_invariant": functools.partial(best_invariant_kernel, problem, alpha=alpha),
                   "shrinkage_bayes": functools.partial(shrinkage_bayes_kernel, prior, alpha=alpha)}
        runs[alpha] = ("reps", cfg.reps, plugin_rules) if alpha == 1.0 else ("reps_outer", cfg.reps_outer, kernels)
    grid = [params for params, *_ in points]
    for key, reps, rules in runs.values():  # before any draw at any alpha
        size = 8 * len(grid) * len(rules) * reps
        if size > LOSS_TABLE_BYTES_MAX:
            raise ValueError(f"{key} = {reps} needs a loss table of {len(grid)} points x {len(rules)} rules x {reps} "
                             f"rows x 8 bytes = {size:.3g} bytes, above LOSS_TABLE_BYTES_MAX = {LOSS_TABLE_BYTES_MAX}")
    lines = ["procedure,alpha,theta_norm,theta_direction,sigma2,reps,risk_mean,risk_se,"
             "minimax_risk,below_baseline_3se"]
    for alpha, (_, reps, rules) in runs.items():
        scorers = {name: scorer(rule, alpha) for name, rule in rules.items()}
        # one call over the whole grid, so each keyed block is drawn once for every point
        for (_, norm, direction, s2), rows in zip(points, risk_mc(scorers.values(), problem, grid, reps, seed)):
            risks = dict(zip(scorers, map(RiskEstimate.of, rows)))
            # A pointwise 3-SE test, not a domination claim, against the invariant
            # baseline's risk under the same divergence: the exact constant at
            # alpha = 1, the simulated best-invariant risk (noise folded in) below.
            if alpha == 1.0:
                base_mean, base_se = mr, 0.0
            else:
                base_mean, base_se = risks["best_invariant"].mean, risks["best_invariant"].std_error
            for name, est in risks.items():
                margin = 3.0 * math.hypot(est.std_error, base_se)
                below = may_claim_domination and est.mean + margin < base_mean
                lines.append(",".join([
                    name, _fmt(alpha), _fmt(norm), str(direction), _fmt(s2), str(est.reps),
                    _fmt(est.mean), _fmt(est.std_error), _fmt(mr) if alpha == 1.0 else "",
                    "true" if below else "false",
                ]))

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "risk_compare.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {os.path.join(out_dir, 'risk_compare.csv')}")
    return EXIT_OK


def _json_doc(value):
    """An inline JSON object, or the document at a path."""
    if isinstance(value, str):
        with open(value) as fh:
            return json.load(fh)
    return value


# Exact '%.17g' in numpy for 1e-6 < |x| < 1e17.  A cell's decimal exponent X in [-6, 16] is the count of the
# doubles nearest 10^q, q in [-5, 16], at or below |x|, minus 6: each is 10^q itself or lies above it, so no double
# lies in [10^q, its nearest double) and the count is exact (the double 1e-6 lies below 10^-6, and 1e17 is exact).
# |x| 10^(16 - X) is formed exactly as hi + lo by Dekker's product (10^p is an exact double for p <= 22); hi >= 2^53
# is an even integer, so hi + rint(lo) is the correctly rounded 17-digit integer, ties to even (Gay 1990).
_POWERS = np.array([float(f"1e{q}") for q in range(-5, 17)])
_P10 = np.array([float(10**p) for p in range(23)])
_P10_HI = _P10 * 134217729.0 - (_P10 * 134217729.0 - _P10)  # Veltkamp split: 26-bit high halves
_P10_LO = _P10 - _P10_HI
# Every number is laid out in 46 bytes, and a mask per (X, significant digits, sign) keeps its
# %g text: "-", "0.000", the 17 digits each followed by a ".", "e-056" and the separator.
_CELL = b"-0.000" + b"0." * 17 + b"e-056"


def _scaled(a: np.ndarray, exp10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16 - exp10) as the exact unevaluated sum hi + lo (Dekker's two-product)."""
    p = 16 - exp10
    b, b_hi, b_lo = _P10[p], _P10_HI[p], _P10_LO[p]
    hi = a * b
    a_hi = a * 134217729.0 - (a * 134217729.0 - a)
    a_lo = a - a_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For 0..9999 its four ASCII digits as one uint32 and its trailing zeros (4 for 0); and per
    ((X + 6) 17 + significant digits - 1) 2 + sign, the bytes of a cell that '%.17g' writes."""
    i = np.arange(10_000)
    digits4 = (48 + i[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8).view(np.uint32).ravel()
    mask = np.zeros((23, 17, 2, 46), bool)
    for exp10 in range(-6, 17):
        for n in range(1, 18):
            cell = mask[exp10 + 6, n - 1]
            cell[1, 0] = cell[:, 45] = True
            cell[:, 6:6 + 2 * max(n, exp10 + 1):2] = True  # zeros before the point are digits too
            if exp10 < -4:  # d.ddde-05, d.ddde-06
                cell[:, 7] = n > 1
                cell[:, [40, 41, 42, 38 - exp10]] = True
            elif exp10 < 0:  # 0.000ddd
                cell[:, 1:2 - exp10] = True
            else:
                cell[:, 7 + 2 * exp10] = n > exp10 + 1
    return digits4, sum(i % 10**k == 0 for k in range(1, 5)), mask.reshape(-1, 46)


def _csv_cells(cols: int) -> np.ndarray:
    """Scratch cells for _csv_rows: BLOCK_SIZE x cols copies of the layout, each with its separator."""
    layout = b"".join(_CELL + sep for sep in [b","] * (cols - 1) + [b"\n"])
    return np.tile(np.frombuffer(layout, np.uint8).reshape(cols, 46), (BLOCK_SIZE, 1, 1))


def _csv_rows(block: np.ndarray, cells: np.ndarray) -> bytes:
    """The rows of block as CSV lines, each number as _fmt writes it; cells is a _csv_cells buffer.

    A value outside the range above (a zero, a subnormal, an infinity, a nan,
    |x| <= 1e-6 or |x| >= 1e17) is written by _fmt into its own cell, whose
    layout is put back afterwards: the buffer serves every block of a file.
    """
    x = block.ravel()
    fast = (np.abs(x) > 1e-6) & (np.abs(x) < 1e17)
    a = np.where(fast, np.abs(x), 1.0)
    exp10 = np.searchsorted(_POWERS, a, side="right") - 6
    hi, lo = _scaled(a, exp10)
    # d < 10^17: 17 digits cannot round up to 10^(X + 1), since |x| lies below the double nearest it
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    chunks = np.empty((x.size, 5), np.uint32)  # d's base-10^4 digits, most significant first
    for j in range(4, 0, -1):
        d, chunks[:, j] = np.divmod(d, 10_000)
    chunks[:, 0] = d
    digits4, trailing0, masks = _tables()
    zeros = trailing0[chunks[:, 4]]
    for j in range(3, 0, -1):
        zeros += (zeros == 16 - 4 * j) * trailing0[chunks[:, j]]
    cells = cells[:len(block)].reshape(x.size, 46)
    cells[:, 6:40:2] = digits4[chunks].view(np.uint8).reshape(x.size, 20)[:, 3:]
    keep = masks[((exp10 + 6) * 17 + 16 - zeros) * 2 + np.signbit(x)]
    slow = np.flatnonzero(~fast)
    texts = np.array([_fmt(v) for v in x[slow].tolist()], "S45").view(np.uint8).reshape(-1, 45)  # <= 24 bytes each
    cells[slow, :45] = texts
    keep[slow, :45] = texts != 0
    text = np.compress(keep.ravel(), cells.ravel()).tobytes()
    cells[slow, :45] = np.frombuffer(_CELL, np.uint8)
    return text


def run_density_eval(cfg: ExperimentConfig, out_dir: str) -> int:
    section = cfg.density
    for key in ("problem", "observation", "points"):
        if getattr(section, key) is None:
            raise ValueError(f"{key} must be given in the density section")
    problem = problem_from_dict(_json_doc(section.problem))
    # finite v, v_star and s, no other key; the density's rule checks their lengths and s > 0
    doc = _section(_json_doc(section.observation), CanonicalObservation, "observation")
    obs = CanonicalObservation(read_array(doc, "v", 1), read_array(doc, "v_star", 1, []), read_number(doc, "s"))
    points = _load_csv(section.points, "points")
    if points.shape[1] != problem.m:
        raise ValueError(f"points file {section.points} has {points.shape[1]} columns; "
                         f"the problem needs m = {problem.m}")
    if np.isnan(points).any():   # an infinite coordinate has log density -inf, nan none
        raise ValueError(f"points must be numbers or +-inf, not nan, in {section.points}")

    if section.type == "best_invariant":
        dens = best_invariant_kernel(problem, obs, section.alpha)
    elif section.type == "shrinkage_bayes":
        dens = shrinkage_bayes_kernel(build_prior(cfg, problem), obs, section.alpha)
    else:  # "plugin": load_config admits no other type
        dens = plugin_bayes_estimators(build_prior(cfg, problem), obs)

    log_u = dens.log_unnormalized(points)
    table = np.column_stack([points, log_u, np.full(len(log_u), dens.log_const), log_u + dens.log_const])
    header = [f"ytilde_{i + 1}" for i in range(problem.m)]
    header += ["log_density_unnormalized", "log_norm_const", "log_density"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "density_eval.csv")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        cells = _csv_cells(table.shape[1])
        for start in range(0, len(table), BLOCK_SIZE):
            fh.write(_csv_rows(table[start:start + BLOCK_SIZE], cells))
    print(f"wrote {points.shape[0]} rows to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route that to exit code 1.
    def error(self, message):
        raise _UsageError(message)


_COMMANDS = {"canonicalize": run_canonicalize, "bounds": run_bounds, "identities": run_identity_suite,
             "risk-compare": run_risk_compare, "density-eval": run_density_eval}


def main(argv=None) -> int:
    """Run one subcommand; the one place where an exception becomes an exit code."""
    parser = _Parser(prog="shrinkpred", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in _COMMANDS:
        sub = subs.add_parser(name)
        sub.add_argument("--config", required=True, help="path to the JSON configuration")
        sub.add_argument("--out", default=".", help="output directory (default: the working directory)")
        sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    # every subcommand makes --out last, so a path that cannot become a directory is refused before any work
    if not args.out:
        print("usage error: --out must name a directory, got an empty path", file=sys.stderr)
        return EXIT_USAGE
    existing = args.out
    while not os.path.lexists(existing):  # a dangling link exists, and makedirs fails on it
        existing = os.path.dirname(existing) or "."
    if not os.path.isdir(existing):
        print(f"usage error: --out {args.out} cannot be a directory: {existing} exists and is not one", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = _check_seed(args.seed)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with warnings.catch_warnings():
            # a Caveat, such as n - k < 2 for the domination bounds, is one stderr line; other warnings are as they were
            warnings.simplefilter("always", bounds_mod.Caveat)
            show = warnings.showwarning
            warnings.showwarning = lambda message, category, *rest: (print(f"warning: {message}", file=sys.stderr)
                if issubclass(category, bounds_mod.Caveat) else show(message, category, *rest))
            return _COMMANDS[args.command](cfg, args.out)
    except UnreliableNormalizationError as exc:
        print(f"normalization certificate failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (RankDeficiencyError, np.linalg.LinAlgError) as exc:
        print(f"canonicalization failed: {exc}", file=sys.stderr)
        return EXIT_CANONICAL
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
