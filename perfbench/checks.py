"""Output checks for the benchmark workloads.

Risk rows are checked against closed-form references rather than golden
files, so that a change to the random-stream layout stays checkable.
CSV files are read by header name and extra columns are ignored.  Every
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict

import numpy as np
from scipy import special, stats

SE_MULT = 4.0
ALPHA1_PROCEDURES = ("umvu", "shrink_plugin", "stein_variance")
NESTED_PROCEDURES = ("best_invariant", "shrinkage_bayes")


def design_dims(design: dict) -> tuple[int, int, int, float]:
    """(n, k, m, tr D) of a configured design, computed without shrinkpred.

    tr D is the trace of Xtilde (X'X)^{-1} Xtilde', the variance of the
    future mean in units of sigma^2; the replicated design gives k/N.
    """
    if design.get("type", "explicit") == "as1":
        m, k, N = int(design["m"]), int(design["k"]), int(design["N"])
        return m * N, k, m, k / N
    X = np.asarray(design["X"], dtype=float)
    Xt = np.atleast_2d(np.asarray(design["Xtilde"], dtype=float))
    tr_d = float(np.trace(Xt @ np.linalg.solve(X.T @ X, Xt.T)))
    return X.shape[0], X.shape[1], Xt.shape[0], tr_d


def minimax_risk(tr_d: float, m: int, n: int, k: int) -> float:
    """Constant alpha = 1 risk of the unbiased rule: (tr D + m (log g - psi(g)))/2."""
    g = (n - k) / 2.0
    return 0.5 * (tr_d + m * (math.log(g) - float(special.digamma(g))))


def grid_point_count(cfg: dict) -> int:
    grid = cfg.get("grid", {})
    n_dirs = max(1, len(grid.get("theta_directions", [])))
    norms = grid.get("theta_norms", [0.0])
    per_sigma = sum(1 if float(t) == 0.0 else n_dirs for t in norms)
    return per_sigma * len(grid.get("sigma2", [1.0]))


def check_risk_csv(path, cfg: dict) -> list[str]:
    """Row counts and closed-form risk references for risk_compare.csv."""
    n, k, m, tr_d = design_dims(cfg["design"])
    mr = minimax_risk(tr_d, m, n, k)
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    groups: dict[tuple[str, float], list[dict]] = defaultdict(list)
    for row in rows:
        groups[(row["procedure"], float(row["alpha"]))].append(row)

    problems = []
    n_points = grid_point_count(cfg)
    for alpha in (float(a) for a in cfg.get("alphas", [1.0])):
        if alpha == 1.0:
            procs = ALPHA1_PROCEDURES + (("stein_variance_star",) if m < k else ())
        else:
            procs = NESTED_PROCEDURES
        for proc in procs:
            got = len(groups.get((proc, alpha), []))
            if got != n_points:
                problems.append(f"{proc} alpha={alpha}: {got} rows, expected {n_points}")

    for (proc, alpha), grp in groups.items():
        mean = np.array([float(r["risk_mean"]) for r in grp])
        se = np.array([float(r["risk_se"]) for r in grp])
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(se)) and np.all(se >= 0)):
            problems.append(f"{proc} alpha={alpha}: non-finite risk or negative se")
            continue
        if alpha == 1.0:
            col = np.array([float(r["minimax_risk"]) for r in grp])
            if not np.all(np.abs(col - mr) <= 1e-9 * mr):
                problems.append(f"{proc}: minimax_risk column {col[0]!r} != closed form {mr!r}")
        if proc == "umvu":
            worst = float(np.max(np.abs(mean - mr) / se))
            if not worst <= SE_MULT:
                problems.append(f"umvu: {worst:.2f} se from minimax risk {mr:.6g}")
        elif proc == "shrink_plugin" and n - k >= 2:
            worst = float(np.max((mean - mr) / se))
            if not worst <= SE_MULT:
                problems.append(f"shrink_plugin: {worst:.2f} se above minimax risk {mr:.6g}")
        elif proc == "best_invariant":
            gap = np.abs(mean - mean[0]) / np.maximum(np.hypot(se, se[0]), 1e-300)
            if not float(gap.max()) <= SE_MULT:
                problems.append(f"best_invariant alpha={alpha}: not constant across theta "
                                f"({float(gap.max()):.2f} se)")
    return problems


def read_density_csv(path, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(points, log_unnormalized, log_norm_const, log_density) from density_eval.csv."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    col = {name: i for i, name in enumerate(header)}
    pts = data[:, [col[f"ytilde_{i + 1}"] for i in range(m)]]
    return (pts, data[:, col["log_density_unnormalized"]],
            data[:, col["log_norm_const"]], data[:, col["log_density"]])


def best_invariant_t(problem: dict, obs: dict, alpha: float):
    """The best invariant density as scipy's multivariate t.

    Location Q v, dof 2(n-k)/(1-alpha), shape (s/dof)(c2 I + Q D Q') with
    c2 = 2/(1-alpha).
    """
    Q = np.asarray(problem["Q"], dtype=float)
    d = np.asarray(problem["d"], dtype=float)
    n, k, m = int(problem["n"]), int(problem["k"]), int(problem["m"])
    dof = 2.0 * (n - k) / (1.0 - alpha)
    sigma_u = 2.0 / (1.0 - alpha) * np.eye(m) + (Q * d) @ Q.T
    s = float(obs["s"])
    return stats.multivariate_t(loc=Q @ np.asarray(obs["v"], dtype=float),
                                shape=s / dof * sigma_u, df=dof)


def shrinkage_log_unnorm(problem: dict, prior: dict, obs: dict, alpha: float):
    """The unnormalized log shrinkage density, from its two-kernel closed form.

    With c2 = 2/(1-alpha), h = (1-alpha)/2 and q = n-k:
      sigma_u = c2 I + Q diag(d) Q',   theta_b = (c-1)/(c+h d) v,
      sigma_b = c2 I + Q diag((c-1) d/(c+h d)) Q',
      r = sum v_i^2 (h d_i + 1)/(d_i (c_i + h d_i)),
      log p = -(m/2 + q/(1-alpha)) log((y-Qv)' sigma_u^{-1} (y-Qv) + s)
              - (k+2a+2)/(1-alpha) log((y-Q theta_b)' sigma_b^{-1} (y-Q theta_b)
                                       + r + |v*|^2/gamma + s).
    ``prior`` holds the hyperparameters c, a and gamma_prior.
    """
    Q = np.asarray(problem["Q"], dtype=float)
    d = np.asarray(problem["d"], dtype=float)
    n, k, m = int(problem["n"]), int(problem["k"]), int(problem["m"])
    c, a = np.asarray(prior["c"], dtype=float), float(prior["a"])
    v = np.asarray(obs["v"], dtype=float)
    v_star = np.asarray(obs["v_star"], dtype=float)
    s = float(obs["s"])
    c2, h = 2.0 / (1.0 - alpha), (1.0 - alpha) / 2.0
    sigma_u = c2 * np.eye(m) + (Q * d) @ Q.T
    sigma_b = c2 * np.eye(m) + (Q * ((c - 1.0) * d / (c + h * d))) @ Q.T
    mean_u, mean_b = Q @ v, Q @ ((c - 1.0) / (c + h * d) * v)
    r = float(np.sum(v * v * (h * d + 1.0) / (d * (c + h * d))))
    offset = r + float(v_star @ v_star) / float(prior["gamma_prior"]) + s
    expo_u = -m / 2.0 - (n - k) / (1.0 - alpha)
    expo_b = -(k + 2.0 * a + 2.0) / (1.0 - alpha)

    def quad(mat, resid):
        return np.einsum("ij,ji->i", resid, np.linalg.solve(mat, resid.T))

    def kernel(pts: np.ndarray) -> np.ndarray:
        return (expo_u * np.log(quad(sigma_u, pts - mean_u) + s)
                + expo_b * np.log(quad(sigma_b, pts - mean_b) + offset))

    return kernel


def check_columns(path, points: np.ndarray, m: int) -> tuple[list[str], tuple]:
    """Shared density_eval.csv checks: point echo and log_density = unnormalized + constant."""
    try:
        cols = read_density_csv(path, m)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        return [f"cannot read {path}: {exc}"], ()
    pts, lu, lnc, ld = cols
    problems = []
    if pts.shape != points.shape or not np.array_equal(pts, points):
        problems.append(f"{path}: point columns do not echo the input points")
    elif not np.all(np.isfinite(ld)):
        problems.append(f"{path}: non-finite log density")
    elif np.ptp(lnc) != 0.0 or not np.all(np.abs(lu + lnc - ld) <= 1e-12 * (1.0 + np.abs(ld))):
        problems.append(f"{path}: log_density != log_density_unnormalized + log_norm_const")
    return problems, cols


def check_best_invariant(path, points, problem: dict, obs: dict, alpha: float) -> list[str]:
    problems, cols = check_columns(path, points, int(problem["m"]))
    if problems:
        return problems
    ref = best_invariant_t(problem, obs, alpha).logpdf(points)
    err = float(np.max(np.abs(cols[3] - ref) / (1.0 + np.abs(ref))))
    if not err <= 1e-9:
        return [f"{path}: best_invariant log density differs from multivariate t by {err:.3e}"]
    return []


def check_shrinkage(path, points, problem: dict, prior: dict, obs: dict, alpha: float,
                    n_program: int, n_check: int, rng: np.random.Generator) -> list[str]:
    """Kernel agreement on the points, then an independent IS estimate of the normalizer.

    Both use the closed-form kernel above, not the program's.  The benchmark
    draws its own n_check points from the best invariant t; the program's
    constant must agree within SE_MULT combined relative standard errors
    (the program's share scaled from its own sample size).
    """
    problems, cols = check_columns(path, points, int(problem["m"]))
    if problems:
        return problems
    _, lu, lnc, _ = cols
    kernel = shrinkage_log_unnorm(problem, prior, obs, alpha)
    head = slice(0, min(2000, len(points)))
    err = float(np.max(np.abs(kernel(points[head]) - lu[head]) / (1.0 + np.abs(lu[head]))))
    if not err <= 1e-9:
        return [f"{path}: log_density_unnormalized differs from the kernel by {err:.3e}"]
    proposal = best_invariant_t(problem, obs, alpha)
    ys = proposal.rvs(size=n_check, random_state=rng)
    logw = kernel(ys) - proposal.logpdf(ys)
    shift = float(np.max(logw))
    w = np.exp(logw - shift)
    rel_se = float(np.std(w, ddof=1) / math.sqrt(n_check) / np.mean(w))
    log_z = shift + math.log(float(np.mean(w)))
    combined = rel_se * math.sqrt(1.0 + n_check / n_program)
    ratio_err = abs(math.expm1(-float(lnc[0]) - log_z))
    if not ratio_err <= SE_MULT * combined:
        return [f"{path}: normalizer off by {ratio_err:.3e} relative, "
                f"{ratio_err / combined:.2f} combined se"]
    return []
