"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Everything is seeded; reruns are deterministic.
"""

import json
import math

import numpy as np
import pytest
import scipy.special

from shrinkpred.bounds import nu_limits, rescale_C_for_positivity
from shrinkpred.canonical import (
    CanonicalObservation,
    CanonicalParams,
    as1_problem,
    canonicalize,
    invariant_report,
)
from shrinkpred.cli import main
from shrinkpred.identities import run_identities
from shrinkpred.predictive import (
    PluginEstimate,
    PriorSpec,
    alpha_limit_check,
    plugin_bayes_estimators,
    stein_variance,
    stein_variance_star,
    umvu_estimators,
)
from shrinkpred.risk import RiskEstimate, d1_loss_plugin, minimax_risk, risk_mc, scorer

from conftest import make_case2_design, simulate_rows
from oracles import alpha_divergence_mc


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def as1_minimax_value() -> float:
    # Independent oracle for the constant risk at D = I/4, m = 3, n - k = 9.
    return 0.5 * (0.75 + 3.0 * (math.log(4.5) - float(scipy.special.digamma(4.5))))


def test_criterion_1_minimax_risk_constancy(as1_problem_n12):
    problem = as1_problem_n12
    mr_oracle = as1_minimax_value()
    assert minimax_risk(problem) == pytest.approx(mr_oracle, abs=1e-10)
    e1 = np.array([1.0, 0.0, 0.0])
    udir = np.ones(3) / math.sqrt(3.0)
    points = [
        (np.zeros(3), 1.0),
        (5.0 * e1, 1.0),
        (5.0 * udir, 1.0),
        (np.zeros(3), 0.5),
        (np.zeros(3), 4.0),
    ]
    zs = []
    for j, (theta, s2) in enumerate(points):
        # one seed per point: the unbiased-baseline loss is exactly invariant
        # under common random numbers, so shared seeds would collapse the
        # five checks into one
        params = CanonicalParams(theta=theta, mu=np.zeros(0), eta=1.0 / s2)
        rule = lambda o: umvu_estimators(problem, o)
        est = RiskEstimate.of(risk_mc([scorer(rule, 1.0)], problem, [params], 20_000, seed=101 + j)[0, 0])
        zs.append(abs(est.mean - mr_oracle) / est.std_error)
    report(1, "minimax-risk-constancy", max(zs) < 3.0,
           f"5 points, max |z| = {max(zs):.2f}, MR = {mr_oracle:.6f}")


def test_criterion_2_shrinkage_plugin_domination(as1_problem_n12):
    problem = as1_problem_n12
    prior = PriorSpec.minimax_default(problem)
    nb = nu_limits(problem, prior.c)
    assert prior.nu == pytest.approx(nb.nu_max)
    mr = as1_minimax_value()
    proc = lambda obs: plugin_bayes_estimators(prior, obs)
    results = []
    for norm, reps in ((0.0, 50_000), (2.0, 30_000), (5.0, 30_000), (10.0, 30_000)):
        theta = norm * np.array([1.0, 0.0, 0.0])
        params = CanonicalParams(theta=theta, mu=np.zeros(0), eta=1.0)
        results.append(RiskEstimate.of(risk_mc([scorer(proc, 1.0)], problem, [params], reps, seed=202)[0, 0]))
    strict_at_zero = results[0].mean + 3.0 * results[0].std_error < mr
    within_elsewhere = all(r.mean <= mr + 3.0 * r.std_error for r in results[1:])
    monotone = all(
        a.mean <= b.mean + 3.0 * math.hypot(a.std_error, b.std_error)
        for a, b in zip(results, results[1:])
    )
    margin0 = (mr - results[0].mean) / results[0].std_error
    report(2, "shrinkage-plugin-domination",
           strict_at_zero and within_elsewhere and monotone,
           f"theta=0 margin {margin0:.1f} SE, risks "
           + "/".join(f"{r.mean:.4f}" for r in results) + f", MR {mr:.4f}")


def test_criterion_3_small_l_domination(case2_problem_n12):
    problem = case2_problem_n12
    assert problem.l == 1 and problem.k - problem.l == 2
    c0 = np.ones(1)
    g0 = rescale_C_for_positivity(problem, c0)
    c = g0 * c0
    nb = nu_limits(problem, c)
    assert nb.positive
    prior = PriorSpec(problem, c=c, nu=nb.nu_max)
    mr = minimax_risk(problem)
    params = CanonicalParams(theta=np.zeros(1), mu=np.zeros(2), eta=1.0)
    rule = lambda o: plugin_bayes_estimators(prior, o)
    est = RiskEstimate.of(risk_mc([scorer(rule, 1.0)], problem, [params], 60_000, seed=303)[0, 0])
    margin = (mr - est.mean) / est.std_error
    report(3, "small-l-domination", margin > 3.0,
           f"l=1, nu={nb.nu_max:.4f}, g0={g0:.3f}, margin {margin:.1f} SE")


def test_criterion_4_stein_dominance(as1_problem_n12, case2_problem_n12):
    reps = 50_000

    def l2(s2_hat):
        return s2_hat - np.log(s2_hat) - 1.0  # true sigma^2 = 1

    def paired_margin(problem, use_star):
        n, k = problem.n, problem.k
        obs = simulate_rows(problem, seed=404, reps=reps)  # at theta = 0, mu = 0, sigma = 1
        umvu = obs.s / (n - k)
        stein = (stein_variance_star if use_star else stein_variance)(problem, obs).sigma2_hat
        diffs = l2(stein) - l2(umvu)
        se = diffs.std(ddof=1) / math.sqrt(reps)
        return -diffs.mean() / se

    m_plain = paired_margin(as1_problem_n12, use_star=False)
    m_star = paired_margin(case2_problem_n12, use_star=True)
    report(4, "stein-variance-dominance", m_plain > 3.0 and m_star > 3.0,
           f"plain margin {m_plain:.1f} SE, pooled-auxiliary margin {m_star:.1f} SE over {reps} reps")


def test_criterion_5_identity_suite():
    results = run_identities(505)
    chisq = results["chi_square_identity"]
    detail = (
        f"lemma {results['lemma_quadratic_form']['max_rel_gap']:.2e}/200, "
        f"beta {results['beta_integral']['max_rel_gap']:.2e}/50, "
        f"chisq rel gap {chisq['rel_gap']:.2e} (tol {chisq['tolerance']:.0e}), "
        f"log-ineq min margin {results['log_inequality']['min_margin']:.2e}"
    )
    report(5, "identity-suite", results["all_pass"], detail)


def test_criterion_6_d1_equivalence(as1_problem_n12):
    problem = as1_problem_n12
    rng = np.random.default_rng(2001)
    zs = []
    for i in range(20):
        theta = rng.standard_normal(3) * 2.0
        sigma2 = rng.uniform(0.5, 2.0)
        est = PluginEstimate(
            problem=problem,
            theta_hat=theta + 0.4 * rng.standard_normal(3),
            sigma2_hat=sigma2 * rng.uniform(0.6, 1.4),
        )
        mc = alpha_divergence_mc(est, theta, 1.0 / sigma2, 1.0, 20_000, seed=1000 + i)
        # the closed form takes the truth at unit scale: everything divided by sigma (variances by sigma2)
        sigma = math.sqrt(sigma2)
        want = d1_loss_plugin(est.theta_hat / sigma, est.sigma2_hat / sigma2, theta / sigma, problem.m)
        zs.append(abs(mc.mean - want) / mc.std_error)
    report(6, "d1-equivalence", max(zs) < 3.0, f"20 plug-in estimates, max |z| = {max(zs):.2f}")


def test_criterion_7_alpha_convergence(as1_problem_n12):
    problem = as1_problem_n12
    prior = PriorSpec.minimax_default(problem)
    obs = CanonicalObservation(v=np.array([0.8, -0.4, 1.2]), v_star=np.zeros(0), s=9.5)
    est = plugin_bayes_estimators(prior, obs)
    center = problem.Q @ est.theta_hat
    pts = np.vstack([
        center,
        center + 0.5,
        center - 0.8,
        center + np.array([1.0, 0.0, 0.0]),
        center + np.array([0.0, -1.5, 0.5]),
    ])
    gaps = alpha_limit_check(prior, obs, pts, [0.9, 0.99, 0.999])
    decreasing = bool(np.all(np.diff(gaps, axis=0) < 0))
    report(7, "alpha-to-one-convergence", decreasing,
           "max gaps per alpha: " + "/".join(f"{g:.1e}" for g in gaps.max(axis=1)))


def test_criterion_8_canonicalization(as1_xtilde):
    rng = np.random.default_rng(808)
    failures = 0
    for _ in range(50):  # wide-future case
        k = int(rng.integers(1, 5))
        m = k + int(rng.integers(0, 4))
        n = k + int(rng.integers(3, 12))
        X, Xt = rng.standard_normal((n, k)), rng.standard_normal((m, k))
        if not invariant_report(canonicalize(X, Xt), X, Xt)["all_pass"]:
            failures += 1
    for _ in range(50):  # narrow-future case
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, k))
        n = k + int(rng.integers(3, 12))
        X, Xt = rng.standard_normal((n, k)), rng.standard_normal((m, k))
        if not invariant_report(canonicalize(X, Xt), X, Xt)["all_pass"]:
            failures += 1
    exact = bool(np.all(as1_problem(as1_xtilde, 4).d == 0.25))
    report(8, "canonicalization-invariants", failures == 0 and exact,
           f"{failures} failures in 100 random designs; replicated-design D exact: {exact}")


def test_criterion_9_determinism(tmp_path):
    doc = {
        "seed": 909,
        "design": {"type": "as1", "m": 3, "k": 3, "N": 4},
        "alphas": [1.0, 0.0],
        "grid": {"theta_norms": [0.0, 2.0], "sigma2": [1.0]},
        "reps": 400,
        "reps_outer": 60,
        "n_mc_inner": 200,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["risk-compare", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outputs[tag] = (out / "risk_compare.csv").read_bytes()
    report(9, "risk-compare-determinism", outputs["a"] == outputs["b"],
           f"{len(outputs['a'].splitlines()) - 1} rows, identical across reruns")
