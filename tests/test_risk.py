"""Divergence generator, closed-form losses, Monte Carlo risk machinery."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from shrinkpred.canonical import (
    BLOCK_SIZE,
    CanonicalObservation,
    CanonicalParams,
    CanonicalProblem,
    simulate_observation,
)
from shrinkpred.predictive import (
    NormalizationCertificate,
    PluginEstimate,
    PriorSpec,
    UnreliableNormalizationError,
    best_invariant_density,
    plugin_bayes_estimators,
    plugin_density,
    shrinkage_bayes_density,
    umvu_estimators,
)
import shrinkpred.predictive as predictive_module
import shrinkpred.risk as risk_module
from shrinkpred.risk import (
    ChiSquareCheck,
    RiskEstimate,
    alpha_divergence_mc,
    chi_square_identity_check,
    d1_loss_plugin,
    f_alpha,
    log_inequality_margin,
    minimax_risk,
    risk_d1_mc,
    risk_mc,
)


def synthetic_problem(n, k, m, d):
    return CanonicalProblem(n=n, k=k, m=m, d=np.asarray(d, float), Q=np.eye(m, min(k, m)),
                            coef_transform=np.eye(k))


@pytest.fixture(scope="module")
def prob_m3():
    return synthetic_problem(12, 3, 3, [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# Divergence generator
# ---------------------------------------------------------------------------


@given(st.floats(-1.0, 1.0))
def test_f_alpha_vanishes_at_one(alpha):
    assert f_alpha(math.log(1.0), alpha) == pytest.approx(0.0, abs=1e-12)


def test_f_alpha_values():
    assert f_alpha(math.log(4.0), 0.0) == pytest.approx(-4.0, rel=1e-14)
    assert f_alpha(math.log(2.0), 1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    assert f_alpha(math.log(2.0), -1.0) == pytest.approx(-math.log(2.0), rel=1e-14)
    with pytest.raises(ValueError):
        f_alpha(math.log(1.0), 2.0)


def test_f_alpha_convex():
    h = 1e-4
    for alpha in (-1.0, -0.5, 0.0, 0.5, 0.999, 1.0):
        for z in np.linspace(0.05, 5.0, 100):
            second = (f_alpha(math.log(z + h), alpha) - 2 * f_alpha(math.log(z), alpha)
                      + f_alpha(math.log(z - h), alpha)) / h**2
            assert second > -1e-8


def test_f_alpha_limit_toward_kl():
    # pointwise continuity at alpha = -1
    for z in np.linspace(0.5, 2.0, 9):
        assert f_alpha(math.log(z), -0.999) == pytest.approx(-math.log(z), abs=1e-2)


def test_f_alpha_limit_toward_reversed_kl_affine():
    # f_alpha differs from its alpha = 1 limit by a multiple of (z - 1),
    # which integrates to zero against any density ratio; after removing
    # that affine part the generators agree near alpha = 1.
    alpha = 0.999
    for z in np.linspace(0.5, 2.0, 9):
        adjusted = f_alpha(math.log(z), alpha) + 2.0 / (1.0 - alpha) * (z - 1.0)
        limit = z * math.log(z) - (z - 1.0)
        assert adjusted == pytest.approx(limit, abs=1e-2)


# ---------------------------------------------------------------------------
# Closed-form losses and the constant risk
# ---------------------------------------------------------------------------


def test_d1_loss_values():
    assert d1_loss_plugin(np.zeros(3), 1.0, np.zeros(3), 1.0, 3) == 0.0
    e1 = np.array([1.0, 0.0, 0.0])
    assert d1_loss_plugin(e1, 1.0, np.zeros(3), 1.0, 3) == pytest.approx(0.5, rel=1e-14)
    got = d1_loss_plugin(np.zeros(2), 2.0, np.zeros(2), 1.0, 2)
    assert got == pytest.approx(1.0 - math.log(2.0), rel=1e-12)  # (m/2) L2 at ratio 2
    with pytest.raises(ValueError):
        d1_loss_plugin(np.zeros(2), -1.0, np.zeros(2), 1.0, 2)


def test_d1_loss_block_equals_row_by_row(prob_m3):
    params = CanonicalParams(theta=np.array([0.5, -1.0, 2.0]), mu=np.zeros(0), eta=2.0)
    block = simulate_observation(prob_m3, params, seed=6)[:300]
    est = umvu_estimators(block, prob_m3.n, prob_m3.k)
    got = d1_loss_plugin(est.theta_hat, est.sigma2_hat, params.theta, params.sigma2, 3)
    assert got.shape == (300,)
    rows = [d1_loss_plugin(est.theta_hat[i], est.sigma2_hat[i], params.theta, params.sigma2, 3)
            for i in range(300)]
    assert np.array_equal(got, rows)


def test_minimax_risk_frozen_example():
    # D = I_3, m = 3, n - k = 9, evaluated with the scipy digamma oracle
    want = 0.5 * (3.0 + 3.0 * (math.log(4.5) - float(scipy.special.digamma(4.5))))
    assert want == pytest.approx(1.6728097056251178, abs=1e-12)
    assert minimax_risk(np.ones(3), 3, 12, 3) == pytest.approx(want, abs=1e-10)


def test_minimax_risk_zero_trace_limit():
    got = minimax_risk(np.full(3, 1e-15), 3, 12, 3)
    assert got == pytest.approx(1.5 * (math.log(4.5) - float(scipy.special.digamma(4.5))), abs=1e-12)
    assert got > 0


def test_minimax_risk_two_dof_euler():
    # n - k = 2: log(1) - psi(1) is the Euler-Mascheroni constant
    got = minimax_risk(np.zeros(1) + 1e-300, 1, 5, 3)
    assert got == pytest.approx(0.5772156649015329 / 2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo divergence
# ---------------------------------------------------------------------------


def test_divergence_zero_when_equal(prob_m3):
    theta = np.array([0.4, -1.0, 2.0])
    truth_est = PluginEstimate(theta_hat=theta, sigma2_hat=1.0, w=math.inf)
    phat = plugin_density(truth_est, prob_m3)
    for alpha in (-1.0, -0.3, 0.5, 1.0):
        est = alpha_divergence_mc(phat, theta, 1.0, prob_m3, alpha, 5000, seed=1)
        assert abs(est.mean) <= max(3 * est.std_error, 1e-12)


def test_divergence_gaussian_kl_oracle(prob_m3):
    # alpha = -1 with equal variances: KL = |delta|^2 / (2 sigma^2)
    theta = np.zeros(3)
    delta = np.array([0.6, -0.2, 0.1])
    sigma2 = 1.3
    phat = plugin_density(PluginEstimate(theta + delta, sigma2, w=math.inf), prob_m3)
    est = alpha_divergence_mc(phat, theta, 1.0 / sigma2, prob_m3, -1.0, 40_000, seed=2)
    want = float(delta @ delta) / (2 * sigma2)
    assert abs(est.mean - want) < 3 * est.std_error


def test_divergence_alpha_one_matches_closed_form(prob_m3):
    theta = np.array([1.0, 0.0, -0.5])
    sigma2 = 0.7
    est_plug = PluginEstimate(np.array([0.7, 0.2, -0.4]), 0.9, w=1.0)
    phat = plugin_density(est_plug, prob_m3)
    mc = alpha_divergence_mc(phat, theta, 1.0 / sigma2, prob_m3, 1.0, 40_000, seed=3)
    want = d1_loss_plugin(est_plug.theta_hat, est_plug.sigma2_hat, theta, sigma2, 3)
    assert abs(mc.mean - want) < 3 * mc.std_error


def test_divergence_nonnegative_up_to_noise(prob_m3, rng):
    for i in range(10):
        theta = rng.standard_normal(3)
        est = PluginEstimate(theta + 0.3 * rng.standard_normal(3), rng.uniform(0.5, 2.0), w=1.0)
        alpha = rng.uniform(-1.0, 1.0)
        out = alpha_divergence_mc(plugin_density(est, prob_m3), theta, 1.0, prob_m3, alpha, 2000, seed=i)
        assert out.mean >= -3 * out.std_error


def test_divergence_requires_certificate(prob_m3):
    dens = plugin_density(PluginEstimate(np.zeros(3), 1.0, w=0.0), prob_m3)
    stripped = type(dens)(
        log_unnormalized=dens.log_unnormalized, log_norm_const=dens.log_norm_const,
        certificate=None, m=dens.m, sampler=dens.sampler,
    )
    with pytest.raises(ValueError):
        alpha_divergence_mc(stripped, np.zeros(3), 1.0, prob_m3, 0.0, 1000, seed=0)


# ---------------------------------------------------------------------------
# Risk simulation
# ---------------------------------------------------------------------------


def test_umvu_risk_matches_constant(prob_m3):
    n, k = prob_m3.n, prob_m3.k
    mr = minimax_risk(prob_m3.d, prob_m3.m, n, k)
    for theta, s2 in ((np.zeros(3), 1.0), (np.array([5.0, 0, 0]), 0.5)):
        params = CanonicalParams(theta=theta, mu=np.zeros(0), eta=1.0 / s2)
        est = risk_d1_mc(lambda o: umvu_estimators(o, n, k), prob_m3, params, 4000, seed=7)
        assert abs(est.mean - mr) < 3 * est.std_error


def test_oracle_cheat_has_zero_risk(prob_m3):
    params = CanonicalParams(theta=np.array([1.0, 2.0, 3.0]), mu=np.zeros(0), eta=2.0)
    cheat = lambda obs: PluginEstimate(params.theta, params.sigma2, w=0.0)
    est = risk_d1_mc(cheat, prob_m3, params, 200, seed=0)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_risk_se_scaling(prob_m3):
    params = CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0)
    proc = lambda o: umvu_estimators(o, prob_m3.n, prob_m3.k)
    ses = [risk_d1_mc(proc, prob_m3, params, reps, seed=5).std_error for reps in (2000, 4000)]
    assert ses[0] / ses[1] == pytest.approx(math.sqrt(2.0), abs=0.15)


def test_best_invariant_risk_constant_for_alpha_below_one(prob_m3):
    # invariance: same risk at well separated parameter points
    alpha = 0.0
    rules = {"best_invariant": lambda obs: best_invariant_density(prob_m3, obs, alpha)}
    e1 = np.array([5.0, 0.0, 0.0])
    points = [(np.zeros(3), 1.0), (e1, 1.0), (np.zeros(3), 0.5), (e1, 4.0)]
    outs = []
    for i, (theta, s2) in enumerate(points):
        params = CanonicalParams(theta=theta, mu=np.zeros(0), eta=1.0 / s2)
        outs.append(risk_mc(rules, prob_m3, params, alpha, 400, seed=17 + i, n_mc_inner=400)["best_invariant"])
    for a in outs:
        assert a.reps == 400
        for b in outs:
            tol = 3 * math.hypot(a.std_error, b.std_error)
            assert abs(a.mean - b.mean) <= tol or a is b


def _two_rules(problem, alpha):
    """Two rules for risk_mc at alpha: plug-in estimates at 1, densities below."""
    prior = PriorSpec.from_problem(problem, nu=0.25)
    if alpha == 1.0:
        return {
            "umvu": lambda obs: umvu_estimators(obs, problem.n, problem.k),
            "shrink_plugin": lambda obs: plugin_bayes_estimators(problem, prior, obs),
        }
    return {
        "best_invariant": lambda obs: best_invariant_density(problem, obs, alpha),
        "shrinkage_bayes": lambda obs: shrinkage_bayes_density(problem, prior, obs, alpha),
    }


@pytest.mark.parametrize("alpha, reps", [(1.0, 500), (0.0, 60)])
def test_risk_mc_joint_equals_single(prob_m3, alpha, reps):
    # every rule sees the same keyed observations, so scoring several rules
    # in one loop changes no estimate
    params = CanonicalParams(theta=np.array([1.0, 0.0, 0.0]), mu=np.zeros(0), eta=1.0)
    rules = _two_rules(prob_m3, alpha)
    joint = risk_mc(rules, prob_m3, params, alpha, reps, seed=3, n_mc_inner=200)
    assert list(joint) == list(rules)
    for name, rule in rules.items():
        single = risk_mc({name: rule}, prob_m3, params, alpha, reps, seed=3, n_mc_inner=200)
        assert joint[name] == single[name]


@pytest.mark.parametrize("alpha, reps", [(1.0, 150), (1.0, 4096), (1.0, 9000), (0.0, 60)])
def test_risk_mc_draws_each_block_once(prob_m3, monkeypatch, alpha, reps):
    calls = []
    original = risk_module.simulate_observation

    def counted(problem, params, seed, block=0):
        calls.append(block)
        return original(problem, params, seed, block)

    monkeypatch.setattr(risk_module, "simulate_observation", counted)
    rules = _two_rules(prob_m3, alpha)
    if alpha == 1.0:
        rules["oracle"] = lambda obs: PluginEstimate(np.zeros(3), 1.0, w=0.0)
    params = CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0)
    out = risk_mc(rules, prob_m3, params, alpha, reps, seed=8, n_mc_inner=100)
    assert len(out) == len(rules)
    assert calls == list(range(math.ceil(reps / BLOCK_SIZE)))


def _scored_rows(problem, params, reps, seed):
    """The observations risk_mc hands an alpha = 1 rule, stacked in replication order."""
    seen = []

    def record(obs):
        seen.append(obs)
        return umvu_estimators(obs, problem.n, problem.k)

    risk_mc({"umvu": record}, problem, params, 1.0, reps, seed)
    return np.concatenate([o.v for o in seen]), np.concatenate([o.s for o in seen])


def test_block_rows_prefix_invariant(prob_m3):
    # row i depends only on (seed, i): runs of any length agree on their common
    # rows, across the block boundary too
    params = CanonicalParams(theta=np.array([1.0, 0.0, -1.0]), mu=np.zeros(0), eta=1.5)
    runs = {reps: _scored_rows(prob_m3, params, reps, seed=12) for reps in (4095, 4096, 4097, 9000)}
    full_v, full_s = runs[9000]
    for reps, (v, s) in runs.items():
        assert v.shape == (reps, 3) and s.shape == (reps,)
        assert np.array_equal(v, full_v[:reps]) and np.array_equal(s, full_s[:reps])
    for i in (0, 4095, 4096, 8191, 8192, 8999):
        row = simulate_observation(prob_m3, params, 12, block=i // BLOCK_SIZE)[i % BLOCK_SIZE]
        assert np.array_equal(full_v[i], row.v) and full_s[i] == row.s


def test_risk_estimate_validation():
    with pytest.raises(ValueError):
        RiskEstimate(mean=0.0, std_error=-1.0, reps=10, seed=0)
    with pytest.raises(ValueError):
        RiskEstimate(mean=0.0, std_error=0.0, reps=1, seed=0)


def test_certificate_failure_propagates(prob_m3, monkeypatch):
    # a shrinkage constant that fails its quadrature certificate stops the run
    monkeypatch.setattr(predictive_module, "QUAD_MAX_INTERVALS", predictive_module.QUAD_START_INTERVALS)
    params = CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0)
    with pytest.raises(UnreliableNormalizationError):
        risk_mc(_two_rules(prob_m3, 0.0), prob_m3, params, 0.0, 60, seed=2, n_mc_inner=100)


def test_minimum_replication_counts(prob_m3):
    params = CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0)
    proc = lambda o: umvu_estimators(o, prob_m3.n, prob_m3.k)
    with pytest.raises(ValueError):
        risk_d1_mc(proc, prob_m3, params, reps=50, seed=0)
    with pytest.raises(ValueError):
        risk_mc({"best_invariant": lambda o: best_invariant_density(prob_m3, o, 0.0)},
                prob_m3, params, 0.0, reps=10, seed=0, n_mc_inner=200)
    phat = plugin_density(PluginEstimate(np.zeros(3), 1.0, w=0.0), prob_m3)
    with pytest.raises(ValueError):
        alpha_divergence_mc(phat, np.zeros(3), 1.0, prob_m3, 0.0, n_mc=50, seed=0)


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def test_chi_square_identity_linear_phi():
    out = chi_square_identity_check(lambda w: w, dof=9, n_mc=100_000, seed=23,
                                    phi_prime=lambda w: np.ones_like(w))
    # identity collapses to E[S/sigma^2] = dof on both sides
    assert out.lhs == pytest.approx(9.0, abs=4 * 9.0 * math.sqrt(2.0 / 9.0) / math.sqrt(100_000) * 9)
    assert out.rhs == pytest.approx(9.0, abs=1e-9)
    assert abs(out.gap) <= 4 * out.std_error


def test_chi_square_identity_zero_phi():
    out = chi_square_identity_check(lambda w: np.zeros_like(w), dof=9, n_mc=1000, seed=1,
                                    phi_prime=lambda w: np.zeros_like(w))
    assert out == ChiSquareCheck(0.0, 0.0, 0.0, 0.0)


def test_chi_square_identity_shrinkage_phi():
    nu = 0.3
    out = chi_square_identity_check(
        lambda w: nu * w / (nu + 1 + w), dof=9, n_mc=100_000, seed=29,
        phi_prime=lambda w: nu * (nu + 1) / (nu + 1 + w) ** 2,
    )
    assert abs(out.gap) <= 4 * out.std_error


def test_chi_square_identity_finite_difference_default():
    nu = 0.3
    out = chi_square_identity_check(lambda w: nu * w / (nu + 1 + w), dof=9, n_mc=50_000, seed=31)
    assert abs(out.gap) <= 4 * out.std_error


def test_log_inequality_grid():
    npts = 10_000
    x = np.arange(1, npts + 1) / (npts + 1) * 0.99
    margins = log_inequality_margin(x)
    assert margins.min() >= 0.0
    with pytest.raises(ValueError):
        log_inequality_margin(np.array([0.0]))
    with pytest.raises(ValueError):
        log_inequality_margin(np.array([1.0]))
