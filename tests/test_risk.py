"""Divergence generator, closed-form losses, Monte Carlo risk machinery."""

import functools
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from shrinkpred import cli
from shrinkpred.canonical import (
    BLOCK_SIZE,
    STREAM_OBSERVATION,
    CanonicalObservation,
    CanonicalParams,
    canonicalize,
    replication_rng,
    simulate_observation,
)
from shrinkpred.identities import log_inequality_margin
from shrinkpred.predictive import (
    PluginEstimate,
    PriorSpec,
    best_invariant_kernel,
    plugin_bayes_estimators,
    shrinkage_bayes_kernel,
    shrinkage_components,
    stein_variance,
    stein_variance_star,
    umvu_estimators,
)
import shrinkpred.predictive as predictive_module
import shrinkpred.quad as quad_module
import shrinkpred.risk as risk_module
from shrinkpred.quad import UnreliableNormalizationError
from shrinkpred.risk import (
    RiskEstimate,
    alpha_divergence_loss,
    d1_loss_plugin,
    minimax_risk,
    risk_d1_mc,
    risk_mc,
    scorer,
)

from conftest import (
    DENSITIES,
    MULTI_GROUP,
    block_and_theta,
    designs,
    make_case2_design,
    shipped,
    synthetic_problem,
    translate,
    write_config,
)
from oracles import alpha_divergence_mc, f_alpha


def unit_twin(params):
    """The point risk_mc scores in place of params: (theta sqrt(eta), mu sqrt(eta), eta = 1)."""
    root = math.sqrt(params.eta)
    return CanonicalParams(theta=params.theta * root, mu=params.mu * root, eta=1.0)


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
    assert d1_loss_plugin(np.zeros(3), 1.0, np.zeros(3), 3) == 0.0
    e1 = np.array([1.0, 0.0, 0.0])
    assert d1_loss_plugin(e1, 1.0, np.zeros(3), 3) == pytest.approx(0.5, rel=1e-14)
    got = d1_loss_plugin(np.zeros(2), 2.0, np.zeros(2), 2)
    assert got == pytest.approx(1.0 - math.log(2.0), rel=1e-12)  # (m/2) L2 at ratio 2
    with pytest.raises(ValueError):
        d1_loss_plugin(np.zeros(2), -1.0, np.zeros(2), 2)


def test_minimax_risk_frozen_example():
    # D = I_3, m = 3, n - k = 9, evaluated with the scipy digamma oracle
    want = 0.5 * (3.0 + 3.0 * (math.log(4.5) - float(scipy.special.digamma(4.5))))
    assert want == pytest.approx(1.6728097056251178, abs=1e-12)
    assert minimax_risk(synthetic_problem(12, 3, 3, np.ones(3))) == pytest.approx(want, abs=1e-10)


def test_minimax_risk_zero_trace_limit():
    got = minimax_risk(synthetic_problem(12, 3, 3, np.full(3, 1e-15)))
    assert got == pytest.approx(1.5 * (math.log(4.5) - float(scipy.special.digamma(4.5))), abs=1e-12)
    assert got > 0


def test_digamma_closed_form_matches_scipy():
    # psi((n-k)/2) in minimax_risk is summed in closed form; scipy's digamma is the oracle
    for q in range(1, 2001):
        want = float(scipy.special.digamma(q / 2.0))
        assert abs(risk_module._digamma_half(q) - want) <= 1e-14 * abs(want), q


def test_digamma_streams_its_terms_with_the_list_sum_bits():
    # psi(q/2) used to hand fsum a q/2-element list, 115 MB at q = 6e6 (the as1 design at N = 2e6)
    def listed(q):
        if q % 2 == 0:
            return math.fsum([-np.euler_gamma] + [1.0 / j for j in range(1, q // 2)])
        return math.fsum([-np.euler_gamma, -2.0 * math.log(2.0)] + [2.0 / (2 * j - 1) for j in range(1, q // 2 + 1)])

    for q in (1, 2, 9, 10, 1001, 5_999_997):
        assert risk_module._digamma_half(q) == listed(q), q
    tracemalloc.start()
    try:
        risk_module._digamma_half(6_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_minimax_risk_two_dof_euler():
    # n - k = 2: log(1) - psi(1) is the Euler-Mascheroni constant
    got = minimax_risk(synthetic_problem(5, 3, 1, np.zeros(1) + 1e-300))
    assert got == pytest.approx(0.5772156649015329 / 2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo divergence
# ---------------------------------------------------------------------------


def test_divergence_zero_when_equal(prob_m3):
    theta = np.array([0.4, -1.0, 2.0])
    phat = PluginEstimate(prob_m3, theta, 1.0)
    for alpha in (-1.0, -0.3, 0.5, 1.0):
        est = alpha_divergence_mc(phat, theta, 1.0, alpha, 5000, seed=1)
        assert abs(est.mean) <= max(3 * est.std_error, 1e-12)


def test_divergence_gaussian_kl_oracle(prob_m3):
    # alpha = -1 with equal variances: KL = |delta|^2 / (2 sigma^2)
    theta = np.zeros(3)
    delta = np.array([0.6, -0.2, 0.1])
    sigma2 = 1.3
    phat = PluginEstimate(prob_m3, theta + delta, sigma2)
    est = alpha_divergence_mc(phat, theta, 1.0 / sigma2, -1.0, 40_000, seed=2)
    want = float(delta @ delta) / (2 * sigma2)
    assert abs(est.mean - want) < 3 * est.std_error


def test_divergence_alpha_one_matches_closed_form(prob_m3):
    theta = np.array([1.0, 0.0, -0.5])
    sigma2 = 0.7
    est_plug = PluginEstimate(prob_m3, np.array([0.7, 0.2, -0.4]), 0.9)
    mc = alpha_divergence_mc(est_plug, theta, 1.0 / sigma2, 1.0, 40_000, seed=3)
    # the closed form takes the truth at unit scale: everything divided by sigma (variances by sigma2)
    sigma = math.sqrt(sigma2)
    want = d1_loss_plugin(est_plug.theta_hat / sigma, est_plug.sigma2_hat / sigma2, theta / sigma, 3)
    assert abs(mc.mean - want) < 3 * mc.std_error


def test_divergence_nonnegative_up_to_noise(prob_m3, rng):
    for i in range(10):
        theta = rng.standard_normal(3)
        est = PluginEstimate(prob_m3, theta + 0.3 * rng.standard_normal(3), rng.uniform(0.5, 2.0))
        alpha = rng.uniform(-1.0, 1.0)
        out = alpha_divergence_mc(est, theta, 1.0, alpha, 2000, seed=i)
        assert out.mean >= -3 * out.std_error


# ---------------------------------------------------------------------------
# Risk simulation
# ---------------------------------------------------------------------------


def test_umvu_risk_matches_constant(prob_m3):
    mr = minimax_risk(prob_m3)
    for theta, s2 in ((np.zeros(3), 1.0), (np.array([5.0, 0, 0]), 0.5)):
        params = CanonicalParams(theta=theta, mu=np.zeros(0), eta=1.0 / s2)
        rule = functools.partial(umvu_estimators, prob_m3)
        est = RiskEstimate.of(risk_mc([scorer(rule, 1.0)], prob_m3, [params], 4000, seed=7)[0, 0])
        assert abs(est.mean - mr) < 3 * est.std_error
        # risk_d1_mc is this reduction of risk_mc's table, bit for bit
        assert risk_d1_mc(rule, prob_m3, params, 4000, seed=7) == est


def test_oracle_cheat_has_zero_risk(prob_m3):
    params = CanonicalParams(theta=np.array([1.0, 2.0, 3.0]), mu=np.zeros(0), eta=2.0)
    # the scorer sees the unit-scale twin, so the cheat returns the twin's truth
    cheat = lambda obs: PluginEstimate(prob_m3, unit_twin(params).theta, 1.0)
    est = RiskEstimate.of(risk_mc([scorer(cheat, 1.0)], prob_m3, [params], 200, seed=0)[0, 0])
    assert est.mean == 0.0 and est.std_error == 0.0


def test_risk_se_scaling(prob_m3):
    params = CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0)
    proc = functools.partial(umvu_estimators, prob_m3)
    ses = [RiskEstimate.of(risk_mc([scorer(proc, 1.0)], prob_m3, [params], reps, seed=5)[0, 0]).std_error
           for reps in (2000, 4000)]
    assert ses[0] / ses[1] == pytest.approx(math.sqrt(2.0), abs=0.15)


def test_best_invariant_risk_constant_for_alpha_below_one(prob_m3):
    # invariance: same risk at well separated parameter points
    alpha = 0.0
    score = scorer(lambda obs: best_invariant_kernel(prob_m3, obs, alpha), alpha)
    e1 = np.array([5.0, 0.0, 0.0])
    points = [(np.zeros(3), 1.0), (e1, 1.0), (np.zeros(3), 0.5), (e1, 4.0)]
    outs = []
    for i, (theta, s2) in enumerate(points):
        params = CanonicalParams(theta=theta, mu=np.zeros(0), eta=1.0 / s2)
        outs.append(RiskEstimate.of(risk_mc([score], prob_m3, [params], 400, seed=17 + i)[0, 0]))
    for a in outs:
        assert a.reps == 400
        for b in outs:
            tol = 3 * math.hypot(a.std_error, b.std_error)
            assert abs(a.mean - b.mean) <= tol or a is b


def _three_points(problem):
    """Three parameter points that differ in theta, mu and eta."""
    l, k = problem.l, problem.k
    return [CanonicalParams(theta=np.zeros(l), mu=np.zeros(k - l), eta=1.0),
            CanonicalParams(theta=np.linspace(0.5, 2.0, l), mu=np.full(k - l, -0.5), eta=0.5),
            CanonicalParams(theta=np.full(l, -3.0), mu=np.full(k - l, 1.0), eta=4.0)]


# ---------------------------------------------------------------------------
# What a row depends on: one battery over every rule and design
# ---------------------------------------------------------------------------

# every rule risk-compare runs, as a function of (prior, observations, alpha); the prior carries the problem
RULES = {"umvu": lambda prior, obs, alpha: umvu_estimators(prior.problem, obs),
         "stein_variance": lambda prior, obs, alpha: stein_variance(prior.problem, obs),
         "stein_variance_star": lambda prior, obs, alpha: stein_variance_star(prior.problem, obs),
         "shrink_plugin": lambda prior, obs, alpha: plugin_bayes_estimators(prior, obs),
         **DENSITIES}


@functools.lru_cache(maxsize=1)
def battery_designs():
    """{name: (problem, its own prior)}: four of conftest's designs with theirs, and three synthetic problems under
    c = 1, nu = 0.25: prob_m3 (d = 1), case2_problem_n12 (case II, m = 1) and two_group (d = (2.5, 1, 1))."""
    out = {name: designs()[name] for name in ("as1_desk", "case2_small_l", "multi_group", "wide_m5_k3")}
    for name, problem in (("prob_m3", synthetic_problem(12, 3, 3, [1.0, 1.0, 1.0])),
                          ("case2_problem_n12", canonicalize(*make_case2_design())),
                          ("two_group", synthetic_problem(12, 3, 3, [2.5, 1.0, 1.0]))):
        out[name] = (problem, PriorSpec(problem, nu=0.25))
    return out


# (design, prior, rule, alpha): a prior of None is the design's own, a dict the PriorSpec keywords of another.  The
# shipped configs' rows are every rule risk-compare runs on them (test_the_battery_has_every_rule_risk_compare_runs);
# a new rule or design joins as rows
CASES = [
    ("prob_m3", None, "umvu", 1.0),
    ("prob_m3", None, "stein_variance", 1.0),
    ("prob_m3", None, "shrink_plugin", 1.0),
    ("prob_m3", {"c": 1.5, "nu": 0.3}, "shrink_plugin", 1.0),
    ("prob_m3", None, "best_invariant", 0.3),
    ("prob_m3", {"c": [1.0, 1.5, 2.0], "nu": 0.3}, "shrinkage_bayes", 0.3),
    ("prob_m3", None, "best_invariant", 0.0),
    ("prob_m3", None, "shrinkage_bayes", 0.0),
    ("prob_m3", None, "best_invariant", -1.0),
    ("prob_m3", {"c": [1.0, 1.5, 2.0], "nu": 0.3}, "shrinkage_bayes", -1.0),
    ("case2_problem_n12", None, "umvu", 1.0),
    ("case2_problem_n12", None, "stein_variance", 1.0),
    ("case2_problem_n12", None, "stein_variance_star", 1.0),
    ("case2_problem_n12", None, "shrink_plugin", 1.0),
    ("case2_problem_n12", {"c": 1.5, "nu": 0.3}, "shrink_plugin", 1.0),
    ("case2_problem_n12", None, "best_invariant", 0.99),
    ("case2_problem_n12", None, "shrinkage_bayes", 0.99),
    ("case2_problem_n12", None, "best_invariant", 0.0),
    ("case2_problem_n12", None, "shrinkage_bayes", 0.0),
    ("case2_problem_n12", None, "best_invariant", -1.0),
    ("case2_problem_n12", None, "shrinkage_bayes", -1.0),
    ("as1_desk", None, "umvu", 1.0),
    ("as1_desk", None, "shrink_plugin", 1.0),
    ("as1_desk", None, "stein_variance", 1.0),
    ("as1_desk", None, "best_invariant", 0.99),
    ("as1_desk", None, "shrinkage_bayes", 0.99),
    ("as1_desk", None, "best_invariant", 0.9),
    ("as1_desk", None, "shrinkage_bayes", 0.9),
    ("as1_desk", None, "best_invariant", 0.5),
    ("as1_desk", None, "shrinkage_bayes", 0.5),
    ("as1_desk", None, "best_invariant", 0.0),
    ("as1_desk", None, "shrinkage_bayes", 0.0),
    ("as1_desk", None, "best_invariant", -0.5),
    ("as1_desk", None, "shrinkage_bayes", -0.5),
    ("as1_desk", None, "best_invariant", -1.0),
    ("as1_desk", None, "shrinkage_bayes", -1.0),
    ("case2_small_l", None, "umvu", 1.0),
    ("case2_small_l", None, "shrink_plugin", 1.0),
    ("case2_small_l", None, "stein_variance", 1.0),
    ("case2_small_l", None, "stein_variance_star", 1.0),
    ("case2_small_l", None, "best_invariant", 0.5),
    ("case2_small_l", None, "shrinkage_bayes", 0.5),
    ("case2_small_l", None, "best_invariant", 0.0),
    ("case2_small_l", None, "shrinkage_bayes", 0.0),
    ("case2_small_l", None, "best_invariant", -0.5),
    ("case2_small_l", None, "shrinkage_bayes", -0.5),
    ("case2_small_l", None, "best_invariant", -1.0),
    ("case2_small_l", None, "shrinkage_bayes", -1.0),
    ("multi_group", None, "umvu", 1.0),
    ("multi_group", None, "shrink_plugin", 1.0),
    ("multi_group", None, "stein_variance", 1.0),
    ("multi_group", None, "best_invariant", 0.5),
    ("multi_group", None, "shrinkage_bayes", 0.5),
    ("multi_group", None, "best_invariant", 0.0),
    ("multi_group", None, "shrinkage_bayes", 0.0),
    ("multi_group", None, "best_invariant", -0.5),
    ("multi_group", None, "shrinkage_bayes", -0.5),
    ("multi_group", None, "best_invariant", -1.0),
    ("multi_group", None, "shrinkage_bayes", -1.0),
    ("wide_m5_k3", {"c": [1.5, 2.0, 3.0], "nu": 0.4}, "shrinkage_bayes", 0.0),
    ("two_group", {"c": [2.0, 1.5, 1.5], "nu": 0.4}, "shrinkage_bayes", 0.7),
]


def case_id(case):
    design, prior, rule, alpha = case
    return "-".join([design, *(f"{key}{value}".replace(" ", "") for key, value in (prior or {}).items()), rule,
                     str(alpha)])


def case_rule(case):
    """The case's problem, and its rule on a block of observations at its alpha."""
    design, keys, name, alpha = case
    problem, prior = battery_designs()[design]
    return problem, functools.partial(RULES[name], prior if keys is None else PriorSpec(problem, **keys), alpha=alpha)


# ROW_CHUNK values that split a block row by row, unevenly, in one piece with rows to spare, and at 2^20
CHUNKS = (1, 7, 700, 1 << 20)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_a_row_alone_is_its_block_row_at_every_chunk(case, monkeypatch):
    # one observation takes its block's arithmetic: its plug-in estimates or kernel constant, its log density at a
    # point and its loss are its block row's bit for bit, every row at alpha = 1.  The block's are the same at every
    # ROW_CHUNK: the kernel integrals contract by np.einsum, which sums each row in the same order whatever the rows
    # beside it (a lone row is one chunk at any ROW_CHUNK).  Row 0 holds s = 10.805623199832086, whose log math.log
    # rounds an ulp off np.log's
    (problem, rule), alpha = case_rule(case), case[3]
    block, theta = block_and_theta(problem, rows=40)
    block = CanonicalObservation(v=block.v, v_star=block.v_star, s=np.concatenate([[10.805623199832086], block.s[1:]]))
    fields = ("theta_hat", "sigma2_hat") if alpha == 1.0 else ("log_const",)
    y = np.linspace(-1.0, 2.0, problem.m)
    whole = rule(block)
    losses = alpha_divergence_loss(whole, theta)
    for i in range(40) if alpha == 1.0 else (0, 2, 7, 17, 19, 39):
        lone = rule(block[i])
        for name in fields:
            assert np.array_equal(getattr(lone, name), getattr(whole, name)[i]), (name, i)
        assert lone.log_density(y) == whole[i].log_density(y) and alpha_divergence_loss(lone, theta) == losses[i], i
    for chunk in CHUNKS:
        monkeypatch.setattr(predictive_module, "ROW_CHUNK", chunk)
        monkeypatch.setattr(quad_module, "ROW_CHUNK", chunk)
        again = rule(block)
        for name in fields:
            assert np.array_equal(getattr(again, name), getattr(whole, name)), (chunk, name)
        assert np.array_equal(alpha_divergence_loss(again, theta), losses), chunk


def _risk_one_point(rule, problem, params, alpha, reps, seed):
    """Reference: (s, the last column of v, rule's loss) of each row drawn at params's unit-scale twin, by a
    per-point loop with its own alpha branch that draws each keyed block for this point alone.

    The block layout is written out here (standard normals (B, l), then
    (B, k - l), then B gamma((n-k)/2, 2) variates, moved to the twin), so
    it also pins the observation stream.
    """
    twin, columns = unit_twin(params), []
    for start in range(0, reps, BLOCK_SIZE):
        rng = replication_rng(seed, start // BLOCK_SIZE, stream=STREAM_OBSERVATION)
        v = twin.theta + np.sqrt(problem.d) * rng.standard_normal((BLOCK_SIZE, problem.l))
        v_star = twin.mu + rng.standard_normal((BLOCK_SIZE, problem.k - problem.l))
        s = rng.gamma((problem.n - problem.k) / 2.0, 2.0, BLOCK_SIZE)
        block = CanonicalObservation(v=v, v_star=v_star, s=s)[:reps - start]
        out = rule(block)
        if alpha == 1.0:
            loss = d1_loss_plugin(out.theta_hat, out.sigma2_hat, twin.theta, problem.m)
        else:
            loss = alpha_divergence_loss(out, twin.theta)
        columns.append((block.s, block.v[:, -1], loss))
    return [np.concatenate(column) for column in zip(*columns)]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_a_table_row_is_the_row_drawn_at_its_unit_scale_twin(case, monkeypatch):
    # a risk_mc row depends on (seed, replication, unit-scale point) alone.  Between two per-row statistics of its
    # block, at three points that differ in theta, mu and eta, each keyed block is drawn once, in order, whatever the
    # number of points, and each point's rows are bit for bit the first reps rows its own blocks give at its twin,
    # and the scorer's row that of a run alone at that point: at every reps, across the block boundary too
    (problem, rule), alpha = case_rule(case), case[3]
    score, points, calls = scorer(rule, alpha), _three_points(problem), []
    original = risk_module.simulate_observation
    counts = (100, 150, 500, 4095, 4096, 4097, 5000, 9000) if alpha == 1.0 else (60, 100)
    drawn = [_risk_one_point(rule, problem, params, alpha, max(counts), seed=13) for params in points]

    def counted(problem, seed, block=0):
        calls.append(block)
        return original(problem, seed, block)

    monkeypatch.setattr(risk_module, "simulate_observation", counted)
    for reps in counts:
        blocks = list(range(math.ceil(reps / BLOCK_SIZE)))
        calls.clear()
        table = risk_mc([lambda block, params: block.s, score, lambda block, params: block.v[:, -1]], problem,
                        points, reps, seed=13)
        assert table.shape == (3, 3, reps) and calls == blocks
        for (s, loss, v), (want_s, want_v, want_loss) in zip(table, drawn):
            assert np.array_equal(s, want_s[:reps]) and np.array_equal(v, want_v[:reps]), reps
            assert np.array_equal(loss, want_loss[:reps]), reps
        calls.clear()
        assert np.array_equal(risk_mc([score], problem, points[1:2], reps, seed=13), table[1:2, 1:2]), reps
        assert calls == blocks, reps
    calls.clear()
    assert risk_mc([score], problem, [], 60, seed=13).shape == (0, 1, 60) and calls == [0]


@pytest.mark.parametrize("case", [case for case in CASES if case[0] in ("as1_desk", "case2_problem_n12")], ids=case_id)
def test_a_point_at_sigma_2_scores_the_rows_of_its_half(case):
    # risk_mc scores every point in units of sigma, and halving is exact, so (theta, mu) at sigma = 2 gives, bit for
    # bit, the rows of (theta/2, mu/2, sigma = 1): at |theta| = 0, 2, 3, 5 and 10 along the first axis, and with
    # mu = (4, -2) on the case II design, where V* moves and its rules read it
    (problem, rule), alpha = case_rule(case), case[3]
    mu, axis = np.linspace(4.0, -2.0, problem.k - problem.l), np.eye(problem.l)[0]
    points = [CanonicalParams(theta=norm * scale * axis, mu=mu * scale, eta=eta)
              for scale, eta in ((1.0, 0.25), (0.5, 1.0)) for norm in (0.0, 2.0, 3.0, 5.0, 10.0)]
    table = risk_mc([scorer(rule, alpha)], problem, points, BLOCK_SIZE if alpha == 1.0 else 200, seed=1)
    assert np.array_equal(table[:5], table[5:]) and np.all(np.isfinite(table))


@pytest.mark.parametrize("design", ["as1_desk", "case2_small_l"])
def test_the_battery_has_every_rule_risk_compare_runs(design, tmp_path):
    # a rule run_risk_compare gains without a battery row fails here
    cfg = write_config(tmp_path, shipped(design, alphas=[1.0, 0.0], reps=100, reps_outer=50))
    assert cli.main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    rows = [line.split(",") for line in (tmp_path / "out" / "risk_compare.csv").read_text().splitlines()[1:]]
    for alpha in ("1", "0"):
        ran = {cells[0] for cells in rows if cells[1] == alpha}
        assert ran == {rule for name, _, rule, a in CASES if name == design and (a == 1.0) == (alpha == "1")}, alpha


def test_risk_estimate_validation():
    with pytest.raises(ValueError):
        RiskEstimate(mean=0.0, std_error=-1.0, reps=10)
    with pytest.raises(ValueError):
        RiskEstimate(mean=0.0, std_error=0.0, reps=1)


@pytest.mark.parametrize("norm, s2, message", [
    (1e12, 1.0, "|theta| must be at most 1e+08 sigma"), (1e16, 1.0, "|theta| must be at most 1e+08 sigma"),
    (0.0, 1e-200, "sigma2 must be in [1e-100, 1e+100]"), (0.0, 1e200, "sigma2 must be in [1e-100, 1e+100]"),
])
def test_no_point_past_the_scale_bounds_reaches_risk_mc(norm, s2, message, tmp_path):
    # umvu's risk on as1_desk is the constant 0.5478, yet risk_mc (seed 1, 4096 rows) used to return 0.5425 at
    # |theta| = 1e12 and 0.5115 at 1e16 without a word; such a point now fails before any row is scored
    problem, _, _ = cli.build_problem(cli.load_config(write_config(tmp_path, shipped("as1_desk", seed=1))))
    rule = lambda obs: pytest.fail("a row was scored")
    with pytest.raises(ValueError, match=re.escape(message)):
        points = [CanonicalParams(theta=norm * np.eye(problem.l)[0], mu=np.zeros(problem.k - problem.l), eta=1.0 / s2)]
        risk_mc([scorer(rule, 1.0)], problem, points, BLOCK_SIZE, seed=1)


@pytest.mark.parametrize("theta, mu", [(1, 2), (3, 2), (2, 1), (2, 3), (0, 2), (2, 0)])
def test_a_point_of_the_wrong_length_reaches_no_block(theta, mu, monkeypatch):
    # risk_mc translates each origin block by a point's theta and mu, where one of length 1 would broadcast over the
    # rows; so on a design with l = k - l = 2, a point whose lengths differ fails before any block is drawn
    problem = synthetic_problem(12, 4, 2, [2.0, 1.0])
    good = CanonicalParams(theta=np.zeros(2), mu=np.zeros(2), eta=1.0)
    bad = CanonicalParams(theta=np.ones(theta), mu=np.ones(mu), eta=1.0)
    monkeypatch.setattr(risk_module, "simulate_observation", lambda *args: pytest.fail("a block was drawn"))
    with pytest.raises(ValueError, match="params dimensions do not match problem"):
        risk_mc([lambda block, params: block.s], problem, [good, bad], 60, seed=1)


def test_minimum_replication_counts(prob_m3):
    params = CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0)
    proc = functools.partial(umvu_estimators, prob_m3)
    with pytest.raises(ValueError):
        risk_d1_mc(proc, prob_m3, params, reps=50, seed=0)
    with pytest.raises(ValueError):
        risk_mc([scorer(lambda o: best_invariant_kernel(prob_m3, o, 0.0), 0.0)],
                prob_m3, [params], reps=10, seed=0)
    # risk_mc knows no alpha, so its floor is 50 rows for every scorer
    with pytest.raises(ValueError, match="at least 50"):
        risk_mc([scorer(proc, 1.0)], prob_m3, [params], reps=49, seed=0)
    assert risk_mc([scorer(proc, 1.0)], prob_m3, [params], reps=50, seed=0).shape == (1, 1, 50)
    phat = PluginEstimate(prob_m3, np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        alpha_divergence_mc(phat, np.zeros(3), 1.0, 0.0, n_mc=50, seed=0)


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_risk_path_makes_no_inner_monte_carlo(prob_m3, alpha):
    # the Monte Carlo divergence lives in tests/oracles.py, out of the risk path's reach
    params = CanonicalParams(theta=np.array([1.0, 0.0, 0.0]), mu=np.zeros(0), eta=1.0)
    prior = PriorSpec(prob_m3, nu=0.25)
    scorers = [scorer(functools.partial(rule, prior, alpha=alpha), alpha) for rule in DENSITIES.values()]
    rows = risk_mc(scorers, prob_m3, [params], 60, seed=4)[0]
    assert all(math.isfinite(est.mean) and est.std_error > 0 for est in map(RiskEstimate.of, rows))


def test_rule_alpha_must_match(prob_m3):
    params = CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0)
    block = simulate_observation(prob_m3, 2)[:60]
    prior = PriorSpec(prob_m3, nu=0.25)
    for score in (scorer(functools.partial(rule, prior, alpha=0.5), 0.0) for rule in DENSITIES.values()):
        with pytest.raises(ValueError, match="alpha = 0.5, not 0.0"):
            score(block, params)
    # a plug-in estimate is the alpha = 1 density, so scoring it below 1 is the same error
    with pytest.raises(ValueError, match="alpha = 1.0, not 0.0"):
        scorer(lambda obs: umvu_estimators(prob_m3, obs), 0.0)(block, params)


@pytest.mark.parametrize("case", ["I", "II"])
def test_plugin_estimate_is_its_own_alpha_one_density(prob_m3, case2_problem_n12, case):
    # one loss for every alpha: a plug-in estimate's alpha_divergence_loss is the closed form d1_loss_plugin, bit
    # for bit on a block and on each of its rows, and one row's log density is that of N_m(Q theta_hat, sigma2_hat I)
    problem = prob_m3 if case == "I" else case2_problem_n12
    prior = PriorSpec(problem, nu=0.25)
    # the unit-scale twin of a point at eta = 0.5, as risk_mc scores it
    twin = unit_twin(_three_points(problem)[1])
    block, theta = translate(simulate_observation(problem, seed=6)[:30], twin.theta, twin.mu), twin.theta
    ys = 2.0 * np.random.default_rng(4).standard_normal((7, problem.m))
    rules = {"umvu": umvu_estimators, "stein_variance": stein_variance}
    if case == "II":
        rules["stein_variance_star"] = stein_variance_star
    rules = {name: functools.partial(rule, problem) for name, rule in rules.items()}
    rules["shrink_plugin"] = functools.partial(plugin_bayes_estimators, prior)
    for name, rule in rules.items():
        est = rule(block)
        assert est.alpha == 1.0 and est.problem is problem
        got = alpha_divergence_loss(est, theta)
        assert np.array_equal(got, d1_loss_plugin(est.theta_hat, est.sigma2_hat, theta, problem.m)), name
        for i in range(block.s.size):
            row = est[i]
            want = d1_loss_plugin(est.theta_hat[i], est.sigma2_hat[i], theta, problem.m)
            assert alpha_divergence_loss(row, theta) == want == got[i], (name, i)
            # |y - Q theta_hat|^2 in einsum's order, which is not left to right for m = 3
            r, s2 = ys - problem.Q @ row.theta_hat, row.sigma2_hat
            normal = (-(problem.m / 2) * math.log(2 * math.pi * s2) - np.einsum("ij,ij->i", r, r) / (2 * s2)).tolist()
            assert row.log_density(ys).tolist() == normal, (name, i)
            assert row.log_density(ys[0]) == normal[0]
        for evaluate in (est.log_density, est.log_unnormalized):
            with pytest.raises(ValueError, match="index it first"):
                evaluate(ys)
        with pytest.raises(ValueError, match="index it first"):
            est.log_const


@pytest.mark.parametrize("design", ["as1_desk", "case2_small_l", "wide_m5_k3", "as1_c_ne_1"])
def test_exact_loss_matches_inner_monte_carlo(design):
    # every row's exact loss against a 2e5-draw alpha_divergence_mc of the same density,
    # 8 rows per (alpha, theta) cell and rule, each oracle on its own keyed draws.  Over
    # 640 rows a 4-SE excursion of the oracle itself is likely (the wide design's
    # alpha = -1 cell has one, z = 4.72, whose draws overshoot E|Z|^2 by 4 SE), so a row
    # beyond 4 SE is checked once more against 2e6 draws on fresh keys, which a real
    # bias would fail by a wider margin.  The exact loss scores the block at the unit-scale
    # twin, and the oracle the true-scale density at eta = 1.5 (the block scaled up by
    # sigma), so this checks the loss's scale equivariance too.
    problem, prior = designs()[design]
    assert design != "wide_m5_k3" or problem.m > problem.k
    assert design != "as1_c_ne_1" or np.all(shrinkage_components(prior, 0.0, np.zeros(3))[0] > 0)
    zs, rechecked, rep = [], [], 0
    for alpha in (-1.0, -0.5, 0.0, 0.5, 0.9):
        for norm in (0.0, 2.0):
            theta = np.zeros(problem.l)
            theta[0] = norm
            params = CanonicalParams(theta=theta, mu=np.zeros(problem.k - problem.l), eta=1.5)
            twin = unit_twin(params)
            unit_block = translate(simulate_observation(problem, 21, 0)[:8], twin.theta, twin.mu)
            sigma = 1.0 / math.sqrt(params.eta)
            block = CanonicalObservation(v=unit_block.v * sigma, v_star=unit_block.v_star * sigma,
                                         s=unit_block.s / params.eta)
            kernels = (best_invariant_kernel(problem, unit_block, alpha),
                       shrinkage_bayes_kernel(prior, unit_block, alpha))
            densities = (lambda o: best_invariant_kernel(problem, o, alpha),
                         lambda o: shrinkage_bayes_kernel(prior, o, alpha))
            for kernel, density in zip(kernels, densities):
                losses = alpha_divergence_loss(kernel, twin.theta)
                for i in range(8):
                    mc = alpha_divergence_mc(density(block[i]), theta, params.eta, alpha, 200_000,
                                             seed=31, rep_index=rep)
                    zs.append((losses[i] - mc.mean) / mc.std_error)
                    if abs(zs[-1]) > 4.0:
                        mc = alpha_divergence_mc(density(block[i]), theta, params.eta, alpha,
                                                 2_000_000, seed=32, rep_index=rep)
                        rechecked.append((losses[i] - mc.mean) / mc.std_error)
                    rep += 1
    zs = np.array(zs)
    assert zs.size == 5 * 2 * 2 * 8
    assert len(rechecked) <= 1 and all(abs(z) <= 4.0 for z in rechecked), (zs, rechecked)
    assert abs(zs.mean()) <= 3.0 / math.sqrt(zs.size), zs.mean()


def norm_blocks(problem, rows, seed):
    """(params, block) pairs at |theta| = 0, 2, 10 and 50 along the first axis, eta = 1, rows rows each."""
    points = [CanonicalParams(theta=norm * np.eye(problem.l)[0], mu=np.zeros(problem.k - problem.l), eta=1.0)
              for norm in (0.0, 2.0, 10.0, 50.0)]
    origin = simulate_observation(problem, seed)[:rows]
    return [(params, translate(origin, params.theta)) for params in points]


@pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("design", ["as1_desk", "case2_small_l"])
def test_certified_loss_is_within_loss_tol_of_a_deeper_reference(design, alpha, monkeypatch):
    # the ladder from LOSS_START_NODES against one certified to 1e-11 from 64 nodes; over these
    # cells the two differ by at most 3.3e-8
    problem, prior = designs()[design]
    for params, block in norm_blocks(problem, 64, 11):
        for kernel in (best_invariant_kernel(problem, block, alpha),
                       shrinkage_bayes_kernel(prior, block, alpha)):
            got = alpha_divergence_loss(kernel, params.theta)
            with monkeypatch.context() as patch:
                patch.setattr(quad_module, "LOSS_TOL", 1e-11)
                patch.setattr(quad_module, "LOSS_START_NODES", 64)
                want = alpha_divergence_loss(kernel, params.theta)
            assert np.abs(got - want).max() <= quad_module.LOSS_TOL


@pytest.mark.parametrize("alpha", [-1.0, -0.99, 0.0, 0.99])
@pytest.mark.parametrize("design", ["as1_desk", "case2_small_l"])
def test_constant_and_frullani_ladders_match_a_deeper_ladder(design, alpha, monkeypatch):
    # the shrinkage constant and the alpha = -1 Frullani losses, each certified to QUAD_TOL from its first rung,
    # against ladders started deeper (81 nodes for the constant, 121 for the Frullani integrals) and certified to
    # 1e-13: they move by rounding
    problem, prior = designs()[design]
    for params, block in norm_blocks(problem, 128, 13):
        def run():
            kernels = (shrinkage_bayes_kernel(prior, block, alpha), best_invariant_kernel(problem, block, alpha))
            return kernels[0].log_const, [alpha_divergence_loss(k, params.theta) for k in kernels if alpha == -1.0]

        got, got_losses = run()
        with monkeypatch.context() as patch:
            patch.setattr(quad_module, "LOSS_START_NODES", 81)
            patch.setattr(predictive_module, "FRULLANI_START_NODES", 121)
            patch.setattr(predictive_module, "QUAD_TOL", 1e-13)
            want, want_losses = run()
        assert np.abs(got - want).max() <= quad_module.QUAD_TOL
        for got_loss, want_loss in zip(got_losses, want_losses):
            assert np.abs(got_loss - want_loss).max() <= quad_module.QUAD_TOL


def per_axis_log_affinity(kernel, theta, n):
    """log I of every row of a block kernel at n nodes per factor, one axis at a time, for the truth N_m(Q theta, I).

    The per-axis affinity formula, kept as an oracle: the node pairs are
    rebuilt from quad.laguerre, and each of the l eigen-axes and the m - l
    complement axes contributes its own P, log and division.
    """
    beta, kappa, c2 = (1.0 + kernel.alpha) / 2.0, (1.0 - kernel.alpha) / 4.0, kernel.c2
    m, l, d, rows = kernel.problem.m, kernel.problem.l, kernel.problem.d, np.size(kernel.s)
    x, log_wx = quad_module.laguerre(kernel.A * beta - 1.0, n)
    y, log_wy = (np.zeros(1), np.zeros(1)) if kernel.B == 0 else quad_module.laguerre(kernel.B * beta - 1.0, n)
    log_w = (log_wx[:, None] + log_wy).ravel()
    keep = log_w >= log_w.max() - predictive_module.LOSS_WEIGHT_DROP
    s, o = np.reshape(kernel.s, (-1, 1)), np.reshape(kernel.o, (-1, 1))
    t, u = np.repeat(x, y.size)[keep] / s, np.tile(y, x.size)[keep] / o
    sigma_u, sigma_b = c2 + d, c2 + kernel.e_b
    v, theta_b = np.reshape(kernel.v, (rows, l)), np.reshape(kernel.theta_b, (rows, l))
    dv, db, dvb = kappa * sigma_b * (theta - v) ** 2, kappa * sigma_u * (theta - theta_b) ** 2, (v - theta_b) ** 2
    log_f = np.broadcast_to(log_w[keep], t.shape).copy()
    if m > l:
        log_f += ((m - l) / 2.0) * np.log(math.pi / (kappa + (t + u) / c2))
    for i in range(l):
        P = kappa * sigma_u[i] * sigma_b[i] + sigma_b[i] * t + sigma_u[i] * u
        log_f += 0.5 * np.log(math.pi * sigma_u[i] * sigma_b[i] / P)
        log_f -= (t * dv[:, i:i + 1] + u * db[:, i:i + 1] + t * u * dvb[:, i:i + 1]) / P
    shift = log_f.max(axis=1)
    log_sum = shift + np.log(np.exp(log_f - shift[:, None]).sum(axis=1))
    log_i = beta * np.reshape(kernel.log_const, -1) - kernel.A * beta * np.log(s[:, 0])
    log_i += (m * (1.0 - kernel.alpha) / 4.0) * math.log(1.0 / (2.0 * math.pi))
    log_i -= kernel.B * beta * np.log(o[:, 0])
    return log_i + log_sum


AFFINITY_SHAPES = ("best_invariant", "all_equal", "two_equal_one_distinct", "distinct_m_gt_l", "c_is_1")
AFFINITY_ALPHAS = (-0.5, 0.0, 0.7)


@functools.lru_cache(maxsize=1)
def affinity_cases():
    """(kernel, theta, spectral groups) for each shape of the grouped affinity, at each of AFFINITY_ALPHAS.

    The blocks are drawn at the unit-scale twin of theta at eta = 1.5, as risk_mc scores them.
    """
    as1 = designs()["as1_desk"][0]
    wide = designs()["wide_m5_k3"][0]
    two_equal = synthetic_problem(12, 3, 3, [2.5, 1.0, 1.0])
    theta = np.array([1.0, -0.5, 0.3]) * math.sqrt(1.5)

    def block(problem):
        return translate(simulate_observation(problem, 5, 0)[:40], theta)

    cases = {}
    for alpha in AFFINITY_ALPHAS:
        cases[f"best_invariant-{alpha}"] = (best_invariant_kernel(as1, block(as1), alpha), 1)
        cases[f"all_equal-{alpha}"] = (shrinkage_bayes_kernel(
            PriorSpec(as1, c=[2.0, 2.0, 2.0], nu=0.4), block(as1), alpha), 1)
        cases[f"two_equal_one_distinct-{alpha}"] = (shrinkage_bayes_kernel(
            PriorSpec(two_equal, c=[2.0, 1.5, 1.5], nu=0.4), block(two_equal), alpha), 2)
        cases[f"distinct_m_gt_l-{alpha}"] = (shrinkage_bayes_kernel(
            PriorSpec(wide, c=[1.5, 2.0, 3.0], nu=0.4), block(wide), alpha), 4)
        cases[f"c_is_1-{alpha}"] = (shrinkage_bayes_kernel(
            PriorSpec(as1, c=[1.0, 1.0, 1.0], nu=0.4), block(as1), alpha), 1)
    return {name: (kernel, theta, groups) for name, (kernel, groups) in cases.items()}


@pytest.mark.parametrize("case", [f"{shape}-{alpha}" for shape in AFFINITY_SHAPES for alpha in AFFINITY_ALPHAS])
@pytest.mark.parametrize("n", [32, 48])
def test_grouped_affinity_matches_per_axis_formula(case, n):
    kernel, theta, groups = affinity_cases()[case]
    m, l, d, c2 = kernel.problem.m, kernel.problem.l, kernel.problem.d, kernel.c2
    pairs = set(zip((c2 + d).tolist(), (c2 + kernel.e_b).tolist())) | ({(c2, c2)} if m > l else set())
    assert len(pairs) == groups
    if case.startswith("c_is_1"):
        assert np.all(kernel.e_b == 0.0) and np.all(kernel.theta_b == 0.0)
    rows = np.size(kernel.s)
    got = predictive_module._log_affinity(kernel, theta)(n, np.arange(rows))
    want = per_axis_log_affinity(kernel, theta, n)
    assert np.abs(got - want).max() <= 1e-12, np.abs(got - want).max()
    # a subset of rows, in any order, gives the same bits as the whole block
    index = np.array([7, 3, 31])
    assert np.array_equal(predictive_module._log_affinity(kernel, theta)(n, index), got[index])


def test_node_pairs_are_cached_read_only_and_built_once():
    basis, log_w = pairs = predictive_module._node_pairs(3.25, 5.5, 48)
    assert all(a is b for a, b in zip(pairs, predictive_module._node_pairs(3.25, 5.5, 48)))
    for array in (basis[0], basis[1], log_w):
        with pytest.raises(ValueError):
            array[0] = 0.0
    one, X, Y, XY = basis
    assert X.shape == Y.shape == XY.shape == log_w.shape and log_w.size < 48 * 48
    assert np.all(one == 1.0) and np.array_equal(XY, X * Y)
    assert log_w.min() >= log_w.max() - predictive_module.LOSS_WEIGHT_DROP
    x, _ = quad_module.laguerre(3.25, 48)
    assert np.all(np.isin(X, x)) and np.all(np.diff(np.searchsorted(x, X)) >= 0)   # x-major order
    # a second block at the same alpha finds every rule it needs already built
    kernel, theta, _ = affinity_cases()["all_equal-0.0"]
    alpha_divergence_loss(kernel, theta)
    before = predictive_module._node_pairs.cache_info()
    alpha_divergence_loss(kernel[5:30], theta)
    after = predictive_module._node_pairs.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


@pytest.mark.parametrize("seed", [1, 20240601])
@pytest.mark.parametrize("alpha", [0.9, 0.0, -1.0])
@pytest.mark.parametrize("design", ["as1_desk", "case2_small_l"])
def test_shrinkage_kernel_tends_to_its_b_0_member_the_best_invariant_kernel(design, alpha, seed):
    # B = nu (n - k)/(1 - alpha) falls with nu, and at B = 0 the kernel form is the best invariant kernel: each gap to
    # it over B settles to its nu -> 0 slope.  This holds the shrinkage constant at tiny B to the closed-form t
    # constant, and the two-factor affinity and the second Frullani integral to their one-factor forms
    problem, prior = designs()[design]
    block, theta = block_and_theta(problem, rows=500, seed=seed)
    best = best_invariant_kernel(problem, block, alpha)
    best_loss, y = alpha_divergence_loss(best, theta), problem.Q @ theta

    def slopes(eps):
        kernel = shrinkage_bayes_kernel(PriorSpec(problem, prior.c, eps * prior.nu, prior.gamma_prior), block, alpha)
        gaps = (np.abs(alpha_divergence_loss(kernel, theta) - best_loss).max(),
                np.abs(kernel.log_const - best.log_const).max(),
                abs(kernel[0].log_density(y) - best[0].log_density(y)))
        return np.array(gaps) / kernel.B

    reference = slopes(1e-4)
    for eps in (1e-6, 1e-8):
        assert np.abs(slopes(eps) / reference - 1.0).max() <= 1e-2, (eps, slopes(eps), reference)


def extreme_s_kernel(rule, s, alpha):
    """as1_desk's kernel of rule for one row v = (1e-3 sqrt(s), 0, 0): near degenerate at a tiny s, flat at a huge s."""
    problem, prior = designs()["as1_desk"]
    obs = CanonicalObservation(v=np.array([[1e-3 * math.sqrt(s), 0.0, 0.0]]), v_star=np.zeros((1, 0)), s=[s])
    if rule == "best_invariant":
        return best_invariant_kernel(problem, obs, alpha)
    return shrinkage_bayes_kernel(prior, obs, alpha)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.7])
@pytest.mark.parametrize("rule", ["best_invariant", "shrinkage_bayes"])
def test_alpha_below_1_loss_holds_at_extreme_s(rule, alpha):
    # the affinity's coefficients carry s/o <= 1 and dvb/o, never 1/(s o), so neither an s o that underflows
    # (s <= 1e-163) nor one that overflows (s >= 1e155) reaches them; a density this far from the truth N(0, I),
    # nearly degenerate or nearly flat, has affinity near 0 with it, and loss near 4/(1 - alpha^2)
    for s in (1e-300, 1e-170, 1e-100, 1e100, 1e200, 1e300):
        loss = alpha_divergence_loss(extreme_s_kernel(rule, s, alpha), np.zeros(3))
        assert loss[0] == pytest.approx(4.0 / (1.0 - alpha * alpha), rel=1e-9), s


@pytest.mark.parametrize("s", [1e-150, 1e-200, 1e-300, 1e150, 1e300])
@pytest.mark.parametrize("rule", ["best_invariant", "shrinkage_bayes"])
def test_kullback_leibler_loss_certifies_at_a_tiny_s(rule, s):
    # _expected_log integrates over z = log(c tau), c = o + E q, where its integrand has one scale: the window is at
    # most about 90 wide whatever s, so the Gauss-Legendre ladder certifies as at s = 1.  Once s is negligible
    # against q(Y), E log(q(Y) + s) and E log(q_b(Y) + o) (o is r + s, and r scales with v^2 = 1e-6 s) stop moving,
    # and once q(Y) is negligible against s, both move with log s: on either side the loss is affine in log s
    near, far = (1e-50, 1e-100) if s < 1.0 else (1e50, 1e100)
    loss, a, b = (alpha_divergence_loss(extreme_s_kernel(rule, x, -1.0), np.zeros(3))[0] for x in (s, near, far))
    assert loss == pytest.approx(b + (b - a) / math.log(far / near) * math.log(s / far), rel=1e-12)


@pytest.mark.xfail(strict=True, raises=UnreliableNormalizationError,
                   reason="the alpha < 1 affinity ladder fails on designs with few residual degrees of freedom")
@pytest.mark.parametrize("dof", [1, 5])
def test_affinity_certifies_on_a_design_with_few_residual_degrees_of_freedom(dof, tmp_path):
    # n - k = 1, the multi-group design cut to its first four rows of X and three of Xtilde: at theta = 0, row 3600 of
    # seed 1's block 0 (s = 3.59e-7) is left uncertified at alpha = 0 by 406 vs 609 nodes, gap 1.4e-4.
    # n - k = 5, the multi-group design itself: of block_and_theta's 4096 rows, rows 2639 and 3813 (s = 0.105 and
    # 0.076) fail at alpha = -0.5 for both rules, even as this 2-row block, gap 1.6e-5 at 406 vs 609 nodes (row 1603,
    # s = 0.123, fails too at alpha = -0.9); risk-compare on it at reps_outer 8192 exits 4 at alpha = -0.5 and -0.9,
    # 4 rows each, and exits 0 at 2000.  The fix must flip this marker
    if dof == 1:
        design = dict(MULTI_GROUP["design"], X=MULTI_GROUP["design"]["X"][:4], Xtilde=MULTI_GROUP["design"]["Xtilde"][:3])
        problem, _, _ = cli.build_problem(cli.load_config(write_config(tmp_path, dict(MULTI_GROUP, design=design))))
        theta, alpha = np.zeros(problem.l), 0.0
        block = simulate_observation(problem, 1, 0)[3600:3601]
    else:
        problem, _ = designs()["multi_group"]
        block, theta = block_and_theta(problem, rows=4096)
        block, alpha = block[np.array([2639, 3813])], -0.5
    assert problem.n - problem.k == dof
    kernel = best_invariant_kernel(problem, block, alpha)
    loss = alpha_divergence_loss(kernel, theta)
    for i, row_loss in enumerate(loss):
        oracle = alpha_divergence_mc(kernel[i], theta, 1.0, alpha, 20_000, seed=5)
        assert abs(row_loss - oracle.mean) <= 4.0 * oracle.std_error


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def test_log_inequality_grid():
    npts = 10_000
    x = np.arange(1, npts + 1) / (npts + 1) * 0.99
    margins = log_inequality_margin(x)
    assert margins.min() >= 0.0
    with pytest.raises(ValueError):
        log_inequality_margin(np.array([0.0]))
    with pytest.raises(ValueError):
        log_inequality_margin(np.array([1.0]))
