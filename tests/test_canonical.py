"""Canonical reduction: sufficient statistics, both reduction cases, sampling."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm

from shrinkpred.canonical import (
    BLOCK_SIZE,
    SIGMA2_RANGE,
    THETA_OVER_SIGMA_MAX,
    CanonicalObservation,
    CanonicalParams,
    RankDeficiencyError,
    _row_dot,
    as1_design,
    as1_problem,
    canonicalize,
    invariant_report,
    params_to_canonical,
    problem_from_dict,
    problem_to_dict,
    replication_rng,
    simulate_observation,
    sufficient_statistics,
    to_canonical,
)


from conftest import simulate_rows, translate


def random_design(rng, n, k, m):
    return rng.standard_normal((n, k)), rng.standard_normal((m, k))


# ---------------------------------------------------------------------------
# Sufficient statistics
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=20))
def test_intercept_only_reduces_to_mean(ys):
    y = np.asarray(ys)
    beta_hat, s = sufficient_statistics(np.ones((len(ys), 1)), y)
    assert beta_hat[0] == pytest.approx(y.mean(), abs=1e-9 * (1 + abs(y.mean())))
    assert s == pytest.approx(((y - y.mean()) ** 2).sum(), rel=1e-9, abs=1e-9)


def test_exact_fit_gives_zero_rss(rng):
    X = rng.standard_normal((8, 2))
    y = X @ np.array([1.5, -2.0])
    _, s = sufficient_statistics(X, y)
    assert s == pytest.approx(0.0, abs=1e-18)


def test_matches_qr_oracle(rng):
    X, y = rng.standard_normal((10, 3)), rng.standard_normal(10)
    beta_hat, s = sufficient_statistics(X, y)
    # Independent least squares route: Householder QR.
    q, r = np.linalg.qr(X)
    beta_qr = np.linalg.solve(r, q.T @ y)
    assert np.abs(beta_hat - beta_qr).max() < 1e-10
    resid = y - X @ beta_qr
    assert s == pytest.approx(float(resid @ resid), abs=1e-10)


def test_rank_deficient_design_rejected(rng):
    X = rng.standard_normal((10, 3))
    X[:, 2] = X[:, 0] + X[:, 1]
    with pytest.raises(RankDeficiencyError):
        sufficient_statistics(X, rng.standard_normal(10))


@pytest.mark.parametrize("X, y", [
    (np.ones(5), np.ones(5)),  # X is not a matrix
    (np.ones((3, 3)), np.ones(3)),  # n = k
    (np.eye(5, 2), np.ones(4)),  # y does not match the rows of X
    (np.eye(5, 2), np.array([1.0, np.nan, 0.0, 0.0, 0.0])),
    (np.where(np.eye(5, 2) == 1, np.inf, 0.0), np.ones(5)),
])
def test_sufficient_statistics_input_checks(X, y):
    with pytest.raises(ValueError):
        sufficient_statistics(X, y)


# ---------------------------------------------------------------------------
# Canonicalization
# ---------------------------------------------------------------------------


def test_as1_reduction_exact(as1_xtilde):
    problem = as1_problem(as1_xtilde, 4)
    assert problem.case == "I"
    assert np.all(problem.d == 0.25)
    assert problem.n == 12 and problem.l == 3
    q_expected = as1_xtilde @ np.linalg.inv(sqrtm(as1_xtilde.T @ as1_xtilde))
    assert np.abs(problem.Q - q_expected).max() < 1e-9
    # generic path on the stacked design agrees within tolerance
    X = as1_design(as1_xtilde, 4)
    generic = canonicalize(X, as1_xtilde)
    assert np.abs(generic.d - 0.25).max() < 1e-10


def test_case1_invariants_random(rng):
    for _ in range(20):
        k = int(rng.integers(1, 5))
        m = k + int(rng.integers(0, 4))
        n = k + int(rng.integers(3, 10))
        X, Xt = random_design(rng, n, k, m)
        problem = canonicalize(X, Xt)
        assert problem.case == "I"
        report = invariant_report(problem, X, Xt)
        assert report["all_pass"], report


def test_case2_invariants_random(rng):
    for _ in range(20):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, k))
        n = k + int(rng.integers(3, 10))
        X, Xt = random_design(rng, n, k, m)
        problem = canonicalize(X, Xt)
        assert problem.case == "II"
        report = invariant_report(problem, X, Xt)
        assert report["all_pass"], report


@pytest.mark.parametrize("m", [5, 2])
def test_invariant_report_detects_wrong_transform(rng, m):
    # k = 3: m = 5 is case I, m = 2 is case II
    X, Xt = random_design(rng, 12, 3, m)
    problem = canonicalize(X, Xt)
    assert invariant_report(problem, X, Xt)["all_pass"]
    T = problem.coef_transform.copy()
    T[0] += 1e-6
    Q = problem.Q.copy()
    Q[:, 0] *= -1.0
    for wrong in (replace(problem, d=problem.d * (1 + 1e-6)),
                  replace(problem, coef_transform=T),
                  replace(problem, Q=Q)):
        assert not invariant_report(wrong, X, Xt)["all_pass"]


def test_case2_two_dim_example(rng):
    # X with X'X = I_2, future row (1, 0): l = 1, d = 1, complement spans e2.
    X, _ = np.linalg.qr(rng.standard_normal((6, 2)))
    problem = canonicalize(X, np.array([[1.0, 0.0]]))
    assert problem.case == "II" and problem.l == 1
    assert problem.d[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(problem.Q[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert problem.Q[0, 0] > 0  # sign convention
    xts = problem.coef_transform[1]
    assert abs(xts[0]) < 1e-12 and abs(abs(xts[1]) - 1.0) < 1e-12


def test_square_orthogonal_xtilde_identity_covariance(rng):
    # Xtilde orthogonal and X'X = I_k: D = I, Q column-orthonormal.
    k = 3
    X, _ = np.linalg.qr(rng.standard_normal((9, k)))
    Xt, _ = np.linalg.qr(rng.standard_normal((k, k)))
    problem = canonicalize(X, Xt)
    assert np.abs(problem.d - 1.0).max() < 1e-10
    assert np.abs(problem.Q.T @ problem.Q - np.eye(k)).max() < 1e-12


def test_d_sorted_descending_with_stable_ties(rng):
    X, Xt = random_design(rng, 15, 4, 6)
    problem = canonicalize(X, Xt)
    assert np.all(np.diff(problem.d) <= 0)


def test_conditioning_warning_attached(rng):
    X = rng.standard_normal((10, 2))
    X[:, 1] *= 1e-7  # cond(X'X) ~ 1e14, past the warning threshold
    problem = canonicalize(X, rng.standard_normal((3, 2)))
    assert problem.conditioning_warning is not None
    assert "condition number" in problem.conditioning_warning


@pytest.mark.parametrize("cond_x", [1e8, 1e9])
def test_cond_xtx_is_exact_past_one_over_eps(rng, cond_x):
    # X = U diag(sv) V' with cond(X) = cond_x, so cond(X'X) = cond_x^2; X'X formed in floating
    # point would saturate near 1/eps = 4.5e15
    U = np.linalg.qr(rng.standard_normal((20, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    X = (U * np.array([1.0, 1e-3, 1.0 / cond_x])) @ V.T
    problem = canonicalize(X, rng.standard_normal((4, 3)))
    assert problem.cond_xtx == pytest.approx(cond_x**2, rel=1e-4)


def test_rank_deficient_xtilde_rejected(rng):
    X = rng.standard_normal((10, 3))
    row = rng.standard_normal(3)
    Xt = np.vstack([np.ones(3), np.ones(3), row, row])  # rank 2 < min(m, k)
    with pytest.raises(RankDeficiencyError):
        canonicalize(X, Xt)


def test_problem_constructor_validation():
    from shrinkpred.canonical import CanonicalProblem

    ok = dict(n=10, k=2, m=2, Q=np.eye(2), coef_transform=np.eye(2))
    CanonicalProblem(d=np.array([2.0, 1.0]), **ok)
    with pytest.raises(ValueError):
        CanonicalProblem(d=np.array([1.0, 2.0]), **ok)  # increasing
    with pytest.raises(ValueError):
        CanonicalProblem(d=np.array([1.0, -1.0]), **ok)
    with pytest.raises(ValueError):
        CanonicalProblem(d=np.array([2.0, 1.0]), n=10, k=2, m=2,
                         Q=np.full((2, 2), 0.9), coef_transform=np.eye(2))
    # every comparison with NaN is false, so the checks above would let one through
    for name, value in (("d", np.array([2.0, np.nan])), ("Q", np.array([[1.0, 0.0], [0.0, np.nan]])),
                        ("coef_transform", np.array([[1.0, np.inf], [0.0, 1.0]]))):
        with pytest.raises(ValueError, match=f"^{name} must hold finite numbers"):
            CanonicalProblem(**{**ok, "d": np.array([2.0, 1.0]), name: value})
    # S needs residual degrees of freedom, and cond_xtx is a ratio of ordered singular values
    for name, value, message in (("n", 2, "n must exceed k"), ("cond_xtx", np.nan, "cond_xtx must be"),
                                 ("cond_xtx", np.inf, "cond_xtx must be"), ("cond_xtx", 0.99, "cond_xtx must be")):
        with pytest.raises(ValueError, match=f"^{message}"):
            CanonicalProblem(**{**ok, "d": np.array([2.0, 1.0]), name: value})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ["v", "v_star", "s"])
def test_observation_rejects_statistics_that_are_not_finite(key, bad):
    # a nan or an infinity used to reach the rules, which returned a nan density or blamed a quadrature certificate
    one = {"v": np.array([1.0, -0.5, 0.3]), "v_star": np.array([0.2]), "s": np.array(7.5)}
    block = {name: np.stack([value] * 3) for name, value in one.items()}
    for obs in (one, block):
        bad_obs = {**obs, key: obs[key].copy()}
        bad_obs[key][(-1,) * bad_obs[key].ndim] = bad   # the last entry: one observation's, or the block's last row
        with pytest.raises(ValueError, match=f"^{key} must hold finite numbers$"):
            CanonicalObservation(**bad_obs)
        CanonicalObservation(**obs)


def test_problem_json_round_trip(as1_problem_n12):
    doc = problem_to_dict(as1_problem_n12)
    back = problem_from_dict(doc)
    assert np.array_equal(back.d, as1_problem_n12.d)
    assert np.array_equal(back.Q, as1_problem_n12.Q)
    assert np.array_equal(back.coef_transform, as1_problem_n12.coef_transform)
    assert back.case == "I" and back.n == 12
    assert sorted(doc) == ["Q", "case", "coef_transform", "cond_xtx", "conditioning_warning", "d", "k", "l", "m", "n"]
    # documents that still carry the per-case matrices load as before
    old = problem_from_dict(dict(doc, M=doc["coef_transform"], P=None, P_star=None, Xtilde_star=None))
    assert np.array_equal(old.coef_transform, as1_problem_n12.coef_transform)


def test_conditioning_warning_follows_cond_xtx(as1_problem_n12):
    # a document whose warning disagrees with its cond_xtx loads with the warning cond_xtx implies
    doc = problem_to_dict(as1_problem_n12)
    ill = problem_from_dict(dict(doc, cond_xtx=1e14, conditioning_warning=None))
    assert ill.conditioning_warning == "condition number of X'X is 1.000e+14, above 1.0e+12"
    assert problem_to_dict(ill)["conditioning_warning"] == ill.conditioning_warning
    assert problem_from_dict(dict(doc, conditioning_warning="stale")).conditioning_warning is None


# ---------------------------------------------------------------------------
# Coordinate maps
# ---------------------------------------------------------------------------


def test_identity_transform_passes_beta_through(rng):
    # Xtilde = I and X'X diagonal make the diagonalizer the identity.
    scales = np.array([1.0, 2.0, 3.0])
    X = np.linalg.qr(rng.standard_normal((9, 3)))[0] * np.sqrt(scales)
    problem = canonicalize(X, np.eye(3))
    assert np.abs(problem.coef_transform - np.eye(3)).max() < 1e-10
    y = rng.standard_normal(9)
    beta_hat, s = sufficient_statistics(X, y)
    obs = to_canonical(problem, beta_hat, s)
    assert np.abs(obs.v - beta_hat).max() < 1e-12
    assert obs.v_star.size == 0
    params = params_to_canonical(problem, np.array([1.0, 0.0, 0.0]), 1.0)
    assert np.abs(params.theta - np.array([1.0, 0.0, 0.0])).max() < 1e-12


def test_prediction_mean_round_trip(rng):
    for _ in range(10):
        X, Xt = random_design(rng, 12, 3, 5)
        problem = canonicalize(X, Xt)
        y = rng.standard_normal(12)
        beta_hat, s = sufficient_statistics(X, y)
        obs = to_canonical(problem, beta_hat, s)
        assert np.abs(problem.Q @ obs.v - Xt @ beta_hat).max() < 1e-10


def test_replicated_design_takes_whole_copies_only():
    # n = N m counts whole copies while d = 1/N would not: N = 2.5 used to give n = 6 with d = 0.4
    for build in (as1_design, as1_problem):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            build(np.eye(3), 2.5)


def test_as1_single_replicate_matrix_root(rng):
    xt = rng.standard_normal((4, 3))  # m > k, so that one replicate leaves n - k = 1
    problem = as1_problem(xt, 1)
    beta_hat = rng.standard_normal(3)
    v = problem.coef_transform @ beta_hat
    root = sqrtm(xt.T @ xt)  # independent matrix square root
    assert np.abs(v - root @ beta_hat).max() < 1e-9


def test_params_zero_beta(case2_problem_n12):
    params = params_to_canonical(case2_problem_n12, np.zeros(3), 2.0)
    assert np.all(params.theta == 0) and np.all(params.mu == 0)
    assert params.eta == 0.5


def test_params_nonpositive_sigma2_rejected(case2_problem_n12):
    with pytest.raises(ValueError):
        params_to_canonical(case2_problem_n12, np.zeros(3), 0.0)


CAP_MESSAGE = re.escape(f"must be at most {THETA_OVER_SIGMA_MAX:g} sigma")
RANGE_MESSAGE = re.escape(f"sigma2 must be in [{SIGMA2_RANGE[0]:g}, {SIGMA2_RANGE[1]:g}]")


@pytest.mark.parametrize("part", ["theta", "mu"])
@pytest.mark.parametrize("s2", [1.0, 4.0, SIGMA2_RANGE[0]])
def test_canonical_params_hold_theta_and_mu_to_the_cap(part, s2):
    # past the cap V = theta + sigma sqrt(d) z (and V* = mu + sigma z*) rounds the noise away
    def params(ratio):  # l = 1, k - l = 2
        vec = np.array([ratio * math.sqrt(s2), 0.0])
        theta, mu = (vec[:1], np.zeros(2)) if part == "theta" else (np.zeros(1), vec)
        return CanonicalParams(theta=theta, mu=mu, eta=1.0 / s2)

    at_cap = params(THETA_OVER_SIGMA_MAX)
    assert np.linalg.norm(getattr(at_cap, part)) * math.sqrt(at_cap.eta) == pytest.approx(THETA_OVER_SIGMA_MAX)
    for ratio in (THETA_OVER_SIGMA_MAX * (1.0 + 1e-9), 1e12, 1e16):
        with pytest.raises(ValueError, match=rf"^\|{part}\| {CAP_MESSAGE}, got "):
            params(ratio)


def test_canonical_params_hold_sigma2_to_its_range():
    lo, hi = SIGMA2_RANGE
    for s2 in (lo, hi):
        assert CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0 / s2).sigma2 == s2
    for s2 in (lo * (1.0 - 1e-9), hi * (1.0 + 1e-9), 1e-200, 1e200, 2.0**-600):
        with pytest.raises(ValueError, match=f"^{RANGE_MESSAGE}, got "):
            CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0 / s2)
    for eta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=eta)


def test_params_to_canonical_keeps_to_the_scale_bounds(case2_problem_n12):
    problem, lo, hi = case2_problem_n12, *SIGMA2_RANGE
    for s2 in (lo, 1.0, hi):
        assert params_to_canonical(problem, np.zeros(3), s2).eta == 1.0 / s2
    for s2 in (1e-200, 1e200, lo * (1.0 - 1e-9), hi * (1.0 + 1e-9)):
        with pytest.raises(ValueError, match=f"^{RANGE_MESSAGE}, got {re.escape(repr(s2))}$"):
            params_to_canonical(problem, np.zeros(3), s2)
    # beta far from zero puts theta (and mu, in case II) past the cap at sigma2 = 1
    with pytest.raises(ValueError, match=CAP_MESSAGE):
        params_to_canonical(problem, np.full(3, 1e12), 1.0)


def test_case2_transform_whitens_coefficient_covariance(case2_problem_n12, case2_design):
    # Cov of (V; V*) is sigma^2 T (X'X)^{-1} T', which must be blockdiag(D, I).
    problem = case2_problem_n12
    X, _ = case2_design
    T = problem.coef_transform
    cov = T @ np.linalg.inv(X.T @ X) @ T.T
    want = np.diag(np.concatenate([problem.d, np.ones(2)]))
    assert np.abs(cov - want).max() < 1e-10


def test_case2_canonical_moments_by_simulation(case2_problem_n12, case2_design):
    # E[V] = theta, E[V*] = mu for the transformed least squares estimate.
    problem = case2_problem_n12
    rng_local = np.random.default_rng(777)
    X, xt = case2_design
    beta = np.array([0.7, -1.2, 0.4])
    sigma = 0.8
    params = params_to_canonical(problem, beta, sigma**2)
    reps = 4000
    vs = np.empty((reps, 1))
    vss = np.empty((reps, 2))
    for i in range(reps):
        y = X @ beta + sigma * rng_local.standard_normal(12)
        obs = to_canonical(problem, *sufficient_statistics(X, y))
        vs[i] = obs.v
        vss[i] = obs.v_star
    se_v = vs.std(ddof=1, axis=0) / np.sqrt(reps)
    se_vs = vss.std(ddof=1, axis=0) / np.sqrt(reps)
    assert np.all(np.abs(vs.mean(0) - params.theta) < 3 * se_v)
    assert np.all(np.abs(vss.mean(0) - params.mu) < 3 * se_vs)


# ---------------------------------------------------------------------------
# Observation sampling
# ---------------------------------------------------------------------------


def test_replication_rng_rejects_keys_beyond_64_bits():
    # each key word is 64 bits wide: 2^64 would alias 0, and -1 would alias 2^64 - 1
    top = 2**64 - 1
    for seed, index in ((2**64, 0), (-1, 0), (0, 2**64), (0, -1)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            replication_rng(seed, index)
    edge = replication_rng(top, top).standard_normal(4)
    assert not np.array_equal(edge, replication_rng(0, 0).standard_normal(4))
    assert not np.array_equal(replication_rng(top, 0).standard_normal(4), replication_rng(0, 0).standard_normal(4))


def test_simulation_deterministic(as1_problem_n12):
    a = simulate_observation(as1_problem_n12, seed=9)[3]
    b = simulate_observation(as1_problem_n12, seed=9)[3]
    assert np.array_equal(a.v, b.v) and a.s == b.s
    c = simulate_observation(as1_problem_n12, seed=9)[4]
    assert not np.array_equal(a.v, c.v)


@settings(deadline=None, max_examples=5)
@given(st.integers(0, 2**63 - 1))
def test_simulation_deterministic_any_seed(as1_problem_n12, seed):
    a = simulate_observation(as1_problem_n12, seed=seed)
    b = simulate_observation(as1_problem_n12, seed=seed)
    assert np.array_equal(a.v, b.v) and np.array_equal(a.v_star, b.v_star) and np.array_equal(a.s, b.s)


def test_simulation_blocks_and_seeds_distinct(case2_problem_n12):
    draws = [simulate_observation(case2_problem_n12, seed, block) for seed, block in ((5, 0), (5, 1), (6, 0), (6, 1))]
    for obs in draws:
        assert obs.v.shape == (BLOCK_SIZE, 1) and obs.v_star.shape == (BLOCK_SIZE, 2)
        assert obs.s.shape == (BLOCK_SIZE,)
    rows = np.vstack([np.column_stack([obs.v, obs.v_star, obs.s]) for obs in draws])
    assert np.unique(rows, axis=0).shape[0] == rows.shape[0]


def test_simulation_moments(as1_problem_n12):
    # the origin block: V ~ N(0, D) and S ~ chi2_{n-k}, and its translate to theta has mean theta
    problem = as1_problem_n12
    reps = 100_000
    obs = simulate_rows(problem, seed=11, reps=reps)
    vs, ss = obs.v, obs.s
    # means of V, and of its translate, within 4 SE componentwise
    se = vs.std(ddof=1, axis=0) / np.sqrt(reps)
    assert np.all(np.abs(vs.mean(0)) < 4 * se)
    theta = np.array([0.5, -1.0, 2.0])
    assert np.all(np.abs(translate(obs, theta).v.mean(0) - theta) < 4 * se)
    # mean of S within 4 SE of n-k
    se_s = ss.std(ddof=1) / np.sqrt(reps)
    assert abs(ss.mean() - 9.0) < 4 * se_s
    # empirical covariance of V matches D within 4 SE
    cov = np.cov(vs.T)
    target = np.diag(problem.d)
    var_se = np.sqrt(2.0 / (reps - 1)) * np.diag(target)
    assert np.all(np.abs(np.diag(cov) - np.diag(target)) < 4 * var_se)
    off = cov - np.diag(np.diag(cov))
    off_se = np.sqrt(np.outer(np.diag(target), np.diag(target)) / reps)
    assert np.all(np.abs(off) < 4 * off_se + np.eye(3))


def test_case2_simulation_dimensions(case2_problem_n12):
    obs = simulate_observation(case2_problem_n12, seed=0)[0]
    assert obs.v.shape == (1,) and obs.v_star.shape == (2,) and obs.s > 0


@pytest.mark.parametrize("width", range(10))
def test_row_dot_is_numpy_row_sum_bit_for_bit(width):
    # the alpha = 1 losses and the shrinkage factorization sum short rows with _row_dot; their bytes in
    # risk_compare.csv stay those of np.sum(a * b, axis=-1) only while numpy adds such rows left to right
    rng = np.random.default_rng(width)
    a = rng.standard_normal((BLOCK_SIZE, width)) * 10.0 ** rng.uniform(-8, 8, (BLOCK_SIZE, width))
    b = rng.standard_normal((BLOCK_SIZE, width))
    for x, y in ((a, b), (a, a), (a[:, ::-1], b[::-1]), (a[0], b[0]), (a[:5], b[0])):
        got, want = _row_dot(x, y), np.sum(x * y, axis=-1)
        assert type(got) is type(want) and np.array_equal(got, want)
