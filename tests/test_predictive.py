"""Density constructions: shrinkage factorization, normalizers, plug-in rules."""

import math
import re

import numpy as np
import pytest
import scipy.special
from scipy import integrate, stats

from shrinkpred.bounds import nu_limits
import shrinkpred.quad as quad_module
from shrinkpred.canonical import (
    STREAM_DESIGN,
    CanonicalObservation,
    as1_problem,
    canonicalize,
    replication_rng,
    simulate_observation,
)
from shrinkpred.identities import lemma_identity_residual
from shrinkpred.predictive import (
    DegenerateObservationError,
    PriorSpec,
    alpha_limit_check,
    best_invariant_kernel,
    plugin_bayes_estimators,
    shrinkage_bayes_kernel,
    shrinkage_components,
    stein_variance,
    stein_variance_star,
    umvu_estimators,
)
from shrinkpred.quad import UnreliableNormalizationError

from conftest import synthetic_problem, translate
from oracles import log_marginal_kernel, normalize_density, sample


@pytest.fixture(scope="module")
def prob_m1():
    return synthetic_problem(n=6, k=1, m=1, d=[0.8])


@pytest.fixture(scope="module")
def prob_rot():
    """m = 4, k = l = 2 with a random orthonormal Q and unequal d."""
    Q = np.linalg.qr(np.random.default_rng(2718).standard_normal((4, 2)))[0]
    return synthetic_problem(n=10, k=2, m=4, d=[2.5, 0.4], Q=Q)


@pytest.fixture(scope="module")
def obs_rot():
    return CanonicalObservation(v=np.array([0.7, -1.2]), v_star=np.zeros(0), s=3.3)


def dense_scale(problem, alpha, e):
    """The kernel scale matrix 2/(1-alpha) I + Q diag(e) Q', assembled densely."""
    return 2.0 / (1.0 - alpha) * np.eye(problem.m) + (problem.Q * e) @ problem.Q.T


# ---------------------------------------------------------------------------
# Shrinkage factorization components
# ---------------------------------------------------------------------------


def test_components_identity_c_reduction(prob_m3, obs_m3):
    prior = PriorSpec(prob_m3, c=1.0, nu=0.2)
    alpha = 0.3
    e_b, theta_b, r = shrinkage_components(prior, alpha, obs_m3.v)
    c2 = 2.0 / (1.0 - alpha)
    assert np.all(theta_b == 0)
    assert np.abs(dense_scale(prob_m3, alpha, e_b) - c2 * np.eye(3)).max() < 1e-12
    assert r == pytest.approx(float(obs_m3.v @ (obs_m3.v / prob_m3.d)), rel=1e-12)


def test_components_zero_v(prob_m3):
    prior = PriorSpec(prob_m3, c=2.5, nu=0.2)
    _, theta_b, r = shrinkage_components(prior, -0.5, np.zeros(3))
    assert np.all(theta_b == 0)
    assert r == 0.0


def test_shrinkage_never_expands():
    # random search for a counterexample to |theta_b| <= |v|
    rng = np.random.default_rng(5150)
    for _ in range(200):
        l = int(rng.integers(1, 5))
        d = np.sort(rng.uniform(0.05, 5.0, l))[::-1]
        problem = synthetic_problem(n=20, k=l, m=l, d=d)
        prior = PriorSpec(problem, c=rng.uniform(1.0, 6.0, l), nu=rng.uniform(0.01, 2.0))
        alpha = rng.uniform(-1.0, 0.999)
        v = rng.standard_normal(l) * rng.uniform(0.1, 10.0)
        _, theta_b, _ = shrinkage_components(prior, alpha, v)
        assert np.linalg.norm(theta_b) <= np.linalg.norm(v) + 1e-12
        assert np.all(np.abs(theta_b) <= np.abs(v) + 1e-12)


def test_alpha_one_rejected(prob_m3, obs_m3):
    prior = PriorSpec(prob_m3, nu=0.2)
    with pytest.raises(ValueError):
        shrinkage_components(prior, 1.0, obs_m3.v)


def test_prior_derived_quantities(prob_m3):
    prior = PriorSpec(prob_m3, nu=0.2)
    assert prior.a == pytest.approx(-1.6, rel=1e-14)
    for nu in (0.0, -1.0 / 9.0):  # at or below the integrability floor a > -k/2 - 1
        with pytest.raises(ValueError, match="nu must be positive"):
            PriorSpec(prob_m3, nu=nu)
    with pytest.raises(ValueError):
        PriorSpec(prob_m3, c=0.5, nu=0.2)
    with pytest.raises(ValueError):
        PriorSpec(prob_m3, nu=0.2, gamma_prior=0.5)


def test_a_prior_rejects_a_nu_whose_exponent_is_not_finite(as1_problem_n12, obs_m3):
    # n - k = 9: at nu = 1e308, nu (n - k) overflows and a = inf; at 1e306 a is finite, but at alpha = 0.999
    # B = nu (n - k)/(1 - alpha) is not, and the shrinkage constant's certificate fails instead of giving nan
    problem = as1_problem_n12
    for build in (PriorSpec, PriorSpec.minimax_default):
        with pytest.raises(ValueError, match=r"^nu must leave the prior exponent a = .* finite, got 1e\+308$"):
            build(problem, nu=1e308)
    prior = PriorSpec(problem, nu=1e306)
    assert math.isfinite(prior.a)
    with pytest.raises(UnreliableNormalizationError, match="not finite"):
        shrinkage_bayes_kernel(prior, obs_m3, 0.999)


@pytest.mark.parametrize("nu", [0.1, 0.2])
def test_B_is_formed_from_nu_alone(as1_problem_n12, obs_m3, nu):
    # with n - k = 9, nu (n - k) and k + 2a + 2 round apart at these nu (0.9 against 0.9000000000000004 at 0.1);
    # B used to be formed from a, which rounds k + 2a + 2 to 0 once nu is 1e-17 or less
    problem, prior = as1_problem_n12, PriorSpec(as1_problem_n12, nu=nu)
    assert prior.nu * (problem.n - problem.k) != problem.k + 2 * prior.a + 2
    for alpha in (-1.0, 0.0, 0.5):
        B = shrinkage_bayes_kernel(prior, obs_m3, alpha).B
        assert B == prior.nu * (problem.n - problem.k) / (1 - alpha)


@pytest.mark.parametrize("N, B", [(4, 2.7), (20, 17.1)])
def test_the_prior_reads_n_and_k_from_its_own_problem(as1_xtilde, N, B):
    # B = nu (n - k)/(1 - alpha): n = 12 gives 2.7 at nu = 0.3, n = 60 gives 17.1;
    # the kernel takes no second problem that could pair one design's prior with another's n
    problem = as1_problem(as1_xtilde, N)
    prior = PriorSpec(problem, nu=0.3)
    assert prior.problem is problem
    obs = CanonicalObservation(v=np.array([0.5, -0.2, 1.0]), v_star=np.zeros(0), s=8.0)
    block = CanonicalObservation(v=np.array([[0.5, -0.2, 1.0], [0.1, 0.3, -0.4]]), v_star=np.zeros((2, 0)),
                                 s=np.array([8.0, 5.0]))
    for alpha in (0.0, 0.5):
        kernel = shrinkage_bayes_kernel(prior, obs, alpha)
        assert kernel.B == prior.nu * (problem.n - problem.k) / (1 - alpha)
        assert kernel.dof == 2 * (problem.n - problem.k) / (1 - alpha)
        # the kernel holds the problem itself, not copies of its Q, d or n - k, and indexing keeps it
        for built in (kernel, best_invariant_kernel(problem, obs, alpha)):
            assert built.problem is problem
        for built in (shrinkage_bayes_kernel(prior, block, alpha), best_invariant_kernel(problem, block, alpha)):
            assert built.problem is problem and built[1].problem is problem and built[:1].problem is problem
    assert shrinkage_bayes_kernel(prior, obs, 0.0).B == pytest.approx(B, rel=1e-14)


def test_a_shrinkage_constant_whose_log_gamma_overflows_raises(as1_problem_n12):
    # at nu = 1e306 the exponent a is finite but P = A + B - m/2 = 9e306, and math.lgamma(P) used to raise OverflowError
    prior = PriorSpec(as1_problem_n12, nu=1e306)
    obs = CanonicalObservation(v=np.array([1.0, -0.5, 0.3]), v_star=np.zeros(0), s=7.5)
    with pytest.raises(UnreliableNormalizationError, match="lnGamma"):
        shrinkage_bayes_kernel(prior, obs, 0.0)


def test_default_nu_needs_positive_bounds():
    # nu1 = -0.155 at C = I: the domination cap is no prior until C is rescaled or nu is set
    problem = synthetic_problem(n=12, k=3, m=1, d=[1.0])
    assert nu_limits(problem, 1.0).nu1 == pytest.approx(-0.155, abs=5e-4)
    with pytest.raises(ValueError, match=r"^nu bounds are not positive; rescale C or set nu explicitly$"):
        PriorSpec(problem)
    assert PriorSpec(problem, nu=0.2).nu == 0.2
    assert PriorSpec.minimax_default(problem).nu > 0


# ---------------------------------------------------------------------------
# Best invariant density
# ---------------------------------------------------------------------------


def test_best_invariant_at_center(prob_m3, obs_m3):
    alpha = -0.4
    got = best_invariant_kernel(prob_m3, obs_m3, alpha).log_unnormalized(prob_m3.Q @ obs_m3.v)
    expo = -prob_m3.m / 2.0 - (prob_m3.n - prob_m3.k) / (1.0 - alpha)
    assert got == pytest.approx(expo * math.log(obs_m3.s), rel=1e-12)


def test_best_invariant_maximized_at_center(prob_m3, obs_m3, rng):
    center = prob_m3.Q @ obs_m3.v
    kernel = best_invariant_kernel(prob_m3, obs_m3, 0.2)
    peak = kernel.log_unnormalized(center)
    for _ in range(25):
        assert kernel.log_unnormalized(center + rng.standard_normal(3)) < peak


@pytest.mark.parametrize("alpha", [-1.0, -0.4, 0.0, 0.3, 0.9])
def test_best_invariant_constant_matches_scipy_gammaln(prob_m3, prob_rot, obs_m3, obs_rot, alpha):
    # the constant uses math.lgamma; scipy's gammaln formula is the oracle
    for problem, obs in ((prob_m3, obs_m3), (prob_rot, obs_rot)):
        m, dof = problem.m, 2.0 * (problem.n - problem.k) / (1.0 - alpha)
        _, logdet = np.linalg.slogdet(dense_scale(problem, alpha, problem.d))
        want = (scipy.special.gammaln((dof + m) / 2.0) - scipy.special.gammaln(dof / 2.0)
                - m / 2.0 * math.log(math.pi) - 0.5 * logdet + dof / 2.0 * math.log(obs.s))
        assert best_invariant_kernel(problem, obs, alpha).log_const == pytest.approx(want, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("kind", ["best_invariant", "shrinkage_bayes"])
def test_far_points_have_zero_density(prob_rot, obs_rot, kind):
    # |y|^2 overflows at these points: the density is 0 (log -inf), not nan, and
    # RuntimeWarnings are errors here; finite points keep their values
    if kind == "best_invariant":
        kernel = best_invariant_kernel(prob_rot, obs_rot, 0.3)
    else:
        kernel = shrinkage_bayes_kernel(PriorSpec.minimax_default(prob_rot), obs_rot, 0.3)
    near = np.array([[0.5, -1.0, 2.0, 0.1], [3.0, 0.0, -4.0, 1e-3]])
    far = np.array([[1e200, 0.0, 0.0, 0.0], [0.0, -1e300, 1.0, 0.0], [1e300, 1e300, -1e300, 1e300],
                    [np.inf, 0.0, 0.0, 0.0], [0.0, -np.inf, 0.0, np.inf]])
    got = kernel.log_density(np.vstack([near, far]))
    assert np.all(got[len(near):] == -np.inf)
    assert np.array_equal(got[:len(near)], kernel.log_density(near))
    assert math.isnan(kernel.log_density(np.array([np.nan, 0.0, 0.0, 0.0])))
    # squares overflow but the form does not: the scaled form is 1e308-scale and finite
    huge = kernel.log_density(np.full(4, 1e154))
    big = kernel.log_density(np.full(4, 1e150))
    assert math.isfinite(huge) and huge == pytest.approx(big - 2.0 * (kernel.A + kernel.B) * math.log(1e4), rel=1e-12)


def test_univariate_t_oracle(prob_m1, prob_rot, obs_rot, rng):
    # alpha = -1, m = 1: normalized density is Student t with n-k dof.
    obs = CanonicalObservation(v=np.array([0.6]), v_star=np.zeros(0), s=1.7)
    q = prob_m1.n - prob_m1.k
    sigma_u = 2.0 / 2.0 + prob_m1.d[0]
    scale = math.sqrt(obs.s * sigma_u / q)
    dens = best_invariant_kernel(prob_m1, obs, -1.0)
    for y in np.linspace(-4.0, 5.0, 11):
        want = stats.t.logpdf(y, df=q, loc=obs.v[0], scale=scale)
        assert dens.log_density(np.array([y])) == pytest.approx(want, abs=1e-10)
    # rotated Q, unequal d: multivariate t, dof 2(n-k)/(1-alpha), shape (s/dof) sigma_u
    for alpha in (-1.0, 0.3):
        dof = 2.0 * (prob_rot.n - prob_rot.k) / (1.0 - alpha)
        oracle = stats.multivariate_t(loc=prob_rot.Q @ obs_rot.v, df=dof,
                                      shape=obs_rot.s / dof * dense_scale(prob_rot, alpha, prob_rot.d))
        ys = 2.0 * rng.standard_normal((20, 4))
        got = best_invariant_kernel(prob_rot, obs_rot, alpha).log_density(ys)
        assert np.abs(got - oracle.logpdf(ys)).max() < 1e-10


def test_normalizer_m1_quadrature(prob_m1):
    obs = CanonicalObservation(v=np.array([-0.3]), v_star=np.zeros(0), s=2.2)
    for alpha in (-1.0, 0.0, 0.7):
        kernel = best_invariant_kernel(prob_m1, obs, alpha)
        total, _ = integrate.quad(
            lambda y: math.exp(kernel.log_unnormalized(np.array([y])) + kernel.log_const),
            -np.inf, np.inf,
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def test_normalizer_location_invariant(prob_m3):
    s = 3.1
    a = best_invariant_kernel(prob_m3, CanonicalObservation(np.zeros(3), np.zeros(0), s), 0.3).log_const
    b = best_invariant_kernel(prob_m3, CanonicalObservation(np.array([5.0, -2.0, 1.0]), np.zeros(0), s),
                              0.3).log_const
    assert a == b


def test_degenerate_observation_rejected(prob_m3):
    obs0 = CanonicalObservation(v=np.zeros(3), v_star=np.zeros(0), s=0.0)
    with pytest.raises(DegenerateObservationError):
        best_invariant_kernel(prob_m3, obs0, 0.0)


PRIOR_RULES = (plugin_bayes_estimators, shrinkage_bayes_kernel)
KERNEL_RULES = (best_invariant_kernel, shrinkage_bayes_kernel)


@pytest.mark.parametrize("rows", [None, 4], ids=["single", "block"])
@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("rule", [umvu_estimators, stein_variance, stein_variance_star, plugin_bayes_estimators,
                                  best_invariant_kernel, shrinkage_bayes_kernel], ids=lambda rule: rule.__name__)
def test_every_rule_checks_that_the_observation_fits_its_problem(as1_problem_n12, case2_problem_n12, rule, case, rows):
    # a v or v_star of the wrong length used to broadcast or be ignored without a word; on the case-I
    # problem a stray v_star entry went into the shrinkage kernel's o
    problem = as1_problem_n12 if case == "I" else case2_problem_n12
    first = PriorSpec.minimax_default(problem) if rule in PRIOR_RULES else problem
    alpha = (0.0,) if rule in KERNEL_RULES else ()
    l, k, lead = problem.l, problem.k, () if rows is None else (rows,)

    def call(n_v, n_star):
        obs = CanonicalObservation(v=np.full(lead + (n_v,), 0.5), v_star=np.full(lead + (n_star,), 3.0),
                                   s=np.full(lead, 8.0))
        return rule(first, obs, *alpha)

    if not (rule is stein_variance_star and case == "I"):  # the pooled variant needs v_star
        call(l, k - l)
    wrong = [("v", "l", l, n, k - l) for n in (l - 1, l + 1)]
    wrong += [("v_star", "k - l", k - l, l, n) for n in (k - l - 1, k - l + 1) if n >= 0]
    for key, name, size, n_v, n_star in wrong:
        with pytest.raises(ValueError, match=re.escape(f"{key} must have {name} = {size} entries, got shape")):
            call(n_v, n_star)


@pytest.mark.parametrize("alpha", [0.9991, 0.9999, 0.99999, 1.0 - 1e-12])
def test_kernels_reject_alpha_between_the_bound_and_one(prob_m3, alpha):
    # nearer 1 the exact loss cancels terms of size 1/(1 - alpha) and loses digits its certificate cannot see
    obs = CanonicalObservation(v=np.array([0.5, -0.2, 1.0]), v_star=np.zeros(0), s=8.0)
    prior = PriorSpec.minimax_default(prob_m3)
    message = re.escape(f"alpha must lie in [-1, 0.999], got {alpha!r}")
    with pytest.raises(ValueError, match=message):
        best_invariant_kernel(prob_m3, obs, alpha)
    with pytest.raises(ValueError, match=message):
        shrinkage_bayes_kernel(prior, obs, alpha)
    for kernel in (best_invariant_kernel(prob_m3, obs, 0.999), shrinkage_bayes_kernel(prior, obs, 0.999)):
        assert kernel.alpha == 0.999


def test_t_sampler_moments(prob_m1, prob_rot, obs_rot):
    obs = CanonicalObservation(v=np.array([1.5]), v_star=np.zeros(0), s=2.0)
    dens = best_invariant_kernel(prob_m1, obs, 0.0)
    ys = sample(dens, replication_rng(3, 0), 200_000)
    se = ys.std(ddof=1) / math.sqrt(ys.size)
    assert abs(ys.mean() - 1.5) < 4 * se
    # rotated Q, unequal d: mean Qv and covariance s/(dof - 2) sigma_u, entry by entry
    alpha = 0.0
    dof = 2.0 * (prob_rot.n - prob_rot.k) / (1.0 - alpha)
    ys = sample(best_invariant_kernel(prob_rot, obs_rot, alpha), replication_rng(4, 0), 200_000)
    mean = prob_rot.Q @ obs_rot.v
    se = ys.std(axis=0, ddof=1) / math.sqrt(len(ys))
    assert np.all(np.abs(ys.mean(axis=0) - mean) < 4 * se)
    cov = obs_rot.s / (dof - 2.0) * dense_scale(prob_rot, alpha, prob_rot.d)
    r = ys - mean
    prods = r[:, :, None] * r[:, None, :]
    se = prods.std(axis=0, ddof=1) / math.sqrt(len(ys))
    assert np.all(np.abs(prods.mean(axis=0) - cov) < 4 * se)


def test_kernel_evaluates_and_samples_one_observation(prob_m3):
    # a block kernel is scored whole by the loss, but evaluated and (by the oracle) sampled one row at a time; that a
    # row alone is its block row is tests/test_risk.py's battery
    prior = PriorSpec(prob_m3, c=[1.0, 1.5, 2.0], nu=0.3)
    block = translate(simulate_observation(prob_m3, 9)[:5], np.array([1.0, -0.5, 0.0]))
    y = np.array([0.3, -1.0, 2.0])
    for kernel in (best_invariant_kernel(prob_m3, block, 0.3), shrinkage_bayes_kernel(prior, block, 0.3)):
        for evaluate in (kernel.log_unnormalized, kernel.log_density):
            with pytest.raises(ValueError, match="one observation"):
                evaluate(y)
        with pytest.raises(ValueError, match="one observation"):
            sample(kernel, replication_rng(1, 0), 10)
    shrink = shrinkage_bayes_kernel(prior, block[0], 0.3)
    with pytest.raises(ValueError, match="no sampler"):
        sample(shrink, replication_rng(1, 0), 10)
    assert sample(best_invariant_kernel(prob_m3, block[0], 0.3), replication_rng(1, 0), 10).shape == (10, 3)


# ---------------------------------------------------------------------------
# Shrinkage density
# ---------------------------------------------------------------------------


def test_factorization_recomposes(prob_m3, obs_m3, prob_rot, obs_rot, rng):
    alpha = -0.3
    prior = PriorSpec(prob_m3, c=[1.0, 2.0, 4.0], nu=0.4)
    e_b, theta_b, r = shrinkage_components(prior, alpha, obs_m3.v)
    sigma_b = dense_scale(prob_m3, alpha, e_b)
    shrink = shrinkage_bayes_kernel(prior, obs_m3, alpha)
    invariant = best_invariant_kernel(prob_m3, obs_m3, alpha)
    for _ in range(10):
        y = rng.standard_normal(3) * 2.0
        full = shrink.log_unnormalized(y)
        first = invariant.log_unnormalized(y)
        rb = y - prob_m3.Q @ theta_b
        quad = float(rb @ np.linalg.solve(sigma_b, rb))
        second = -(prob_m3.k + 2 * prior.a + 2) / (1 - alpha) * math.log(quad + r + obs_m3.s)
        assert full == pytest.approx(first + second, rel=1e-12)
    # rotated Q, unequal d: both factors against dense solves
    prior = PriorSpec(prob_rot, c=[1.5, 3.0], nu=0.4)
    e_b, theta_b, r = shrinkage_components(prior, alpha, obs_rot.v)
    sigma_u = dense_scale(prob_rot, alpha, prob_rot.d)
    sigma_b = dense_scale(prob_rot, alpha, e_b)
    q = prob_rot.n - prob_rot.k
    shrink = shrinkage_bayes_kernel(prior, obs_rot, alpha)
    invariant = best_invariant_kernel(prob_rot, obs_rot, alpha)
    for _ in range(10):
        y = rng.standard_normal(4) * 2.0
        ru = y - prob_rot.Q @ obs_rot.v
        rb = y - prob_rot.Q @ theta_b
        quad_u = float(ru @ np.linalg.solve(sigma_u, ru))
        quad_b = float(rb @ np.linalg.solve(sigma_b, rb))
        first = -(prob_rot.m / 2 + q / (1 - alpha)) * math.log(quad_u + obs_rot.s)
        second = -(prob_rot.k + 2 * prior.a + 2) / (1 - alpha) * math.log(quad_b + r + obs_rot.s)
        assert invariant.log_unnormalized(y) == pytest.approx(first, rel=1e-12)
        full = shrink.log_unnormalized(y)
        assert full == pytest.approx(first + second, rel=1e-12)


def test_zero_data_reduction(prob_m3):
    # C = I and v = 0: second factor becomes ((1-alpha)|y|^2/2 + s)^{-(k+2a+2)/(1-alpha)}
    alpha = -1.0
    prior = PriorSpec(prob_m3, c=1.0, nu=4.0 / 9.0)  # a = -1/2
    obs0 = CanonicalObservation(v=np.zeros(3), v_star=np.zeros(0), s=4.0)
    y = np.array([1.0, -2.0, 0.5])
    got = shrinkage_bayes_kernel(prior, obs0, alpha).log_unnormalized(y)
    first = best_invariant_kernel(prob_m3, obs0, alpha).log_unnormalized(y)
    expo = -(prob_m3.k + 2 * prior.a + 2) / (1 - alpha)
    want = first + expo * math.log((1 - alpha) / 2 * float(y @ y) + obs0.s)
    assert got == pytest.approx(want, rel=1e-12)
    assert expo == -(prob_m3.k / 2 + prior.a + 1)  # exponent at alpha = -1


def test_posterior_integral_oracle():
    # m = k = l = 1: the density must match direct quadrature of the
    # hierarchical posterior integral, up to one ytilde-independent constant.
    n, k, m = 6, 1, 1
    alpha, a, d, c = -0.2, 0.0, 0.8, 2.0
    v, s = 0.7, 1.3
    problem = synthetic_problem(n=n, k=k, m=m, d=[d])
    prior = PriorSpec(problem, c=c, nu=(k + 2 * a + 2) / (n - k))
    obs = CanonicalObservation(v=np.array([v]), v_star=np.zeros(0), s=s)
    b_exp = (1 - alpha) * m / 4 + (n - k) / 2 - 1

    def gauss(npt, lo, hi):
        x, w = np.polynomial.legendre.leggauss(npt)
        return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w

    th, wth = gauss(140, -14.0, 14.0)
    eta, weta = gauss(220, 1e-12, 60.0)
    lam, wlam = gauss(140, 1e-12, 1.0 - 1e-12)
    TH, ET, LA = th[:, None, None], eta[None, :, None], lam[None, None, :]
    eta_pow = (1 - alpha) / 4 * m + (n - k) / 2 + 1.0 + a

    def numeric_log(yt):
        quad = (
            (1 - alpha) / 2 * (yt - TH) ** 2
            + s
            + (v - TH) ** 2 / d
            + TH * TH * (1 / d + (1 - alpha) / 2) * LA / (c - LA)
        )
        f = ET**eta_pow * np.exp(-0.5 * ET * quad) * LA ** (0.5 + a) * (1 - LA) ** b_exp * (c - LA) ** -0.5
        val = np.einsum("i,j,k,ijk->", wth, weta, wlam, f)
        return math.log(val) * 2 / (1 - alpha)

    grid = np.array([-2.0, -0.8, 0.0, 0.7, 1.5, 3.0])
    kernel = shrinkage_bayes_kernel(prior, obs, alpha)
    diffs = [numeric_log(yt) - kernel.log_unnormalized(np.array([yt])) for yt in grid]
    assert np.ptp(diffs) < 1e-4


# ---------------------------------------------------------------------------
# Normalization by importance sampling
# ---------------------------------------------------------------------------


def test_self_normalization_is_exact(prob_m1):
    proposal = umvu_estimators(prob_m1, CanonicalObservation(np.array([0.2]), np.zeros(0), 2.0))

    def target(pts):
        return proposal.log_unnormalized(pts) + proposal.log_const

    log_norm_const, rel_se = normalize_density(target, proposal, n_samples=5000, seed=4)
    assert log_norm_const == 0.0
    assert rel_se == 0.0


def test_is_matches_closed_form_constant(prob_m3, obs_m3):
    # Proposal: heavier-tailed invariant density (alpha = -1); target alpha = 0.
    proposal = best_invariant_kernel(prob_m3, obs_m3, -1.0)
    target = best_invariant_kernel(prob_m3, obs_m3, 0.0)
    log_norm_const, rel_se = normalize_density(target.log_unnormalized, proposal, n_samples=60_000, seed=11)
    assert abs(log_norm_const - target.log_const) < 3 * rel_se


def test_se_scales_with_sample_size(prob_m3, obs_m3):
    proposal = best_invariant_kernel(prob_m3, obs_m3, -1.0)
    target = best_invariant_kernel(prob_m3, obs_m3, 0.0).log_unnormalized
    ratios = []
    for seed in range(20):
        _, se_n = normalize_density(target, proposal, 4000, seed)
        _, se_2n = normalize_density(target, proposal, 8000, seed + 1000)
        ratios.append(se_n / se_2n)
    assert np.mean(ratios) == pytest.approx(math.sqrt(2.0), abs=0.12)


def test_ess_guard_trips(prob_m1):
    proposal = umvu_estimators(prob_m1, CanonicalObservation(np.array([0.0]), np.zeros(0), 5.0))
    with pytest.raises(UnreliableNormalizationError):
        normalize_density(lambda pts: np.zeros(pts.shape[0]), proposal, 50_000, seed=8)


def test_normalized_density_integrates_to_one(prob_m3, obs_m3):
    # independent check of the quadrature constant with a fresh seed and proposal
    prior = PriorSpec(prob_m3, c=[1.0, 1.5, 2.0], nu=0.3)
    dens = shrinkage_bayes_kernel(prior, obs_m3, alpha=0.2)
    checker = best_invariant_kernel(prob_m3, obs_m3, -0.5)
    ys = sample(checker, replication_rng(99, 0), 200_000)
    w = np.exp(dens.log_density(ys) - checker.log_density(ys))
    total = w.mean()
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(total - 1.0) < 3 * se


# ---------------------------------------------------------------------------
# Quadrature constant of the shrinkage density
# ---------------------------------------------------------------------------

QUAD_ALPHAS = (-1.0, 0.0, 0.5, 0.9)


def item1_designs():
    """as1 3x3 with N = 4; case II m=1 k=3; case I m=5 k=3; case II m=2 k=4."""
    rng = np.random.default_rng(11)
    return {
        "as1": as1_problem(rng.standard_normal((3, 3)), 4),
        "II_m1_k3": canonicalize(rng.standard_normal((12, 3)), rng.standard_normal((1, 3))),
        "I_m5_k3": canonicalize(rng.standard_normal((10, 3)), rng.standard_normal((5, 3))),
        "II_m2_k4": canonicalize(rng.standard_normal((11, 4)), rng.standard_normal((2, 4))),
    }


def two_observations(problem):
    """One simulated observation at theta = 0 and one at theta = (1, ..., 1)."""
    origin = simulate_observation(problem, 5)
    return [translate(origin[j], np.full(problem.l, float(j))) for j in range(2)]


def far_case():
    """The seed-7 as1 design of the alpha-convergence demo with a far observation."""
    problem = as1_problem(replication_rng(7, 0, stream=STREAM_DESIGN).standard_normal((3, 3)), 4)
    return problem, CanonicalObservation(v=np.array([8.0, -4.0, 6.0]), v_star=np.zeros(0), s=2.0)


def qaws_log_z(problem, prior, obs, alpha):
    """log Z from the w-scale integral, integrated by QUADPACK's algebraic-weight rule.

    The integrand is rebuilt here from the design: weight w^(A-1) (1-w)^(B-1)
    times prod_i p_i(w)^(-1/2) h(w)^(-P), with the constants of the reduction.
    """
    e_b, theta_b, r = shrinkage_components(prior, alpha, obs.v)
    m, l, q = problem.m, problem.l, problem.n - problem.k
    c2 = 2.0 / (1.0 - alpha)
    A, B = m / 2.0 + q / (1.0 - alpha), (problem.k + 2.0 * prior.a + 2.0) / (1.0 - alpha)
    P = A + B - m / 2.0
    su, sb = c2 + problem.d, c2 + e_b
    delta2 = (obs.v - theta_b) ** 2
    o = r + float(obs.v_star @ obs.v_star) / prior.gamma_prior + obs.s

    def log_f(w):
        p = w / su + (1.0 - w) / sb
        h = w * obs.s + (1.0 - w) * o + w * (1.0 - w) * float(np.sum(delta2 / (su * sb * p)))
        return -0.5 * float(np.sum(np.log(p))) - P * math.log(h)

    ref = log_f(0.5)
    val, _ = integrate.quad(lambda w: math.exp(log_f(w) - ref), 0.0, 1.0, weight="alg",
                            wvar=(A - 1.0, B - 1.0), epsabs=0.0, epsrel=1e-11, limit=200)
    const = (m / 2.0) * math.log(math.pi) + ((m - l) / 2.0) * math.log(c2)
    return const + float(scipy.special.gammaln(P) - scipy.special.gammaln(A) - scipy.special.gammaln(B)) \
        + ref + math.log(val)


@pytest.mark.parametrize("design", ["as1", "II_m1_k3", "I_m5_k3", "II_m2_k4"])
def test_quadrature_constant_matches_importance_sampling(design):
    problem = item1_designs()[design]
    cases = [(problem, obs, alpha) for obs in two_observations(problem) for alpha in QUAD_ALPHAS]
    if design == "as1":
        cases.append((*far_case(), 0.9))
    for i, (p, obs, alpha) in enumerate(cases):
        dens = shrinkage_bayes_kernel(PriorSpec.minimax_default(p), obs, alpha)
        log_norm_const, rel_se = normalize_density(dens.log_unnormalized, best_invariant_kernel(p, obs, alpha),
                                                   2_000_000, seed=3, rep_index=i)
        z = (dens.log_const - log_norm_const) / rel_se
        assert abs(z) <= 4.0, (design, i, alpha, z)


@pytest.mark.parametrize("design", ["as1", "II_m1_k3", "I_m5_k3", "II_m2_k4"])
def test_quadrature_constant_matches_algebraic_weight_rule(design):
    # small B (nu near 0, a near -k/2 - 1) gives the long right tail that widens the window
    problem = item1_designs()[design]
    priors = [PriorSpec.minimax_default(problem),
              PriorSpec(problem, c=2.0, nu=0.02 / (problem.n - problem.k))]
    for prior in priors:
        for obs in two_observations(problem):
            for alpha in QUAD_ALPHAS:
                got = -shrinkage_bayes_kernel(prior, obs, alpha).log_const
                want = qaws_log_z(problem, prior, obs, alpha)
                assert abs(got - want) <= 1e-8 * (1.0 + abs(want)), (design, alpha, got, want)


@pytest.mark.parametrize("alpha", [0.99, 0.999])
def test_quadrature_rule_refinement_agrees(as1_problem_n12, monkeypatch, alpha):
    # the rule certifies n against 3n/2 nodes; a ladder started at four times
    # the first rung must land on the same constant
    far_problem, far_obs = far_case()
    near = CanonicalObservation(v=np.array([0.8, -0.4, 1.2]), v_star=np.zeros(0), s=9.5)
    cases = [(as1_problem_n12, near), (far_problem, far_obs)]
    base = [shrinkage_bayes_kernel(PriorSpec.minimax_default(p), o, alpha).log_const for p, o in cases]
    monkeypatch.setattr(quad_module, "LOSS_START_NODES", 4 * quad_module.LOSS_START_NODES)
    fine = [shrinkage_bayes_kernel(PriorSpec.minimax_default(p), o, alpha).log_const for p, o in cases]
    assert np.all(np.isfinite(base))
    assert np.allclose(base, fine, rtol=1e-12, atol=1e-9)


# ---------------------------------------------------------------------------
# Plug-in estimators and density
# ---------------------------------------------------------------------------


def test_plugin_hand_example(prob_m3, obs_m3):
    prior = PriorSpec(prob_m3, c=1.0, nu=0.2)
    est = plugin_bayes_estimators(prior, obs_m3)
    assert np.abs(est.theta_hat - 10.0 / 11.0 * obs_m3.v).max() < 1e-13
    assert est.sigma2_hat == pytest.approx(10.0 / 11.0, rel=1e-13)


def test_plugin_no_shrinkage_limit(prob_m3, obs_m3):
    prior = PriorSpec(prob_m3, c=1.0, nu=1e-13)
    est = plugin_bayes_estimators(prior, obs_m3)
    assert np.abs(est.theta_hat - obs_m3.v).max() < 1e-12
    assert est.sigma2_hat == pytest.approx(obs_m3.s / 9.0, rel=1e-12)


def test_plugin_large_signal_limit(prob_m3):
    prior = PriorSpec(prob_m3, c=1.0, nu=0.5)
    big = CanonicalObservation(v=np.array([1e8, 0.0, 0.0]), v_star=np.zeros(0), s=9.0)
    est = plugin_bayes_estimators(prior, big)
    assert np.abs(est.theta_hat / big.v[0] - np.array([1.0, 0.0, 0.0])).max() < 1e-9
    assert est.sigma2_hat == pytest.approx(1.0, rel=1e-9)


def test_plugin_invariants_random(prob_m3, rng):
    prior = PriorSpec(prob_m3, c=1.0, nu=0.4)
    q = prob_m3.n - prob_m3.k
    for _ in range(100):
        obs = CanonicalObservation(v=rng.standard_normal(3) * 3, v_star=np.zeros(0), s=rng.uniform(0.5, 30))
        est = plugin_bayes_estimators(prior, obs)
        assert 0 < est.sigma2_hat < obs.s / q
        assert np.all(np.abs(est.theta_hat) <= np.abs(obs.v) + 1e-15)


def test_plugin_estimate_normal_facts(prob_m1):
    est = plugin_bayes_estimators(
        PriorSpec(prob_m1, nu=0.3),
        CanonicalObservation(np.array([1.2]), np.zeros(0), 2.5),
    )
    total, _ = integrate.quad(lambda y: math.exp(est.log_density(np.array([y]))), -np.inf, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)
    mean = prob_m1.Q @ est.theta_hat
    at_mean = est.log_density(mean)
    assert at_mean == pytest.approx(-0.5 * math.log(2 * math.pi * est.sigma2_hat), rel=1e-12)
    for eps in (0.1, -0.2, 1.0):
        assert est.log_density(mean + eps) < at_mean


def test_umvu(prob_m3):
    obs = CanonicalObservation(v=np.array([3.0, -1.0, 0.5]), v_star=np.zeros(0), s=18.0)
    est = umvu_estimators(prob_m3, obs)
    assert np.array_equal(est.theta_hat, obs.v)
    assert est.sigma2_hat == 2.0
    tiny = plugin_bayes_estimators(PriorSpec(prob_m3, nu=1e-14), obs)
    assert np.abs(tiny.theta_hat - est.theta_hat).max() < 1e-12


# ---------------------------------------------------------------------------
# Stein variance estimators
# ---------------------------------------------------------------------------


def test_stein_zero_mean_takes_pooled(prob_m3):
    obs = CanonicalObservation(v=np.zeros(3), v_star=np.zeros(0), s=18.0)
    est = stein_variance(prob_m3, obs)
    assert np.array_equal(est.theta_hat, obs.v)
    assert est.sigma2_hat == pytest.approx(18.0 / 12.0)


def test_stein_hand_example(prob_m3):
    obs = CanonicalObservation(v=np.array([3.0, 0.0, 0.0]), v_star=np.zeros(0), s=18.0)
    assert stein_variance(prob_m3, obs).sigma2_hat == pytest.approx(2.0)


def test_stein_never_exceeds_umvu(rng):
    for _ in range(100):
        l = int(rng.integers(1, 5))
        d = rng.uniform(0.1, 4.0, l)
        problem = synthetic_problem(n=12 + l, k=l, m=l, d=np.sort(d)[::-1])
        obs = CanonicalObservation(v=rng.standard_normal(l), v_star=np.zeros(0), s=rng.uniform(0.1, 40))
        assert stein_variance(problem, obs).sigma2_hat <= obs.s / 12 + 1e-15


def test_stein_star(case2_problem_n12):
    obs = CanonicalObservation(v=np.array([0.5]), v_star=np.array([1.0, -1.5]), s=18.0)
    # l = 1, n = 12: pooled term (|v*|^2 + s)/(n - l)
    want = min(2.0, (3.25 + 18.0) / 11.0)
    est = stein_variance_star(case2_problem_n12, obs)
    assert np.array_equal(est.theta_hat, obs.v)
    assert est.sigma2_hat == pytest.approx(want)
    empty = CanonicalObservation(v=np.array([0.5]), v_star=np.zeros(0), s=18.0)
    with pytest.raises(ValueError):
        stein_variance_star(case2_problem_n12, empty)


# ---------------------------------------------------------------------------
# Limit toward the plug-in density
# ---------------------------------------------------------------------------


def test_alpha_limit_gaps_decrease(as1_problem_n12):
    problem = as1_problem_n12
    prior = PriorSpec.minimax_default(problem)
    obs = CanonicalObservation(v=np.array([0.8, -0.4, 1.2]), v_star=np.zeros(0), s=9.5)
    est = plugin_bayes_estimators(prior, obs)
    center = problem.Q @ est.theta_hat
    pts = np.vstack([center, center + 0.5, center - 0.8])
    gaps = alpha_limit_check(prior, obs, pts, [0.5, 0.9])
    assert gaps.shape == (2, 3)
    assert np.all(gaps[1] < gaps[0])


def test_alpha_limit_degenerate_observation(as1_problem_n12):
    # v = 0 with C = I still collapses onto the plug-in normal
    problem = as1_problem_n12
    prior = PriorSpec(problem, c=1.0, nu=0.25)
    obs = CanonicalObservation(v=np.zeros(3), v_star=np.zeros(0), s=9.0)
    pts = np.vstack([np.zeros(3), np.full(3, 0.7)])
    gaps = alpha_limit_check(prior, obs, pts, [0.5, 0.9])
    assert np.all(gaps[1] < gaps[0])


def test_alpha_limit_validates_sequence(as1_problem_n12):
    prior = PriorSpec.minimax_default(as1_problem_n12)
    obs = CanonicalObservation(v=np.zeros(3), v_star=np.zeros(0), s=9.0)
    with pytest.raises(ValueError):
        alpha_limit_check(prior, obs, np.zeros((1, 3)), [0.9, 0.5])
    with pytest.raises(ValueError):
        alpha_limit_check(prior, obs, np.zeros((1, 3)), [0.9, 1.0])


# ---------------------------------------------------------------------------
# Quadratic-form identity and marginal representation
# ---------------------------------------------------------------------------


def test_lemma_f_zero(rng):
    l, m = 2, 4
    Q = np.linalg.qr(rng.standard_normal((m, l)))[0]
    ds = rng.uniform(0.2, 2.0, l)
    y, v = rng.standard_normal(m), rng.standard_normal(l)
    lhs, rhs = lemma_identity_residual(np.zeros(l), ds, Q, y, v)
    want = float(y @ y + v @ (v / ds))
    assert lhs == pytest.approx(want, rel=1e-12)
    assert rhs == pytest.approx(want, rel=1e-12)


def test_lemma_f_one(rng):
    l, m = 3, 3
    Q = np.linalg.qr(rng.standard_normal((m, l)))[0]
    ds = rng.uniform(0.2, 2.0, l)
    y, v = rng.standard_normal(m), rng.standard_normal(l)
    lhs, rhs = lemma_identity_residual(np.ones(l), ds, Q, y, v)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # residual term vanishes: rhs is a pure quadratic form in y - Qv
    r = y - Q @ v
    mat = np.eye(m) + (Q * ds) @ Q.T
    assert rhs == pytest.approx(float(r @ np.linalg.solve(mat, r)), rel=1e-10)


def test_lemma_singular_guard(rng):
    Q = np.array([[1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        lemma_identity_residual(np.array([2.0]), np.array([1.0]), Q, np.array([0.3]), np.array([0.1]))


def test_marginal_derivative_representation():
    # l = 1 with a two-dimensional auxiliary statistic
    n, k, m = 12, 3, 1
    d, c, gam, a = np.array([0.4]), np.array([1.5]), 1.3, -1.0
    problem = synthetic_problem(n=n, k=k, m=m, d=d)
    prior = PriorSpec(problem, c=c, nu=(k + 2 * a + 2) / (n - k), gamma_prior=gam)
    obs = CanonicalObservation(v=np.array([0.9]), v_star=np.array([0.3, -1.1]), s=2.0)

    def lm(v0, s0):
        return log_marginal_kernel(np.array([v0]), obs.v_star, s0, d, c, gam, a, n, k)

    h = 1e-6
    dv = (lm(obs.v[0] + h, obs.s) - lm(obs.v[0] - h, obs.s)) / (2 * h)
    ds = (lm(obs.v[0], obs.s + h) - lm(obs.v[0], obs.s - h)) / (2 * h)
    theta_num = obs.v[0] - d[0] * dv / (2 * ds)
    sigma2_num = -1.0 / (2 * ds)
    est = plugin_bayes_estimators(prior, obs)
    assert theta_num == pytest.approx(est.theta_hat[0], rel=1e-6)
    assert sigma2_num == pytest.approx(est.sigma2_hat, rel=1e-6)
