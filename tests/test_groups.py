"""The kernels' spectral groups: PredictiveKernel.groups, and the kernel integrals that read it, against per-axis forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shrinkpred.predictive as predictive_module
from shrinkpred.predictive import PriorSpec, _expected_log, _log_integral, best_invariant_kernel, shrinkage_bayes_kernel

from conftest import block_and_theta, designs, synthetic_problem

ALPHAS = (-1.0, -0.5, 0.0, 0.5, 0.9, 0.99)


# ---------------------------------------------------------------------------
# Per-axis reference forms: each eigen-axis on its own, the m - l complement as a separate term
# ---------------------------------------------------------------------------


def per_axis_logdet(c2, Q, e):
    """log det(c2 I + Q diag(e) Q'), one log per axis along Q and (m - l) log c2 for the complement."""
    m, l = Q.shape
    return (m - l) * math.log(c2) + float(np.sum(np.log(c2 + e)))


def per_axis_best_invariant_log_const(kernel):
    """The best invariant density's normalizing constant from per_axis_logdet."""
    m, dof, s = kernel.problem.m, kernel.dof, kernel.s
    logdet = per_axis_logdet(kernel.c2, kernel.problem.Q, kernel.problem.d)
    return (math.lgamma((dof + m) / 2.0) - math.lgamma(dof / 2.0)
            - (m / 2.0) * math.log(math.pi) - 0.5 * logdet + (dof / 2.0) * np.log(s))


def reference_log_integral(g, rows, lo, hi):
    """log of the integral of exp(g(z)) over the real line for each of rows rows, by a trapezoid rule.

    g maps nodes z of shape (rows, N) to values of that shape.  The rule is the tests' own, not the package's:
    a scan of [lo, hi] at step 1/4 finds each row's window, where g lies within 50 of the row's peak (the scan
    must hold it), and the step of that window's rule then halves until two values agree within 1e-14.
    """
    scan = np.arange(lo, hi + 0.25, 0.25)
    gz = g(np.broadcast_to(scan, (rows, scan.size)))
    inside = gz > (gz.max(axis=1) - 50.0)[:, None]
    assert not (inside[:, 0].any() or inside[:, -1].any()), "a row's window reaches an end of the scan"
    first = scan[np.argmax(inside, axis=1) - 1]
    width = scan[scan.size - np.argmax(inside[:, ::-1], axis=1)] - first
    n, value = 64, None
    while True:
        gz = g(first[:, None] + width[:, None] * np.linspace(0.0, 1.0, n + 1))
        top = gz.max(axis=1)
        e = np.exp(gz - top[:, None])
        new = top + np.log(width / n * (e.sum(axis=1) - 0.5 * (e[:, 0] + e[:, -1])))
        if value is not None and np.abs(new - value).max() <= 1e-14:
            return new
        n, value = 2 * n, new


def per_axis_log_integral(kernel):
    """log Z of each row of a shrinkage kernel: the logit-scale integral with one p_i per axis along Q.

      log Z = (m/2) log pi + ((m-l)/2) log c2 + lnG(P) - lnG(A) - lnG(B) + log int e^G(z) dz,
      G(z) = A log w + B log(1-w) - (1/2) sum_i log p_i(w) - P log h(w),
      h(w) = w s + (1-w) o + w(1-w) sum_i delta_i^2/(sigma_u_i sigma_b_i p_i(w)).
    """
    A, B, c2, m, l = kernel.A, kernel.B, kernel.c2, kernel.problem.m, kernel.problem.l
    P = A + B - m / 2.0
    inv_u, inv_b = 1.0 / (c2 + kernel.problem.d), 1.0 / (c2 + kernel.e_b)
    s, o = np.reshape(kernel.s, -1), np.reshape(kernel.o, -1)
    coupling = np.reshape(kernel.v - kernel.theta_b, (-1, l)) ** 2 * inv_u * inv_b

    def g(z):
        log_w, log_w1 = -np.logaddexp(0.0, -z), -np.logaddexp(0.0, z)
        w, w1 = np.exp(log_w)[..., None], np.exp(log_w1)[..., None]
        p = w * inv_u + w1 * inv_b
        h = np.exp(log_w) * s[:, None] + np.exp(log_w1) * o[:, None] + (w * w1 * coupling[:, None] / p).sum(axis=-1)
        return A * log_w + B * log_w1 - 0.5 * np.log(p).sum(axis=-1) - P * np.log(h)

    const = (m / 2.0) * math.log(math.pi) + ((m - l) / 2.0) * math.log(c2)
    log_int = reference_log_integral(g, s.size, -100.0 - 100.0 / A, 100.0 + 100.0 / B)
    return const + math.lgamma(P) - math.lgamma(A) - math.lgamma(B) + log_int


def tight(integral, *args):
    """integral(*args), the package's shrinkage constant or Frullani integral, certified to 1e-13, not QUAD_TOL.

    Its reference runs on another rule, so at QUAD_TOL a gap would measure the certificate's slack (up to
    1.2e-13 on a drawn design) rather than the grouping.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(predictive_module, "QUAD_TOL", 1e-13)
        return integral(*args)


def per_axis_expected_log(kernel, second, theta):
    """E log(q(Y) + o) of one kernel factor per row by Frullani, M(tau) a product over the axes along Q
    times (1 + 2 tau/c2)^(-(m-l)/2) for the complement."""
    c2, m, l = kernel.c2, kernel.problem.m, kernel.problem.l
    e, mu, o = (kernel.e_b, kernel.theta_b, kernel.o) if second else (kernel.problem.d, kernel.v, kernel.s)
    sigma, o = c2 + e, np.reshape(o, -1)
    dev = np.reshape(theta - mu, (-1, l)) ** 2 / sigma

    def g(z):
        t = np.exp(z)
        tau = t / o[:, None]
        grow = 2.0 * tau[..., None] / sigma
        log_m = (-0.5 * np.log1p(grow) - tau[..., None] * dev[:, None] / (1.0 + grow)).sum(axis=-1)
        log_m -= ((m - l) / 2.0) * np.log1p(2.0 * tau / c2)
        return -t + np.log(-np.expm1(log_m))

    return np.log(o) + np.exp(reference_log_integral(g, o.size, -200.0, 8.0))


# ---------------------------------------------------------------------------
# Gaps and tolerances
# ---------------------------------------------------------------------------


def relative_gap(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


def log_gap(got, want):
    """The gap of two log-scale values, relative where |want| >= 1 and absolute below.

    An absolute gap in log Z is the relative gap in Z. A log near 0 is a cancellation of O(1) terms, so its
    relative gap measures one rounding of those terms divided by a small sum: a drawn design that puts a
    row's log Z at -9e-4 makes the one-ulp gap 2.2e-16 read as 2.6e-13.
    """
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


# the grouped forms add a group's axes before they divide, and log p_j(w) of the complement replaces (m - l) log c2:
# rounding-size moves, which the shrinkage constant's 1/(1 - alpha) scale amplifies near alpha = 1; the integrals
# run on the package's Gauss rules and their per-axis forms on the tests' trapezoid rule: at most 4.5e-14 apart here
def tolerance(alpha):
    return 1e-13 if alpha < 0.9 else 1e-12


# ---------------------------------------------------------------------------
# PredictiveKernel.groups
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", ["as1_desk", "case2_small_l", "multi_group", "g0"])
@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.9])
def test_groups_partition_the_m_axes(design, alpha):
    problem, prior = designs()[design]
    block, _ = block_and_theta(problem)
    m, l = problem.m, problem.l
    for kernel in (best_invariant_kernel(problem, block, alpha), shrinkage_bayes_kernel(prior, block, alpha)):
        groups = kernel.groups
        assert sum(count for count, *_ in groups) == m
        assert sorted(i for *_, axes in groups for i in axes) == list(range(l))
        assert len({(u, b) for _, u, b, _ in groups}) == len(groups)
        for count, sigma_u, sigma_b, axes in groups:
            assert all((kernel.c2 + problem.d[i], kernel.c2 + kernel.e_b[i]) == (sigma_u, sigma_b) for i in axes)
            assert count == len(axes) + (m - l if (sigma_u, sigma_b) == (kernel.c2, kernel.c2) else 0)
        # the complement is the one group at (c2, c2), and it is present exactly when m > l
        complement = [group for group in groups if group[1:3] == (kernel.c2, kernel.c2)]
        assert complement == ([(m - l, kernel.c2, kernel.c2, [])] if m > l else [])


@pytest.mark.parametrize("alpha", ALPHAS)
def test_best_invariant_groups_have_sigma_b_equal_to_sigma_u(alpha):
    for problem, _ in designs().values():
        block = block_and_theta(problem)[0]
        kernel = best_invariant_kernel(problem, block, alpha)
        # the B = 0 member of the kernel form: its second factor is its first
        assert kernel.B == 0 and kernel.e_b is problem.d and kernel.theta_b is block.v and kernel.o is block.s
        assert all(sigma_b == sigma_u for _, sigma_u, sigma_b, _ in kernel.groups)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_as1_desk_has_one_group_and_the_multi_group_design_four(alpha):
    # as1_desk's d is constant and c = 1, so its three eigen-axes share (sigma_u, sigma_b); m = l leaves no complement
    (as1, as1_prior), (multi, multi_prior) = designs()["as1_desk"], designs()["multi_group"]
    c2 = 2.0 / (1.0 - alpha)
    for kernel in (best_invariant_kernel(as1, block_and_theta(as1)[0], alpha),
                   shrinkage_bayes_kernel(as1_prior, block_and_theta(as1)[0], alpha)):
        assert kernel.groups == [(3, c2 + as1.d[0], c2 + kernel.e_b[0], [0, 1, 2])]
    kernel = shrinkage_bayes_kernel(multi_prior, block_and_theta(multi)[0], alpha)
    assert [(count, axes) for count, _, _, axes in kernel.groups] == [(1, [0]), (1, [1]), (1, [2]), (2, [])]


# ---------------------------------------------------------------------------
# Grouped integrals against the per-axis forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("design", ["as1_desk", "case2_small_l", "multi_group", "g0"])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_grouped_integrals_match_the_per_axis_forms(design, alpha):
    problem, prior = designs()[design]
    block, theta = block_and_theta(problem)
    best = best_invariant_kernel(problem, block, alpha)
    shrink = shrinkage_bayes_kernel(prior, block, alpha)
    tol = tolerance(alpha)
    assert relative_gap(best.log_const, per_axis_best_invariant_log_const(best)) <= tol
    # with l = m = 1 (case2_small_l, g0) the one group is the one axis and there is no complement: no operation
    # changed order, so the closed-form constant is its per-axis form bit for bit
    assert problem.m > 1 or np.array_equal(best.log_const, per_axis_best_invariant_log_const(best))
    # the integrals' references are another rule's, so a log near 0 is held to its absolute gap (log_gap)
    assert log_gap(tight(_log_integral, shrink, prior.nu), per_axis_log_integral(shrink)) <= tol
    for kernel, second in ((best, False), (shrink, False), (shrink, True)):
        assert log_gap(tight(_expected_log, kernel, second, theta), per_axis_expected_log(kernel, second, theta)) <= tol


@settings(max_examples=25, deadline=None)
@given(data=st.data(), l=st.integers(1, 4), extra=st.integers(0, 2), q=st.integers(3, 8),
       alpha=st.sampled_from([-1.0, -0.5, 0.0, 0.5]))
def test_tied_spectra_group_and_match_the_per_axis_forms(data, l, extra, q, alpha):
    # d (nonincreasing, as canonicalize orders it) and c drawn from two values each, so axes tie often, and the
    # ties in (d, c) need not be neighbours; m - l = extra complement axes
    d = sorted(data.draw(st.lists(st.sampled_from([0.3, 1.7]), min_size=l, max_size=l)), reverse=True)
    c = data.draw(st.lists(st.sampled_from([1.0, 2.5]), min_size=l, max_size=l))
    problem = synthetic_problem(n=l + q, k=l, m=l + extra, d=d)
    prior = PriorSpec(problem, c=c, nu=0.5)
    block, theta = block_and_theta(problem, rows=12, seed=5)
    best = best_invariant_kernel(problem, block, alpha)
    shrink = shrinkage_bayes_kernel(prior, block, alpha)
    # one group per distinct (d_i, c_i) along Q, in first-seen order, and the complement last
    pairs = list(dict.fromkeys(zip(d, c)))
    assert [sorted(axes) for *_, axes in shrink.groups] == (
        [[i for i in range(l) if (d[i], c[i]) == pair] for pair in pairs] + ([[]] if extra else []))
    assert [axes for *_, axes in best.groups] == (
        [[i for i in range(l) if d[i] == value] for value in dict.fromkeys(d)] + ([[]] if extra else []))
    # drawn designs can put a log value near 0, where only the log-scale gap is bounded by rounding
    assert log_gap(best.log_const, per_axis_best_invariant_log_const(best)) <= 1e-13
    assert log_gap(tight(_log_integral, shrink, prior.nu), per_axis_log_integral(shrink)) <= 1e-13
    for kernel, second in ((best, False), (shrink, False), (shrink, True)):
        got = tight(_expected_log, kernel, second, theta)
        assert log_gap(got, per_axis_expected_log(kernel, second, theta)) <= 1e-13
