"""The Gauss-Jacobi rules and the certificate every kernel integral shares (quad.jacobi, quad.certified)."""

import decimal
import math
import re
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import shrinkpred.quad as quad_module
from shrinkpred import cli
from shrinkpred.predictive import (
    PriorSpec,
    _expected_log,
    best_invariant_kernel,
    shrinkage_bayes_kernel,
)
from shrinkpred.quad import UnreliableNormalizationError
from shrinkpred.risk import alpha_divergence_loss

from test_groups import block_and_theta, designs, per_axis_expected_log

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped(name):
    """(problem, prior at nu_max) of a shipped config."""
    cfg = cli.load_config(str(CONFIGS / f"{name}.json"))
    problem, _, _ = cli.build_problem(cfg)
    return problem, cli.build_prior(cfg, problem)


def jacobi_exponents(alpha, nu_scale):
    """quad.jacobi's (a, b) for as1_desk's shrinkage constant at alpha and nu = nu_scale nu_max (kappa = 1 there)."""
    problem, prior = shipped("as1_desk")
    q = problem.n - problem.k
    A, B = problem.m / 2.0 + q / (1.0 - alpha), nu_scale * prior.nu * q / (1.0 - alpha)
    return A - 1.0, B - 1.0


# ---------------------------------------------------------------------------
# quad.jacobi
# ---------------------------------------------------------------------------


def decimal_recurrence(a: Decimal, b: Decimal, n: int) -> tuple[list[Decimal], list[Decimal]]:
    """The shifted Jacobi recurrence of x^a (1-x)^b on (0, 1) in decimals: diagonal and off-diagonal."""
    s = a + b
    diag = [(a + 1) / (s + 2)] + [(2 * k * (k + s + 1) + s * (a + 1)) / ((2 * k + s) * (2 * k + s + 2))
                                  for k in range(1, n)]
    off = [(k * (k + a) * (k + b) / ((2 * k + s) ** 2 * (2 * k + s + 1))
            * (1 if k == 1 else (k + s) / (2 * k + s - 1))).sqrt() for k in range(1, n + 1)]
    return diag, off


def decimal_orthonormal(x: Decimal, diag: list[Decimal], off: list[Decimal]) -> tuple[Decimal, Decimal]:
    """p_n(x)/p_n'(x) and sum_{k<n} p_k(x)^2 of the recurrence, n = len(diag)."""
    p_prev, p, dp_prev, dp, total, b = Decimal(0), Decimal(1), Decimal(0), Decimal(0), Decimal(1), Decimal(0)
    for k, (d, b_next) in enumerate(zip(diag, off)):
        xd = x - d
        dp_prev, dp = dp, (xd * dp + p - b * dp_prev) / b_next
        p_prev, p, b = p, (xd * p - b * p_prev) / b_next, b_next
        if k < len(diag) - 1:
            total += p * p
    return p / dp, total


def decimal_jacobi_errors(a: float, b: float, n: int) -> tuple[float, float]:
    """The largest absolute node error and log-weight error of jacobi(a, b, n) against a 50-digit reference.

    The reference runs three Newton steps on the recurrence in 50-digit decimals from the rule's own nodes and
    takes each log weight at the node before the last step.
    """
    x, log_w = quad_module.jacobi(a, b, n)
    node_err, weight_err = Decimal(0), Decimal(0)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        diag, off = decimal_recurrence(Decimal(a), Decimal(b), n)
        for node, got in zip(x.tolist(), log_w.tolist()):
            ref = Decimal(node)
            for _ in range(3):
                step, total = decimal_orthonormal(ref, diag, off)
                ref -= step
            node_err = max(node_err, abs(Decimal(node) - ref))
            weight_err = max(weight_err, abs(Decimal(got) + total.ln()))
    return float(node_err), float(weight_err)


@pytest.mark.parametrize("alpha, nu_scale, weight_tol", [(0.0, 1e-8, 2e-11), (0.99, 1.0, 5e-12)])
def test_jacobi_rule_at_the_top_rung_matches_a_50_digit_reference(alpha, nu_scale, weight_tol):
    # b near -1 (B - 1 = -1 + 2.5e-8 at nu = 1e-8 nu_max) and a near 900 (A - 1 = 900.5 at alpha = 0.99): the
    # extremes of as1_desk's shrinkage constant, at certified's top rung
    a, b = jacobi_exponents(alpha, nu_scale)
    assert (b < -0.99999997) if nu_scale < 1 else (a > 900)
    node_err, weight_err = decimal_jacobi_errors(a, b, 609)
    assert node_err <= 1e-15 and weight_err <= weight_tol, (node_err, weight_err)


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.5, 3.5), (2.0, -0.75), (9.5, 1.47), (-0.5, 0.25)])
@pytest.mark.parametrize("n", [16, 54])
def test_jacobi_rule_matches_scipy(a, b, n):
    x, log_w = quad_module.jacobi(a, b, n)
    ref_x, ref_w = scipy.special.roots_jacobi(n, b, a)   # on (-1, 1), weight (1-y)^b (1+y)^a
    ref_x, ref_log_w = (1.0 + ref_x) / 2.0, np.log(ref_w) - np.log(ref_w.sum())
    assert np.abs(x - ref_x).max() <= 1e-14
    # scipy's own weights stray up to 4.6e-13 here; the 50-digit reference above pins the rule's
    assert np.abs(np.exp(log_w) - np.exp(ref_log_w)).max() <= 1e-12
    mass = ref_log_w > math.log(1e-12)
    assert np.abs(log_w[mass] - ref_log_w[mass]).max() <= 1e-10


@pytest.mark.parametrize("a, b", [(0.0, 0.0), (-0.999, 5.0), (9.5, -0.99999), (900.5, 246.0)])
@pytest.mark.parametrize("n", [24, 81])
def test_jacobi_rule_integrates_every_monomial_below_degree_2n(a, b, n):
    # the defining property of the n-point Gauss rule, with no scipy: E x^j = prod_{i<j} (a+1+i)/(a+b+2+i)
    x, log_w = quad_module.jacobi(a, b, n)
    j = np.arange(2 * n)
    terms = log_w + j[:, None] * np.log(x)
    got = np.logaddexp.reduce(terms, axis=1)
    want = np.concatenate([[0.0], np.cumsum(np.log((a + 1.0 + j[:-1]) / (a + b + 2.0 + j[:-1])))])
    assert np.abs(got - want).max() <= 1e-11


def test_jacobi_rule_is_cached_and_read_only():
    x, log_w = quad_module.jacobi(2.75, -0.5, 48)
    again = quad_module.jacobi(2.75, -0.5, 48)
    assert again[0] is x and again[1] is log_w
    for array in (x, log_w):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("a, b", [(0.0, -1.0), (-1.0, 2.0), (3.0, -2.0)])
def test_jacobi_rule_needs_a_weight_of_finite_mass(a, b):
    with pytest.raises(UnreliableNormalizationError, match=re.escape(f"Gauss-Jacobi rule at a = {a:.6g}, b = {b:.6g}")):
        quad_module.jacobi(a, b, 16)


@pytest.mark.parametrize("nu", [1e-300, 5e-18])
def test_a_B_whose_B_minus_1_rounds_to_minus_1_fails_naming_nu_and_B(nu):
    # as1_desk at alpha = 0 has B = 9 nu: at nu = 5e-18, B = 4.5e-17 is below half an ulp of 1, so B - 1 is -1
    problem, _ = shipped("as1_desk")
    prior = PriorSpec(problem, nu=nu)
    B = 9.0 * nu
    assert B - 1.0 == -1.0
    block, _ = block_and_theta(problem, rows=4)
    what = f"shrinkage constant at alpha = 0, nu = {nu:.6g}, B = {B:.6g}"
    with pytest.raises(UnreliableNormalizationError, match=re.escape(f"no finite weight ({what})")):
        shrinkage_bayes_kernel(prior, block, 0.0)


# ---------------------------------------------------------------------------
# The integrals on the shared certificate
# ---------------------------------------------------------------------------


def test_each_failing_integral_is_named_with_its_alpha(monkeypatch):
    # the top rung lowered to the first: no integral can form an n vs 3n/2 pair
    problem, prior = shipped("as1_desk")
    block, theta = block_and_theta(problem, rows=6)
    best = best_invariant_kernel(problem, block, 0.5)
    monkeypatch.setattr(quad_module, "LOSS_MAX_NODES", quad_module.LOSS_START_NODES)
    B = prior.nu * (problem.n - problem.k) / 0.5
    cases = [
        (lambda: alpha_divergence_loss(best, theta), "loss quadrature at alpha = 0.5"),
        (lambda: shrinkage_bayes_kernel(prior, block, 0.5), f"shrinkage constant at alpha = 0.5, nu = {prior.nu:.6g}, "
                                                            f"B = {B:.6g}"),
        (lambda: alpha_divergence_loss(best_invariant_kernel(problem, block, -1.0), theta),
         "Frullani integral at alpha = -1"),
    ]
    for call, what in cases:
        with pytest.raises(UnreliableNormalizationError) as raised:
            call()
        assert str(raised.value).startswith(f"{what}: 6 row(s) uncertified, no n vs 3n/2 pair within "
                                            "LOSS_MAX_NODES = 16"), str(raised.value)


@pytest.mark.parametrize("name", ["as1_desk", "case2_small_l"])
@pytest.mark.parametrize("alpha", [0.0, -1.0, 0.9])
@pytest.mark.parametrize("nu_scale", [1e-4, 1e-8])
def test_a_small_nu_certifies(name, alpha, nu_scale):
    # the shrinkage constant's (1-w)^(B-1) tail rides in the Gauss-Jacobi weight, so a small B costs it nothing;
    # the trapezoid rule that took it before failed its certificate at 1e-4 nu_max on as1_desk at alpha = 0
    problem, prior = shipped(name)
    small = PriorSpec(problem, prior.c, prior.nu * nu_scale)
    block, theta = block_and_theta(problem, rows=64)
    kernel = shrinkage_bayes_kernel(small, block, alpha)
    loss = alpha_divergence_loss(kernel, theta)
    assert np.all(np.isfinite(kernel.log_const)) and np.all(np.isfinite(loss))


@pytest.mark.parametrize("design", ["as1_desk", "multi_group"])
@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e4, 1e8])
def test_frullani_integrals_match_a_test_built_reference_as_the_offset_moves(design, scale):
    # the window in z = log(c tau), c = o + E q, keeps one scale as o moves across twenty decades; the reference
    # is test_groups' per-axis form on its own trapezoid rule
    problem, prior = designs()[design]
    block, theta = block_and_theta(problem, rows=16)
    best = best_invariant_kernel(problem, block, -1.0)
    shrink = shrinkage_bayes_kernel(prior, block, -1.0)
    for kernel, second in ((replace(best, s=best.s * scale), False), (replace(shrink, s=shrink.s * scale), False),
                           (replace(shrink, o=shrink.o * scale), True)):
        got = _expected_log(kernel, second, theta)
        assert np.abs(got - per_axis_expected_log(kernel, second, theta)).max() <= 1e-10
