"""One battery per numerical primitive: the Gauss families (quad.laguerre, quad.jacobi) over one rule table, FAMILIES,
and the integrals on the shared certificate (quad.certified) over one certificate table, INTEGRALS."""

import decimal
import math
import re
import warnings
from dataclasses import dataclass, replace
from decimal import Decimal
from typing import Callable

import numpy as np
import pytest
import scipy.special

import shrinkpred.quad as quad_module
from shrinkpred import cli
from shrinkpred.canonical import CanonicalParams
from shrinkpred.predictive import PriorSpec, _expected_log, best_invariant_kernel, shrinkage_bayes_kernel
from shrinkpred.quad import UnreliableNormalizationError
from shrinkpred.risk import alpha_divergence_loss, risk_mc, scorer

from conftest import DENSITIES, RISK_DOC, block_and_theta, designs, shrinkage_density_config, write_config
from test_groups import per_axis_expected_log

# ---------------------------------------------------------------------------
# The rule table: each Gauss family, and the references every check holds it to
# ---------------------------------------------------------------------------


def jacobi_recurrence(a: Decimal, b: Decimal, n: int) -> tuple[list[Decimal], list[Decimal]]:
    """The shifted Jacobi recurrence of x^a (1-x)^b on (0, 1) in decimals: diagonal and off-diagonal."""
    s = a + b
    diag = [(a + 1) / (s + 2)] + [(2 * k * (k + s + 1) + s * (a + 1)) / ((2 * k + s) * (2 * k + s + 2))
                                  for k in range(1, n)]
    off = [(k * (k + a) * (k + b) / ((2 * k + s) ** 2 * (2 * k + s + 1))
            * (1 if k == 1 else (k + s) / (2 * k + s - 1))).sqrt() for k in range(1, n + 1)]
    return diag, off


def scipy_laguerre(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = scipy.special.roots_genlaguerre(n, a)
    return x, np.log(w) - scipy.special.gammaln(a + 1.0)


def scipy_jacobi(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """roots_jacobi's rule on (-1, 1), of weight (1-y)^b (1+y)^a, mapped to (0, 1) and normalized."""
    y, w = scipy.special.roots_jacobi(n, b, a)
    return (1.0 + y) / 2.0, np.log(w) - np.log(w.sum())


@dataclass(frozen=True)
class Family:
    """A Gauss family's row of the rule table: its builder and what each check compares it with."""

    rule: Callable          # (*params, n) -> nodes, log weights
    recurrence: Callable    # (*params as decimals, n) -> the recurrence's diagonal and off-diagonal
    log_moments: Callable   # (*params, j) -> log E x^j for an array j
    scipy: Callable         # (*params, n) -> scipy's nodes and log weights of mass 1
    relative_nodes: bool    # node errors relative (nodes on (0, inf)) or absolute (nodes on (0, 1))
    invalid: tuple          # parameters that have no rule
    rejection: Callable     # (*params, n) -> the message those raise


FAMILIES = {
    "laguerre": Family(
        # diagonal 2k + a + 1, off-diagonal sqrt(k (k + a)) from k = 1
        quad_module.laguerre, lambda a, n: ([2 * k + a + 1 for k in range(n)],
                                            [(k * (k + a)).sqrt() for k in range(1, n + 1)]),
        # E x^j = Gamma(a+1+j)/Gamma(a+1)
        lambda a, j: np.array([math.lgamma(a + 1.0 + k) - math.lgamma(a + 1.0) for k in j]),
        scipy_laguerre, True,
        # at n = 16: 4.5e50 (as1_desk at nu = 1e50, alpha = 0) gives nan nodes and log weights, 4.5e300 finite
        # weights of mass e^-9240, and 1e20 a mass 8.5e-9 off 1 in log; each used to be returned as a rule
        ((4.5e50,), (4.5e300,), (1e20,)),
        lambda a, n: f"Gauss-Laguerre rule at a = {a:.6g}, n = {n}: not finite or not of mass 1"),
    "jacobi": Family(
        quad_module.jacobi, jacobi_recurrence,
        # E x^j = prod_{i<j} (a+1+i)/(a+b+2+i)
        lambda a, b, j: np.concatenate([[0.0], np.cumsum(np.log((a + 1.0 + j[:-1]) / (a + b + 2.0 + j[:-1])))]),
        scipy_jacobi, False,
        # a weight of no finite mass
        ((0.0, -1.0), (-1.0, 2.0), (3.0, -2.0)),
        lambda a, b, n: f"Gauss-Jacobi rule at a = {a:.6g}, b = {b:.6g}: no finite weight"),
}


def cases(family: str, params: list[tuple], ns: list[int], *tolerances: float) -> list:
    """Rows (family, params, n, *tolerances) for each parameters and node count."""
    return [pytest.param(family, p, n, *tolerances, id=f"{family}({','.join(map(repr, p))})-{n}")
            for p in params for n in ns]


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


def decimal_errors(family: Family, params: tuple, n: int) -> tuple[float, float]:
    """The largest node error and log-weight error of the family's n-point rule against a 50-digit reference.

    The reference runs three Newton steps on the recurrence in 50-digit decimals from the rule's own nodes (the
    last one moves a node by < 1e-40) and takes each log weight at the node before the last step.  Node errors
    are relative or absolute as the family's row says.
    """
    x, log_w = family.rule(*params, n)
    node_err, weight_err = Decimal(0), Decimal(0)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        diag, off = family.recurrence(*map(Decimal, params), n)
        for node, got in zip(x.tolist(), log_w.tolist()):
            ref = Decimal(node)
            for _ in range(3):
                step, total = decimal_orthonormal(ref, diag, off)
                ref -= step
            error = abs(Decimal(node) - ref)
            node_err = max(node_err, error / abs(ref) if family.relative_nodes else error)
            weight_err = max(weight_err, abs(Decimal(got) + total.ln()))
    return float(node_err), float(weight_err)


def top_rung() -> int:
    """The largest node count quad.certified reaches: n -> 3n/2 from LOSS_START_NODES within LOSS_MAX_NODES."""
    n = quad_module.LOSS_START_NODES
    while 3 * n // 2 <= quad_module.LOSS_MAX_NODES:
        n = 3 * n // 2
    return n


def shrinkage_exponents(alpha: float, nu_scale: float) -> tuple[float, float]:
    """quad.jacobi's (a, b) for as1_desk's shrinkage constant at alpha and nu = nu_scale nu_max (kappa = 1 there)."""
    problem, prior = designs()["as1_desk"]
    q = problem.n - problem.k
    return problem.m / 2.0 + q / (1.0 - alpha) - 1.0, nu_scale * prior.nu * q / (1.0 - alpha) - 1.0


# b near -1 (B - 1 = -1 + 2.5e-8 at alpha = 0, nu = 1e-8 nu_max) and a near 900 (A - 1 = 900.5 at alpha = 0.99,
# nu_max): the extremes of as1_desk's shrinkage constant
TINY_B, HUGE_A = shrinkage_exponents(0.0, 1e-8), shrinkage_exponents(0.99, 1.0)
assert TINY_B[1] < -0.99999997 and HUGE_A[0] > 900

# (family, params, n, node tolerance, weight tolerance); Jacobi's scipy weights stray up to 4.6e-13 here, and the
# 50-digit reference pins the rule's
SCIPY_CASES = (cases("laguerre", [(-0.99,), (-0.5,), (0.0,), (2.5,), (9.5,), (120.0,)], [32, 48], 1e-10, 1e-13)
               + cases("jacobi", [(0.0, 0.0), (0.5, 3.5), (2.0, -0.75), (9.5, 1.47), (-0.5, 0.25)], [16, 54],
                       1e-14, 1e-12))
MONOMIAL_CASES = (cases("laguerre", [(-0.99,), (0.24,), (4.25,), (120.0,)], [32, 48, 72])
                  + cases("jacobi", [(0.0, 0.0), (-0.999, 5.0), (9.5, -0.99999), (900.5, 246.0)], [24, 81]))
# at 72 nodes the Newton polish is what brings the Laguerre log weights this close (without it: 2.8e-13 to 5.7e-13),
# and the nodes lie within 6.4e-14 relative.  Then certified's top rungs, 406 and 609: Laguerre at a = -0.99, near the
# alpha -> -1 edge, and 896, about A beta - 1 on as1_desk at alpha = 0.99, the largest of the shipped configs'
# problems (A = 901.5, beta = 0.995); Jacobi at as1_desk's extremes.  The builders' docstrings record the errors
DECIMAL_CASES = (cases("laguerre", [(-0.99,), (-0.5,), (4.25,), (120.0,)], [72], 1e-13, 1e-13)
                 + cases("laguerre", [(-0.99,)], [406], 1e-11, 2e-12)
                 + cases("laguerre", [(896.0,)], [406], 1e-14, 2e-12)
                 + cases("laguerre", [(-0.99,)], [609], 1e-11, 1e-11)
                 + cases("laguerre", [(896.0,)], [609], 1e-14, 2e-12)
                 + cases("jacobi", [TINY_B], [609], 1e-15, 2e-11) + cases("jacobi", [HUGE_A], [609], 1e-15, 5e-12))


@pytest.mark.parametrize("family, params, n, node_tol, weight_tol", SCIPY_CASES)
def test_rule_matches_scipy(family, params, n, node_tol, weight_tol):
    family = FAMILIES[family]
    x, log_w = family.rule(*params, n)
    ref_x, ref_log_w = family.scipy(*params, n)
    assert (np.abs(x - ref_x) / (np.abs(ref_x) if family.relative_nodes else 1.0)).max() <= node_tol
    # weights of mass 1: equal to rounding, and in log on every node that carries mass
    assert np.abs(np.exp(log_w) - np.exp(ref_log_w)).max() <= weight_tol
    mass = ref_log_w > math.log(1e-12)
    assert np.abs(log_w[mass] - ref_log_w[mass]).max() <= 1e-10


@pytest.mark.parametrize("family, params, n", MONOMIAL_CASES)
def test_rule_integrates_every_monomial_below_degree_2n(family, params, n):
    # the defining property of the n-point Gauss rule, with no scipy, compared in log space, where x^j and the
    # moments overflow
    x, log_w = FAMILIES[family].rule(*params, n)
    j = np.arange(2 * n)
    terms = log_w + j[:, None] * np.log(x)
    top = terms.max(axis=1)
    got = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    assert np.abs(got - FAMILIES[family].log_moments(*params, j)).max() <= 1e-11


@pytest.mark.parametrize("family, params, n, node_tol, weight_tol", DECIMAL_CASES)
def test_rule_matches_a_50_digit_reference(family, params, n, node_tol, weight_tol):
    assert top_rung() == 609
    node_err, weight_err = decimal_errors(FAMILIES[family], params, n)
    assert node_err <= node_tol and weight_err <= weight_tol, (node_err, weight_err)


@pytest.mark.parametrize("family, params, n", [row for name, family in FAMILIES.items()
                                                for row in cases(name, family.invalid, [16])])
def test_rule_rejects_parameters_that_have_none(family, params, n):
    with pytest.raises(UnreliableNormalizationError) as raised:
        FAMILIES[family].rule(*params, n)
    assert str(raised.value) == FAMILIES[family].rejection(*params, n)


@pytest.mark.parametrize("family, params, n", cases("laguerre", [(2.75,)], [48])
                         + cases("jacobi", [(2.75, -0.5)], [48]))
def test_rule_is_cached_and_read_only(family, params, n):
    x, log_w = FAMILIES[family].rule(*params, n)
    again = FAMILIES[family].rule(*params, n)
    assert again[0] is x and again[1] is log_w
    for array in (x, log_w):
        with pytest.raises(ValueError):
            array[0] = 0.0


# Laguerre alone: Jacobi at (9.5, -0.99999) has |log sum w| up to 8.7e-12 on the ladder, above this bound
@pytest.mark.parametrize("family, params, n", cases("laguerre", [(-0.999,), (0.0,), (896.0,), (9000.0,)], [16]))
def test_rule_has_mass_one_on_the_whole_ladder(family, params, n):
    # 9000 is about A beta - 1 on as1_desk at ALPHA_MAX; the rule's check holds at every rung, far inside its tolerance
    assert n == quad_module.LOSS_START_NODES
    while n <= top_rung():
        _, log_w = FAMILIES[family].rule(*params, n)
        assert abs(np.logaddexp.reduce(log_w)) <= quad_module.MASS_TOL / 100
        n = 3 * n // 2


# a = 896 and 5000 at 32 nodes, where roots_genlaguerre's weights are not finite, and large node counts of
# quad.certified's n -> 3n/2 ladders, where they are not at n = 364; at its top rungs, 406 and 609, scipy's largest
# nodes are not finite either, and test_rule_matches_a_50_digit_reference checks the rule instead
@pytest.mark.parametrize("a, n", [(896.0, 32), (5000.0, 32)]
                         + [(a, n) for n in (162, 243, 271, 364) for a in (-0.99, 0.24, 4.25, 120.0)])
def test_laguerre_rule_where_scipy_overflows(a, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, log_w = quad_module.laguerre.__wrapped__(a, n)
    w = np.exp(log_w)
    assert np.all(np.isfinite(x)) and not np.any(np.isnan(log_w))
    # the rule integrates polynomials of degree < 2n exactly: sum 1, mean a+1, second moment (a+1)(a+2)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)
    assert w @ x == pytest.approx(a + 1.0, rel=1e-12)
    assert w @ x**2 == pytest.approx((a + 1.0) * (a + 2.0), rel=1e-12)
    # scipy's nodes and weights, where they are finite; its weights are all finite only below a = 896 and n = 364
    with np.errstate(all="ignore"):
        ref_x, ref_log_w = scipy_laguerre(a, n)
    finite = np.isfinite(ref_x)
    assert finite.sum() >= n - 1
    assert np.allclose(x[finite], ref_x[finite], rtol=1e-10, atol=0.0)
    assert np.all(np.isfinite(np.exp(ref_log_w))) == (a < 896.0 and n < 364)
    finite = np.isfinite(ref_log_w)
    if finite.any():
        assert np.abs(w[finite] - np.exp(ref_log_w[finite])).max() <= 1e-13
        mass = finite & (ref_log_w > math.log(1e-12))
        assert np.abs(log_w[mass] - ref_log_w[mass]).max() <= 1e-10


# ---------------------------------------------------------------------------
# The certificate table: each integral on quad.certified, and how its failure reaches the caller
# ---------------------------------------------------------------------------


def uncertified(what: str, rows: int) -> str:
    """certified's message once the top rung is lowered to the first, so that no row can form an n vs 3n/2 pair."""
    return f"{what}: {rows} row(s) uncertified, no n vs 3n/2 pair within LOSS_MAX_NODES = 16"


@dataclass(frozen=True)
class Integral:
    """A certified integral's row of the certificate table."""

    alphas: tuple           # the alphas its failure modes are pinned at
    density: Callable       # (prior, observations, alpha) -> the kernel whose build or loss runs it
    what: Callable          # (prior, alpha) -> the name its failures begin with
    caller: str             # the function that hands it to quad.certified
    command: str            # the subcommand that reports it


INTEGRALS = {
    "loss": Integral((0.5, 0.0), DENSITIES["best_invariant"],
                     lambda prior, alpha: f"loss quadrature at alpha = {alpha:.6g}", "alpha_divergence_loss",
                     "risk-compare"),
    "constant": Integral(
        (0.5, 0.0), DENSITIES["shrinkage_bayes"],
        lambda prior, alpha: (f"shrinkage constant at alpha = {alpha:.6g}, nu = {prior.nu:.6g}, "
                              f"B = {prior.nu * (prior.problem.n - prior.problem.k) / (1.0 - alpha):.6g}"),
        "_log_integral", "density-eval"),
    # the best invariant rule alone at alpha = -1 needs no shrinkage constant
    "frullani": Integral((-1.0,), DENSITIES["best_invariant"], lambda prior, alpha: "Frullani integral at alpha = -1",
                         "_expected_log", "risk-compare"),
}
INTEGRAL_CASES = [pytest.param(name, alpha, id=f"{name}-{alpha:g}") for name, row in INTEGRALS.items()
                  for alpha in row.alphas]


def test_certified_names_the_integral_and_the_pair_its_gap_belongs_to():
    # a value of 1/n never settles, so the ladder climbs to its top rung; the gap reported is that of the last pair
    # formed, and the message begins with the integral's name: "loss quadrature" and LOSS_TOL by default
    for args, what in (((3,), "loss quadrature"), ((2, "an integral", quad_module.QUAD_TOL, 54), "an integral")):
        with pytest.raises(UnreliableNormalizationError) as raised:
            quad_module.certified(lambda n, index: np.full(index.size, 1.0 / n), *args)
        assert str(raised.value) == (f"{what}: {args[0]} row(s) uncertified, n vs 3n/2 gap "
                                     f"{1 / 406 - 1 / 609:.3e} at 406 vs 609 nodes, the last pair within "
                                     "LOSS_MAX_NODES = 640")


@pytest.mark.parametrize("bad_n", [16, 36])
def test_certified_rejects_a_value_that_is_not_finite(bad_n):
    # a nan gap would never certify and climb the whole ladder, and a nan at the first rung could hide behind a
    # nan gap; either fails at once, naming the integral
    def integral(n, index):
        return np.full(index.size, math.nan if n == bad_n else 1.0 / n)

    with pytest.raises(UnreliableNormalizationError, match=f"^an integral: a row's value is not finite at {bad_n}"):
        quad_module.certified(integral, 2, "an integral", quad_module.QUAD_TOL)


@pytest.mark.parametrize("name, alpha", INTEGRAL_CASES)
def test_each_integral_fails_under_a_lowered_top_rung_naming_itself_and_its_alpha(name, alpha, prob_m3, obs_m3,
                                                                                    monkeypatch):
    # as1_desk's 6-row block, and one observation under two priors of prob_m3 (c != 1, and a long prior tail): each
    # integral certifies, and with no larger rule to compare against none can
    row = INTEGRALS[name]
    as1, as1_prior = designs()["as1_desk"]
    block, theta = block_and_theta(as1, rows=6)
    tails = (PriorSpec(prob_m3, c=[1.0, 1.5, 2.0], nu=0.3), PriorSpec(prob_m3, c=2.0, nu=0.02 / 9))
    runs = [(as1_prior, block, theta, 6)] + [(prior, obs_m3, np.zeros(3), 1) for prior in tails]
    for prior, obs, theta, _ in runs:
        assert np.all(np.isfinite(alpha_divergence_loss(row.density(prior, obs, alpha), theta)))
    monkeypatch.setattr(quad_module, "LOSS_MAX_NODES", quad_module.LOSS_START_NODES)
    for prior, obs, theta, rows in runs:
        with pytest.raises(UnreliableNormalizationError) as raised:
            alpha_divergence_loss(row.density(prior, obs, alpha), theta)
        assert str(raised.value) == uncertified(row.what(prior, alpha), rows)


@pytest.mark.parametrize("name, alpha", INTEGRAL_CASES)
def test_each_integral_failure_propagates_unchanged_through_risk_mc(name, alpha, prob_m3, monkeypatch):
    # a failure stops the run at the first 60-row block, with the integral's own message and traceback
    row, prior = INTEGRALS[name], PriorSpec(prob_m3, nu=0.25)
    monkeypatch.setattr(quad_module, "LOSS_MAX_NODES", quad_module.LOSS_START_NODES)
    params = CanonicalParams(theta=np.zeros(3), mu=np.zeros(0), eta=1.0)
    score = scorer(lambda obs: row.density(prior, obs, alpha), alpha)
    with pytest.raises(UnreliableNormalizationError) as raised:
        risk_mc([score], prob_m3, [params], 60, seed=2)
    assert str(raised.value) == uncertified(row.what(prior, alpha), 60)
    assert row.caller in [entry.name for entry in raised.traceback]


@pytest.mark.parametrize("name, alpha", INTEGRAL_CASES)
def test_each_integral_failure_exits_4_and_writes_nothing(name, alpha, tmp_path, monkeypatch, capsys):
    # risk-compare fails at its first block's best invariant rule (RISK_DOC's 50 rows), before it builds any
    # shrinkage kernel; density-eval at the shrinkage constant of its one observation, at nu = 0.2
    row, prior = INTEGRALS[name], PriorSpec(designs()["as1_desk"][0], nu=0.2)
    monkeypatch.setattr(quad_module, "LOSS_MAX_NODES", quad_module.LOSS_START_NODES)
    if row.command == "risk-compare":
        monkeypatch.setattr(cli, "shrinkage_bayes_kernel", lambda *args: pytest.fail("shrinkage kernel built"))
        config, rows = write_config(tmp_path, dict(RISK_DOC, alphas=[alpha])), RISK_DOC["reps_outer"]
    else:
        config, rows = shrinkage_density_config(tmp_path, alpha, prior.nu), 1
    capsys.readouterr()
    assert cli.main([row.command, "--config", config, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == f"normalization certificate failed: {uncertified(row.what(prior, alpha), rows)}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("nu", [1e-300, 5e-18])
def test_a_B_whose_B_minus_1_rounds_to_minus_1_fails_naming_nu_and_B(nu):
    # as1_desk at alpha = 0 has B = 9 nu: at nu = 5e-18, B = 4.5e-17 is below half an ulp of 1, so B - 1 is -1
    problem, _ = designs()["as1_desk"]
    prior = PriorSpec(problem, nu=nu)
    B = 9.0 * nu
    assert B - 1.0 == -1.0
    block, _ = block_and_theta(problem, rows=4)
    what = f"shrinkage constant at alpha = 0, nu = {nu:.6g}, B = {B:.6g}"
    with pytest.raises(UnreliableNormalizationError, match=re.escape(f"no finite weight ({what})")):
        shrinkage_bayes_kernel(prior, block, 0.0)


@pytest.mark.parametrize("name", ["as1_desk", "case2_small_l"])
@pytest.mark.parametrize("alpha", [0.0, -1.0, 0.9])
@pytest.mark.parametrize("nu_scale", [1e-4, 1e-8])
def test_a_small_nu_certifies(name, alpha, nu_scale):
    # the shrinkage constant's (1-w)^(B-1) tail rides in the Gauss-Jacobi weight, so a small B costs it nothing;
    # the trapezoid rule that took it before failed its certificate at 1e-4 nu_max on as1_desk at alpha = 0
    problem, prior = designs()[name]
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
