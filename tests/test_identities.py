"""Numeric verification of the quadratic-form, beta-integral and chi-square identities."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betaln

import shrinkpred.identities as identities_module
from shrinkpred.canonical import CanonicalProblem
from shrinkpred.identities import beta_integral_identity, chi_square_identity, lemma_identity_residual
from shrinkpred.predictive import PriorSpec, shrinkage_components

from oracles import chi_square_identity_mc


def random_instance(rng):
    l = int(rng.integers(1, 5))
    m = l + int(rng.integers(0, 4))
    Q = np.linalg.qr(rng.standard_normal((m, l)))[0]
    return l, m, Q


def test_lemma_random_instances():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        l, m, Q = random_instance(rng)
        F = rng.uniform(0.0, 1.0, l)
        ds = rng.uniform(0.1, 3.0, l)
        y, v = rng.standard_normal(m), rng.standard_normal(l)
        lhs, rhs = lemma_identity_residual(F, ds, Q, y, v)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    assert worst <= 1e-8


def test_quadratic_forms_match_closed_expressions():
    # The direct quadratic forms at the two relevant F settings must agree
    # with the assembled covariance/mean/residual expressions.
    rng = np.random.default_rng(77)
    for _ in range(50):
        l, m, Q = random_instance(rng)
        alpha = rng.uniform(-1.0, 0.95)
        d = np.sort(rng.uniform(0.1, 3.0, l))[::-1]
        c = rng.uniform(1.0, 5.0, l)
        y, v = rng.standard_normal(m), rng.standard_normal(l)
        problem = CanonicalProblem(n=20, k=l, m=m, d=d, Q=Q,
                                   coef_transform=np.eye(l))
        prior = PriorSpec(problem, c=c, nu=(l + 2.0) / (20 - l), gamma_prior=1.0)  # a = 0
        e_b, theta_b, r = shrinkage_components(prior, alpha, v)
        ds = (1.0 - alpha) / 2.0 * d
        scale = 2.0 / (1.0 - alpha)

        # F = I: quadratic form around Qv with covariance sigma_u
        direct_a, _ = lemma_identity_residual(np.ones(l), ds, Q, y, v)
        ru = y - Q @ v
        sigma_u = scale * np.eye(m) + (Q * d) @ Q.T
        closed_a = scale * float(ru @ np.linalg.solve(sigma_u, ru))
        assert abs(direct_a - closed_a) <= 1e-8 * (1.0 + abs(direct_a))

        # F = I - C^{-1}: shrunken mean, covariance sigma_b, residual r
        direct_b, _ = lemma_identity_residual(1.0 - 1.0 / c, ds, Q, y, v)
        rb = y - Q @ theta_b
        sigma_b = scale * np.eye(m) + (Q * e_b) @ Q.T
        closed_b = scale * (float(rb @ np.linalg.solve(sigma_b, rb)) + r)
        assert abs(direct_b - closed_b) <= 1e-8 * (1.0 + abs(direct_b))


def test_beta_integral_random_instances():
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(50):
        a_exp = rng.uniform(-0.45, 2.5)
        b_exp = rng.uniform(-0.45, 2.5)
        w = rng.uniform(0.05, 8.0)
        quad_val, closed = beta_integral_identity(a_exp, b_exp, w)
        worst = max(worst, abs(quad_val - closed) / closed)
    assert worst <= 1e-6


def test_beta_integral_matches_quadpack_and_betaln():
    # the Gauss-Jacobi quadrature and the lgamma closed form against scipy's QUADPACK and betaln
    rng = np.random.default_rng(97)
    for _ in range(20):
        a_exp, b_exp, w = rng.uniform(-0.45, 2.5), rng.uniform(-0.45, 2.5), rng.uniform(0.05, 8.0)
        quad_val, closed = beta_integral_identity(a_exp, b_exp, w)
        ref, _ = integrate.quad(lambda t: t**a_exp * (1.0 - t) ** b_exp * (1.0 + w * t) ** (-(a_exp + b_exp + 2.0)),
                                0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200)
        assert quad_val == pytest.approx(ref, rel=1e-9)
        assert closed == pytest.approx(math.exp(betaln(a_exp + 1.0, b_exp + 1.0) - (a_exp + 1.0) * math.log(w + 1.0)),
                                       rel=1e-13)


def test_beta_integral_domain():
    with pytest.raises(ValueError):
        beta_integral_identity(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        beta_integral_identity(0.5, -1.5, 1.0)


def test_beta_integral_working_domain():
    # the Gauss-Jacobi rule's weight is the integrand's own t^a (1-t)^b, so exponents near -1 cost it nothing; the
    # logit-scale trapezoid rule that took it before could not reach -0.998's tail within its interval cap
    for a_exp in (-0.99, -0.995, -0.999):
        quad_val, closed = beta_integral_identity(a_exp, 5.0, -0.9)
        assert quad_val == pytest.approx(closed, rel=1e-14)


def test_chi_square_identity_linear_phi():
    # phi(w) = w collapses both sides to E[S] = CHISQ_DOF
    lhs, rhs = chi_square_identity(lambda w: w, lambda w: np.ones_like(w))
    assert lhs == pytest.approx(9.0, rel=0, abs=1e-12)
    assert rhs == pytest.approx(9.0, rel=0, abs=1e-12)


def test_chi_square_identity_shrinkage_phi():
    # the suite's phi: the quadrature against 100 000 paired draws, each side within 4 standard errors
    phi, phi_prime = identities_module._phi, identities_module._phi_prime
    lhs, rhs = chi_square_identity(phi, phi_prime)
    mc_lhs, mc_rhs = chi_square_identity_mc(phi, phi_prime, n_mc=100_000, seed=29)
    assert abs(lhs - mc_lhs.mean) <= 4 * mc_lhs.std_error
    assert abs(rhs - mc_rhs.mean) <= 4 * mc_rhs.std_error
    assert abs(lhs - rhs) <= identities_module.CHISQ_TOL * rhs
