"""Domination thresholds, prior reparametrization, eigenvalue spread condition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shrinkpred.bounds import condition_d, nu_limits, rescale_C_for_positivity
from shrinkpred.canonical import CanonicalProblem
from shrinkpred.predictive import PriorSpec

positive_floats = st.floats(0.05, 20.0, allow_nan=False)


def test_identity_case_frozen_values():
    # d = c = 1 (three components), m = 3, n - k = 9.
    nb = nu_limits(np.ones(3), np.ones(3), m=3, n=12, k=3)
    assert nb.nu1 == pytest.approx(16.0 / 75.0, abs=1e-12)
    assert nb.nu2 == pytest.approx(13.0 / 15.0, abs=1e-12)
    assert nb.nu3 == pytest.approx(4.0, abs=1e-12)
    assert nb.nu_max == pytest.approx(16.0 / 75.0, abs=1e-12)
    assert nb.positive


def test_large_c_keeps_nu3_positive():
    for scale in (1e2, 1e6, 1e12):
        nb = nu_limits(np.ones(3), np.full(3, scale), m=3, n=12, k=3)
        assert nb.nu3 > 0


def test_single_component_negative_nu1():
    nb = nu_limits(np.ones(1), np.ones(1), m=1, n=12, k=3)
    assert nb.nu1 == pytest.approx(-32.0 / 207.0, abs=1e-12)
    assert nb.nu2 > 0 and nb.nu3 > 0
    assert not nb.positive


@given(
    st.lists(positive_floats, min_size=1, max_size=6),
    st.integers(1, 8),
    st.integers(4, 30),
)
def test_nu2_nu3_always_positive(ds, m, q):
    d = np.asarray(ds)
    nb = nu_limits(d, np.ones(d.size), m=m, n=q + 3, k=3)
    assert nb.nu2 > 0
    assert nb.nu3 > 0


@given(
    st.lists(positive_floats, min_size=1, max_size=6),
    st.floats(0.01, 100.0),
)
def test_scale_covariance(ds, scale):
    d = np.asarray(ds)
    c = np.maximum(1.0, d[::-1])
    base = nu_limits(d, c, m=2, n=14, k=4)
    scaled = nu_limits(scale * d, np.maximum(1.0, scale * c), m=2, n=14, k=4)
    if np.all(scale * c >= 1.0):
        assert scaled.nu1 == pytest.approx(base.nu1, rel=1e-9, abs=1e-12)
        assert scaled.nu2 == pytest.approx(base.nu2, rel=1e-9, abs=1e-12)
        assert scaled.nu3 == pytest.approx(base.nu3, rel=1e-9, abs=1e-12)


def test_warning_when_few_residual_dof():
    with pytest.warns(UserWarning):
        nu_limits(np.ones(2), np.ones(2), m=2, n=5, k=4)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        nu_limits(np.ones(2), np.full(2, 0.5), m=2, n=12, k=3)
    with pytest.raises(ValueError):
        nu_limits(-np.ones(2), np.ones(2), m=2, n=12, k=3)
    with pytest.raises(ValueError):
        nu_limits(np.ones(2), np.ones(2), m=2, n=3, k=3)


def test_rescale_noop_when_already_positive():
    assert rescale_C_for_positivity(np.ones(3), np.ones(3), m=3, n=12, k=3) == 1.0


def test_rescale_restores_positivity():
    d, c0 = np.ones(1), np.ones(1)
    g0 = rescale_C_for_positivity(d, c0, m=1, n=12, k=3)
    assert g0 > 1.0
    nb = nu_limits(d, g0 * c0, m=1, n=12, k=3)
    assert nb.positive


@given(st.floats(0.2, 50.0), st.floats(0.2, 50.0))
def test_rescale_monotone_in_deficit(d1, d2):
    lo, hi = sorted((d1, d2))
    g_lo = rescale_C_for_positivity(np.array([lo]), np.ones(1), m=1, n=12, k=3)
    g_hi = rescale_C_for_positivity(np.array([hi]), np.ones(1), m=1, n=12, k=3)
    assert g_hi >= g_lo - 1e-12


def prior_of_nu(k: int, nu: float, n: int) -> PriorSpec:
    problem = CanonicalProblem(n=n, k=k, m=k, d=np.ones(k), Q=np.eye(k), coef_transform=np.eye(k))
    return PriorSpec(problem, c=np.ones(k), nu=nu, gamma_prior=1.0)


def test_nu_a_round_trip_values():
    assert prior_of_nu(3, 5.0 / 9.0, 12).a == pytest.approx(0.0, abs=1e-15)
    eps = 1e-6
    assert prior_of_nu(3, 2 * eps / 9, 12).a == pytest.approx(-(3 + 2) / 2 + eps, abs=1e-15)


@given(st.integers(1, 10), st.floats(1e-3, 50.0), st.integers(2, 40))
def test_nu_a_inverse_pair(k, nu, q):
    n = k + q
    a = prior_of_nu(k, nu, n).a
    assert (k + 2 * a + 2) / (n - k) == pytest.approx(nu, rel=1e-12, abs=1e-12)


def test_nonpositive_nu_rejected():
    for nu in (0.0, -10.0 / 9.0):
        with pytest.raises(ValueError, match="nu must be positive"):
            prior_of_nu(3, nu, 12)


def test_condition_d_equal_eigenvalues():
    for l in range(2, 7):
        for c in (0.1, 1.0, 10.0):
            assert condition_d(np.full(l, c))
    assert condition_d(np.ones(3))  # 1 <= 2


def test_condition_d_spread_fails():
    assert not condition_d(np.array([10.0, 1.0, 1.0, 1.0]))


def test_condition_d_requires_sorted():
    with pytest.raises(ValueError):
        condition_d(np.array([1.0, 2.0]))
