"""Domination thresholds, prior reparametrization, eigenvalue spread condition, the prior scale check."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shrinkpred.bounds import condition_d, nu_limits, rescale_C_for_positivity
from shrinkpred.cli import main
from shrinkpred.predictive import PriorSpec

from conftest import synthetic_problem

positive_floats = st.floats(0.05, 20.0, allow_nan=False)


@st.composite
def problems(draw, m=st.integers(1, 8)):
    """A problem with k in 1..6, m drawn from m, n - k in 4..30 and a positive, nonincreasing d of length l."""
    k, m, q = draw(st.integers(1, 6)), draw(m), draw(st.integers(4, 30))
    d = sorted(draw(st.lists(positive_floats, min_size=min(k, m), max_size=min(k, m))), reverse=True)
    return synthetic_problem(n=k + q, k=k, m=m, d=d)


def test_identity_case_frozen_values():
    # d = c = 1 (three components), m = 3, n - k = 9.
    nb = nu_limits(synthetic_problem(12, 3, 3, np.ones(3)), np.ones(3))
    assert nb.nu1 == pytest.approx(16.0 / 75.0, abs=1e-12)
    assert nb.nu2 == pytest.approx(13.0 / 15.0, abs=1e-12)
    assert nb.nu3 == pytest.approx(4.0, abs=1e-12)
    assert nb.nu_max == pytest.approx(16.0 / 75.0, abs=1e-12)
    assert nb.positive


def test_large_c_keeps_nu3_positive():
    problem = synthetic_problem(12, 3, 3, np.ones(3))
    for scale in (1e2, 1e6, 1e12):
        assert nu_limits(problem, np.full(3, scale)).nu3 > 0


def test_single_component_negative_nu1():
    nb = nu_limits(synthetic_problem(12, 3, 1, [1.0]), np.ones(1))
    assert nb.nu1 == pytest.approx(-32.0 / 207.0, abs=1e-12)
    assert nb.nu2 > 0 and nb.nu3 > 0
    assert not nb.positive


@given(problems())
def test_nu2_nu3_always_positive(problem):
    nb = nu_limits(problem, np.ones(problem.l))
    assert nb.nu2 > 0
    assert nb.nu3 > 0


@given(problems(m=st.just(2)), st.floats(0.01, 100.0))
def test_scale_covariance(problem, scale):
    d = problem.d
    c = np.maximum(1.0, d[::-1])
    base = nu_limits(problem, c)
    scaled_problem = synthetic_problem(problem.n, problem.k, problem.m, scale * d)
    if np.all(scale * c >= 1.0):
        scaled = nu_limits(scaled_problem, scale * c)
        assert scaled.nu1 == pytest.approx(base.nu1, rel=1e-9, abs=1e-12)
        assert scaled.nu2 == pytest.approx(base.nu2, rel=1e-9, abs=1e-12)
        assert scaled.nu3 == pytest.approx(base.nu3, rel=1e-9, abs=1e-12)


def test_warning_when_few_residual_dof():
    with pytest.warns(UserWarning):
        nu_limits(synthetic_problem(5, 4, 2, np.ones(2)), np.ones(2))


def test_rescale_noop_when_already_positive():
    assert rescale_C_for_positivity(synthetic_problem(12, 3, 3, np.ones(3)), np.ones(3)) == 1.0


def test_rescale_restores_positivity():
    problem, c0 = synthetic_problem(12, 3, 1, np.ones(1)), np.ones(1)
    g0 = rescale_C_for_positivity(problem, c0)
    assert g0 > 1.0
    nb = nu_limits(problem, g0 * c0)
    assert nb.positive


@given(st.floats(0.2, 50.0), st.floats(0.2, 50.0))
def test_rescale_monotone_in_deficit(d1, d2):
    lo, hi = sorted((d1, d2))
    g_lo = rescale_C_for_positivity(synthetic_problem(12, 3, 1, [lo]), np.ones(1))
    g_hi = rescale_C_for_positivity(synthetic_problem(12, 3, 1, [hi]), np.ones(1))
    assert g_hi >= g_lo - 1e-12


def prior_of_nu(k: int, nu: float, n: int) -> PriorSpec:
    return PriorSpec(synthetic_problem(n, k, k, np.ones(k)), c=np.ones(k), nu=nu, gamma_prior=1.0)


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
            assert condition_d(synthetic_problem(l + 3, l, l, np.full(l, c)))
    assert condition_d(synthetic_problem(12, 3, 3, np.ones(3)))  # 1 <= 2


def test_condition_d_spread_fails():
    assert not condition_d(synthetic_problem(12, 4, 4, [10.0, 1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# One check of the prior scale c
# ---------------------------------------------------------------------------


def bounds_cli(tmp_path, capsys, c):
    """bounds.json of the bounds subcommand on an l = 3 design with prior scale c; a failed run raises its message."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "design": {"type": "as1", "m": 3, "k": 3, "N": 4}, "prior": {"c": c}}))
    if main(["bounds", "--config", str(path), "--out", str(tmp_path / "out")]) != 0:
        raise ValueError(capsys.readouterr().err.split(": ", 1)[1].rstrip("\n"))  # drop the exit path's prefix
    return (tmp_path / "out" / "bounds.json").read_bytes()


def prior_c(problem, c):
    return PriorSpec(problem, c=c, nu=0.2, gamma_prior=1.0).c.tolist()


LIBRARY_ENTRY_POINTS = (prior_c, nu_limits, rescale_C_for_positivity)


@pytest.mark.parametrize("entry", LIBRARY_ENTRY_POINTS + (None,), ids=lambda f: f.__name__ if f else "bounds_cli")
def test_every_entry_point_reads_c_by_the_one_check(as1_problem_n12, tmp_path, capsys, entry):
    # the CLI builds its own l = 3 problem; the library entry points take the replicated l = 3 one
    if entry is None:
        call = lambda c: bounds_cli(tmp_path, capsys, c)
    else:
        call = lambda c: entry(as1_problem_n12, c)
    for c, message in (([1.0, 2.0], "c must have l = 3 entries, got 2"),
                       ([1.0, 2.0, 3.0, 4.0], "c must have l = 3 entries, got 4"),
                       ([1.0, 0.5, 2.0], "c must be finite and >= 1 in every entry, got [1.0, 0.5, 2.0]"),
                       (0.5, "c must be finite and >= 1 in every entry, got 0.5")):
        with pytest.raises(ValueError) as raised:
            call(c)
        assert str(raised.value) == message, (c, str(raised.value))
    assert call(2.0) == call([2.0, 2.0, 2.0])


@pytest.mark.parametrize("c", [[1.0, math.nan, 1.0], [math.inf, 1.0, 1.0], math.nan, math.inf])
def test_a_non_finite_c_is_rejected_where_it_enters(as1_problem_n12, c):
    # a NaN used to pass every check and surface later as a nonpositive variance or a failed certificate
    for entry in LIBRARY_ENTRY_POINTS:
        with pytest.raises(ValueError, match=r"^c must be finite and >= 1 in every entry, got "):
            entry(as1_problem_n12, c)


@pytest.mark.parametrize("key, value, message", [
    ("nu", math.inf, "nu must be positive and finite"),
    ("nu", math.nan, "nu must be positive and finite"),
    ("gamma_prior", math.nan, "gamma_prior must be finite and >= 1"),
    ("gamma_prior", math.inf, "gamma_prior must be finite and >= 1"),
])
def test_a_prior_rejects_a_non_finite_nu_or_gamma_prior(as1_problem_n12, key, value, message):
    args = {"c": np.ones(3), "nu": 0.2, "gamma_prior": 1.0, key: value}
    with pytest.raises(ValueError, match=f"^{message}, got {value!r}$"):
        PriorSpec(as1_problem_n12, **args)
