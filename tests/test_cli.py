"""Command line front-end: exit codes, file outputs, byte-level determinism."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from shrinkpred.canonical import (
    BLOCK_SIZE,
    SIGMA2_RANGE,
    CanonicalObservation,
    CanonicalParams,
    as1_design,
    as1_problem,
    canonicalize,
    params_to_canonical,
    problem_from_dict,
    problem_to_dict,
    replication_rng,
)
from shrinkpred.bounds import nu_limits, prior_scale, rescale_C_for_positivity
from shrinkpred.cli import _fmt, build_prior, build_problem, load_config, main
from shrinkpred.predictive import (
    PriorSpec,
    best_invariant_kernel,
    plugin_bayes_estimators,
    shrinkage_bayes_kernel,
    umvu_estimators,
)
from shrinkpred.risk import risk_mc, scorer

from conftest import (AS1_DESIGN, AS1_XTILDE, CONFIGS, RISK_DOC, child_env, make_case2_design, shipped,
                      write_config)

COMMANDS = ("canonicalize", "bounds", "identities", "risk-compare", "density-eval")


def test_canonicalize_as1(tmp_path):
    cfg = write_config(tmp_path, {"seed": 5, "design": AS1_DESIGN})
    out = tmp_path / "out"
    assert main(["canonicalize", "--config", cfg, "--out", str(out)]) == 0
    problem = json.loads((out / "problem.json").read_text())
    assert problem["d"] == [0.25, 0.25, 0.25]
    assert problem["case"] == "I" and problem["n"] == 12
    report = json.loads((out / "canonicalize_report.json").read_text())
    assert report["all_pass"]


def test_canonicalize_explicit(tmp_path):
    rng = np.random.default_rng(3)
    cfg = write_config(tmp_path, {
        "design": {
            "type": "explicit",
            "X": rng.standard_normal((10, 2)).tolist(),
            "Xtilde": rng.standard_normal((4, 2)).tolist(),
        }
    })
    assert main(["canonicalize", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


def test_canonicalize_matrices_from_csv(tmp_path):
    rng = np.random.default_rng(8)
    x_path, xt_path = tmp_path / "X.csv", tmp_path / "Xt.csv"
    np.savetxt(x_path, rng.standard_normal((10, 2)), delimiter=",")
    np.savetxt(xt_path, rng.standard_normal((1, 2)), delimiter=",")
    cfg = write_config(tmp_path, {
        "design": {"type": "explicit", "X": str(x_path), "Xtilde": str(xt_path)}
    })
    out = tmp_path / "o"
    assert main(["canonicalize", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "problem.json").read_text())["case"] == "II"
    # the replicated design's xtilde reads like the other design matrices
    np.savetxt(xt_path, rng.standard_normal((3, 3)), delimiter=",")
    cfg = write_config(tmp_path, {"design": dict(AS1_DESIGN, xtilde=str(xt_path))}, "as1.json")
    assert main(["canonicalize", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "problem.json").read_text())["d"] == [0.25, 0.25, 0.25]


def badly_scaled_design(seed, n, k, m):
    """X with its last column scaled by 1e-5, so cond(X'X) ~ 1e10, and Xtilde's first column by 1e-3."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k))
    X[:, -1] *= 1e-5
    Xt = rng.standard_normal((m, k))
    Xt[:, 0] *= 1e-3
    return X, Xt


def whole_spectrum_design(seed, n, k, m):
    """X = U diag(logspace(0, -5, k)) V' with random orthonormal U and V, so cond(X'X) = 1e10
    with no column scaling to undo; Xtilde is standard normal."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, k)))[0]
    V = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return (U * np.logspace(0, -5, k)) @ V.T, rng.standard_normal((m, k))


@pytest.mark.parametrize("design,seed,n,k,m", [
    pytest.param(badly_scaled_design, 50, 12, 3, 5, id="50-12-3-5"),
    pytest.param(badly_scaled_design, 2, 12, 4, 2, id="2-12-4-2"),
    pytest.param(whole_spectrum_design, 0, 12, 3, 5, id="spectrum-0-12-3-5"),
    pytest.param(whole_spectrum_design, 1, 12, 3, 5, id="spectrum-1-12-3-5"),
    pytest.param(whole_spectrum_design, 0, 12, 4, 2, id="spectrum-0-12-4-2"),
    pytest.param(whole_spectrum_design, 1, 12, 4, 2, id="spectrum-1-12-4-2"),
])
def test_canonicalize_ill_conditioned_design(tmp_path, design, seed, n, k, m):
    # cond(X'X) near 1e10, from badly scaled columns or spread over the whole
    # spectrum: the reduction must keep every d positive and every check of
    # the report within its 1e-8 tolerance.
    X, Xt = design(seed, n, k, m)
    cond = np.linalg.cond(X.T @ X)
    if design is badly_scaled_design:
        assert 1e10 < cond < 1e11
    else:
        assert cond == pytest.approx(1e10, rel=1e-3)
    cfg = write_config(tmp_path, {"design": {"type": "explicit", "X": X.tolist(), "Xtilde": Xt.tolist()}})
    out = tmp_path / "o"
    assert main(["canonicalize", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "canonicalize_report.json").read_text())["all_pass"]


def test_ill_conditioned_random_xtilde_exits_2(tmp_path, monkeypatch, capsys):
    import shrinkpred.cli as cli_mod

    draws = []

    class IllConditioned:
        def standard_normal(self, shape):
            draws.append(shape)
            return np.eye(*shape) * np.logspace(0, -7, shape[1])  # full rank, cond 1e7

    monkeypatch.setattr(cli_mod, "replication_rng", lambda *args, **kwargs: IllConditioned())
    cfg = write_config(tmp_path, {"seed": 1, "design": AS1_DESIGN})
    for command in ("canonicalize", "bounds"):
        draws.clear()
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("canonicalization failed:")
        assert len(draws) == 10
    assert not (tmp_path / "o").exists()


def test_bounds_output(tmp_path):
    cfg = write_config(tmp_path, {"seed": 1, "design": AS1_DESIGN})
    out = tmp_path / "out"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "bounds.json").read_text())
    assert set(doc) == {"nu1", "nu2", "nu3", "nu_max", "positive", "g0", "condition_d"}
    assert doc["positive"] is True
    assert doc["nu_max"] == pytest.approx(min(doc["nu1"], doc["nu2"], doc["nu3"]))
    assert doc["g0"] == 1.0
    assert doc["condition_d"] is True  # equal eigenvalues satisfy the spread condition


def test_identities_pass(tmp_path):
    cfg = write_config(tmp_path, {"seed": 2})
    out = tmp_path / "out"
    assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "identities.json").read_text())
    assert doc["all_pass"]
    assert doc["lemma_quadratic_form"]["instances"] == 200
    chisq = doc["chi_square_identity"]
    assert list(chisq) == ["lhs", "rhs", "rel_gap", "tolerance", "pass"]
    assert chisq["rel_gap"] <= chisq["tolerance"] <= 1e-9


def test_identities_tight_tolerance_fails(tmp_path, monkeypatch):
    import shrinkpred.identities as identities_mod

    # the beta check's Gauss-Jacobi rule agrees with the closed form to a few 1e-15, so ask for 1e-17
    monkeypatch.setattr(identities_mod, "BETA_TOL", 1e-17)
    monkeypatch.setattr(identities_mod, "LEMMA_TOL", 1e-14)
    cfg = write_config(tmp_path, {"seed": 2})
    out = tmp_path / "out"
    assert main(["identities", "--config", cfg, "--out", str(out)]) == 3
    doc = json.loads((out / "identities.json").read_text())
    assert not doc["all_pass"]
    assert not doc["beta_integral"]["pass"]


def test_identities_catch_a_phi_prime_half_a_percent_off(tmp_path, monkeypatch):
    # 1.005 phi' moves the exact gap by about 1.5e-3; the 100 000-draw Monte Carlo check it
    # replaces had a 4-SE bar of 1.0e-2 at seed 1 and passed it
    import shrinkpred.identities as identities_mod

    phi_prime = identities_mod._phi_prime
    monkeypatch.setattr(identities_mod, "_phi_prime", lambda w: 1.005 * phi_prime(w))
    cfg = write_config(tmp_path, {"seed": 1})
    out = tmp_path / "out"
    assert main(["identities", "--config", cfg, "--out", str(out)]) == 3
    doc = json.loads((out / "identities.json").read_text())
    chisq = doc["chi_square_identity"]
    assert chisq["pass"] is False and doc["all_pass"] is False
    assert chisq["lhs"] - chisq["rhs"] > 1e-3


EXPLICIT_DESIGN = {"type": "explicit", "X": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]], "Xtilde": [[1.0, 0.0]]}


@pytest.mark.parametrize("c, g0", [("identity", 1.602631578947368), (1.5, 1.0684210526315785), (3.0, 1.0)])
def test_the_prior_scale_is_always_g0_times_the_configured_c(tmp_path, c, g0):
    # n - k = 2 and l = 1; at c = 1 nu1 <= 0, so the positivity rescale g0 lifts C until nu1 > 0
    design = dict(EXPLICIT_DESIGN, X=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.5], [1.0, 2.0]])
    path = write_config(tmp_path, {"seed": 1, "design": design, "prior": {"c": c}})
    assert main(["bounds", "--config", path, "--out", str(tmp_path / "o")]) == 0
    bounds = json.loads((tmp_path / "o" / "bounds.json").read_text())
    assert bounds["g0"] == g0 and bounds["nu1"] > 0
    cfg = load_config(path)
    problem, _, _ = build_problem(cfg)
    assert nu_limits(problem, 1.0).nu1 <= 0
    configured = 1.0 if c == "identity" else c
    assert build_prior(cfg, problem).c.tolist() == [g0 * configured]



def test_bounds_reports_bounds_that_are_not_positive(tmp_path):
    # n - k = 1 and the default nu: nu2 < 0 at every C, so no prior takes the cap, yet bounds reports it at C = g0 I
    design = {"type": "explicit", "X": [[1.0, 0.2, 0.1], [0.3, 1.0, -0.4], [0.5, -0.7, 1.2], [1.1, 0.9, 0.3]],
              "Xtilde": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    path = write_config(tmp_path, {"seed": 3, "design": design})
    with pytest.warns(UserWarning, match="n - k >= 2"):
        assert main(["bounds", "--config", path, "--out", str(tmp_path / "o")]) == 0
    bounds = json.loads((tmp_path / "o" / "bounds.json").read_text())
    assert bounds["g0"] > 1 and bounds["nu1"] > 0 and bounds["nu2"] < 0 and bounds["positive"] is False
    cfg = load_config(path)
    problem = build_problem(cfg)[0]
    with pytest.warns(UserWarning, match="n - k >= 2"):
        assert bounds["nu_max"] == nu_limits(problem, PriorSpec.minimax_scale(problem)).nu_max
    with pytest.warns(UserWarning, match="n - k >= 2"), pytest.raises(ValueError, match="^nu bounds are not positive"):
        build_prior(cfg, problem)

PRIOR_DESIGNS = ["as1_desk", "case2_small_l", "case2_small_l_g0"]


def prior_design(tmp_path, name, prior=None):
    """The config at name with prior section prior, and its problem; case2_small_l_g0 takes Xtilde x 3 (g0 = 4.2525)."""
    doc = shipped(name)
    cfg = load_config(write_config(tmp_path, dict(doc, prior=doc["prior"] if prior is None else prior)))
    return cfg, build_problem(cfg)[0]


def reference_prior(problem, c, nu=None, gamma_prior=1.0, rescale=False):
    """(c, nu, gamma_prior, a) written out: C = c, or g0 c if rescale, and nu the domination cap at C unless set.

    None where that cap is not positive, so that no prior takes it.
    """
    c = prior_scale(c, problem.l)
    if rescale:
        c = prior_scale(rescale_C_for_positivity(problem, c) * c, problem.l)
    if nu is None:
        nb = nu_limits(problem, c)
        if not nb.positive:
            return None
        nu = nb.nu_max
    n, k = problem.n, problem.k
    return c.tolist(), float(nu), float(gamma_prior), (float(nu) * (n - k) - k - 2.0) / 2.0


def prior_fields(prior):
    return prior.c.tolist(), prior.nu, prior.gamma_prior, prior.a


@pytest.mark.parametrize("name", PRIOR_DESIGNS)
def test_the_constructor_takes_c_as_given_and_the_cap_at_c(tmp_path, name):
    # c as given and nu the domination cap at c unless set, bit for bit; below c = g0 the g0 design's cap is not positive
    _, problem = prior_design(tmp_path, name)
    for c in (1.0, 4.5, np.linspace(1.5, 5.0, problem.l).tolist()):
        for nu in (None, 0.3):
            for gamma_prior in (1.0, 2.5):
                expected = reference_prior(problem, c, nu, gamma_prior)
                if expected is None:
                    assert name.endswith("_g0") and np.max(c) < 4.2525
                    with pytest.raises(ValueError, match="^nu bounds are not positive"):
                        PriorSpec(problem, c, nu, gamma_prior)
                    continue
                assert prior_fields(PriorSpec(problem, c=c, nu=nu, gamma_prior=gamma_prior)) == expected
    assert prior_fields(PriorSpec(problem, c=4.5)) == reference_prior(problem, 4.5)


@pytest.mark.parametrize("name", PRIOR_DESIGNS)
def test_build_prior_and_minimax_default_take_g0_times_c_and_the_cap_there(tmp_path, name):
    # C = g0 C0 with g0 the positivity rescale at C0, "identity" C0 = 1, then nu the cap at C unless set; bit for bit
    for c in ("identity", 1.5, [1.5, 2.0, 3.0]):
        for nu in (None, 0.3):
            for gamma_prior in (1.0, 2.5):
                prior = {"c": c, "gamma_prior": gamma_prior, **({} if nu is None else {"nu": nu})}
                cfg, problem = prior_design(tmp_path, name, prior)
                if isinstance(c, list) and problem.l != 3:
                    continue
                c0 = 1.0 if c == "identity" else c
                expected = reference_prior(problem, c0, nu, gamma_prior, rescale=True)
                assert prior_fields(build_prior(cfg, problem)) == expected
                assert prior_fields(PriorSpec.minimax_default(problem, c0, nu, gamma_prior)) == expected
                assert PriorSpec.minimax_scale(problem, c0).tolist() == expected[0]
    cfg, problem = prior_design(tmp_path, name)
    assert cfg.prior.c == "identity"
    assert prior_fields(PriorSpec.minimax_default(problem)) == prior_fields(build_prior(cfg, problem))


def test_risk_compare_rows_and_determinism(tmp_path):
    # reruns give the same bytes: tests/test_cli_runs.py compares every output of its four child processes
    cfg = write_config(tmp_path, RISK_DOC)
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    lines = (tmp_path / "a" / "risk_compare.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["procedure", "alpha", "theta_norm", "theta_direction", "sigma2", "reps",
                      "risk_mean", "risk_se", "minimax_risk", "below_baseline_3se"]
    # alpha = 1: three plug-in procedures; alpha = 0: two density rules; 2 points each
    assert len(lines) - 1 == 2 * 3 + 2 * 2
    procs = {row.split(",")[0] for row in lines[1:]}
    assert procs == {"umvu", "shrink_plugin", "stein_variance", "best_invariant", "shrinkage_bayes"}
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[3] == "0"  # no theta_directions configured
        assert int(cells[5]) >= 50 and float(cells[7]) >= 0.0
        # the minimax constant is the alpha = 1 baseline only
        assert (cells[8] != "") == (cells[1] == "1")
        if cells[0] == "umvu":
            mean, se, mr = float(cells[6]), float(cells[7]), float(cells[8])
            assert abs(mean - mr) < 3 * se


@pytest.mark.parametrize("s2", SIGMA2_RANGE)
def test_risks_at_the_ends_of_the_sigma2_range_equal_those_at_sigma2_1(as1_problem_n12, s2):
    # risk_mc scores each point in units of sigma, so only the rounding of theta/sigma (an ulp at sigma = 1e+-50)
    # separates the risks; alpha = 0.99, whose losses amplify it most, is held to 1e-11
    problem, sigma = as1_problem_n12, math.sqrt(s2)
    prior = PriorSpec(problem)
    direction = np.ones(3) / math.sqrt(3.0)
    for alpha, tol in ((1.0, 1e-14), (0.0, 1e-14), (-1.0, 1e-14), (0.99, 1e-11)):
        if alpha == 1.0:
            rules, reps = [lambda o: umvu_estimators(problem, o), lambda o: plugin_bayes_estimators(prior, o)], 500
        else:
            rules, reps = [lambda o: best_invariant_kernel(problem, o, alpha),
                           lambda o: shrinkage_bayes_kernel(prior, o, alpha)], 100
        scorers = [scorer(rule, alpha) for rule in rules]
        risks = []
        for scale in (1.0, sigma):
            points = [CanonicalParams(theta=t * scale * direction, mu=np.zeros(0), eta=1.0 / scale ** 2)
                      for t in (0.0, 2.0)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                risks.append(risk_mc(scorers, problem, points, reps, seed=1).mean(axis=-1))
        assert np.allclose(risks[1], risks[0], rtol=tol, atol=0), (alpha, risks)


def test_risk_compare_rows_have_unique_keys(tmp_path):
    # two directions at each nonzero norm: the direction column tells their rows apart
    doc = dict(RISK_DOC, alphas=[1.0], grid={
        "theta_directions": [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]], "theta_norms": [0.0, 2.0], "sigma2": [1.0]})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["risk-compare", "--config", cfg, "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "risk_compare.csv").read_text().strip().split("\n")[1:]]
    keys = [(r[0], r[1], r[2], r[3], r[4]) for r in rows]
    assert len(rows) == 3 * 3 and len(set(keys)) == len(keys)
    assert sorted({(r[2], r[3]) for r in rows}) == [("0", "0"), ("2", "0"), ("2", "1")]


@pytest.mark.parametrize("config, blocks", [("as1_desk", [0, 1, 2, 3, 4, 0]), ("case2_small_l", list(range(13)))])
def test_risk_compare_draws_each_block_once(tmp_path, monkeypatch, config, blocks):
    # one risk_mc call per alpha covers the whole grid, so each keyed block is drawn
    # once, in order, for all points: ceil(20000/4096) + ceil(500/4096) on as1_desk
    # (7 points, 42 draws point by point) and ceil(50000/4096) on case2_small_l
    # (3 points, 39)
    import shrinkpred.risk as risk_module

    calls = []
    original = risk_module.simulate_observation

    def counted(problem, seed, block=0):
        calls.append(block)
        return original(problem, seed, block)

    monkeypatch.setattr(risk_module, "simulate_observation", counted)
    path = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    assert main(["risk-compare", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert calls == blocks


def test_risk_compare_seed_override(tmp_path):
    cfg = write_config(tmp_path, RISK_DOC)
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["risk-compare", "--config", cfg, "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["risk-compare", "--config", cfg, "--out", str(out_b), "--seed", "100"]) == 0
    assert (out_a / "risk_compare.csv").read_bytes() != (out_b / "risk_compare.csv").read_bytes()


def test_risk_compare_without_directions_takes_the_first_axis(tmp_path):
    # an empty list of directions, like none, means the first axis (an empty list of norms, variances or alphas is a
    # REJECTED row)
    cfg = write_config(tmp_path, dict(RISK_DOC, grid={"theta_directions": [], "theta_norms": [2.0], "sigma2": [1.0]}))
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "axis")]) == 0
    rows = (tmp_path / "axis" / "risk_compare.csv").read_text().strip().split("\n")[1:]
    assert rows and all(row.split(",")[3] == "0" for row in rows)


def test_density_eval(tmp_path):
    cfg1 = write_config(tmp_path, {"seed": 5, "design": AS1_DESIGN}, "c1.json")
    out = tmp_path / "out"
    assert main(["canonicalize", "--config", cfg1, "--out", str(out)]) == 0
    pts = tmp_path / "points.csv"
    rows = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5], [2.0, 2.0, 2.0]])
    np.savetxt(pts, rows, delimiter=",")
    cfg2 = write_config(tmp_path, {
        "seed": 5,
        "density": {
            "problem": str(out / "problem.json"),
            "observation": {"v": [0.5, -0.2, 1.0], "v_star": [], "s": 8.0},
            "type": "best_invariant",
            "alpha": 0.0,
            "points": str(pts),
        },
    }, "c2.json")
    assert main(["density-eval", "--config", cfg2, "--out", str(out)]) == 0
    lines = (out / "density_eval.csv").read_text().strip().split("\n")
    assert lines[0].split(",") == [
        "ytilde_1", "ytilde_2", "ytilde_3",
        "log_density_unnormalized", "log_norm_const", "log_density",
    ]
    assert len(lines) == 4
    for row in lines[1:]:
        cells = [float(x) for x in row.split(",")]
        assert cells[5] == pytest.approx(cells[3] + cells[4], rel=1e-12)


DENSITY_BUILDERS = {
    "best_invariant": lambda problem, prior, obs: best_invariant_kernel(problem, obs, 0.3),
    "shrinkage_bayes": lambda problem, prior, obs: shrinkage_bayes_kernel(prior, obs, 0.3),
    "plugin": lambda problem, prior, obs: plugin_bayes_estimators(prior, obs),
}


@pytest.mark.parametrize("kind", sorted(DENSITY_BUILDERS))
def test_density_eval_bytes_match_cell_by_cell_rendering(tmp_path, kind):
    out = tmp_path / "out"
    assert main(["canonicalize", "--config", write_config(tmp_path, {"seed": 5, "design": AS1_DESIGN}, "c1.json"),
                 "--out", str(out)]) == 0
    # one row past a block boundary, with a signed zero, the least subnormal, a
    # huge value and values that need all 17 significant digits
    rows = 2.5 * np.random.default_rng(21).standard_normal((BLOCK_SIZE + 3, 3))
    rows[:3] = [[-0.0, 5e-324, 1e300], [0.1, 1 / 3, -2 / 3], [-5e-324, 2.2250738585072014e-308, 1e-300]]
    rows[BLOCK_SIZE - 1:BLOCK_SIZE + 1, 0] = [-0.0, 0.30000000000000004]
    # the edges of the vectorized renderer's range (1e-6, 1e17) and of %g's layouts, between the rows
    # above that fall back to %-formatting: 1e-6 and 1e17 and their neighbours, X = -5 / -4 and 16
    rows[3:8] = [[np.nextafter(1e-6, 1), -np.nextafter(1e-6, 0), 1e-6],
                 [9.9999999999999991e-05, 1e-4, -1.2345e-5],
                 [np.nextafter(1e17, 0), 1e16, -12345678901234567.0],
                 [1e-5, -np.nextafter(1e-4, 0), 2.5e-6],
                 [np.nextafter(1e17, 1e18), 0.5, 1250000000000000.25]]
    rows[8] = [np.inf, 0.5, -np.inf]   # infinite coordinates are accepted
    pts = tmp_path / "points.csv"
    np.savetxt(pts, rows, delimiter=",", fmt="%.17g")
    obs_doc = {"v": [0.5, -0.2, 1.0], "v_star": [], "s": 8.0}
    cfg = write_config(tmp_path, {
        "seed": 5,
        # the plug-in normal is the alpha = 1 density and takes no alpha
        "density": dict({"problem": str(out / "problem.json"), "observation": obs_doc, "type": kind,
                         "points": str(pts)}, **({} if kind == "plugin" else {"alpha": 0.3})),
    }, "c2.json")
    # the 1e300 and infinite coordinates put the row's density at 0: log density -inf, with no RuntimeWarning
    assert main(["density-eval", "--config", cfg, "--out", str(out)]) == 0
    problem = problem_from_dict(json.loads((out / "problem.json").read_text()))
    obs = CanonicalObservation(v=obs_doc["v"], v_star=obs_doc["v_star"], s=obs_doc["s"])
    dens = DENSITY_BUILDERS[kind](problem, build_prior(load_config(cfg), problem), obs)
    log_u = dens.log_unnormalized(rows)
    assert log_u[0] == log_u[8] == -math.inf
    lines = ["ytilde_1,ytilde_2,ytilde_3,log_density_unnormalized,log_norm_const,log_density"]
    for row, lu in zip(rows, log_u):
        cells = [_fmt(x) for x in row]
        cells += [_fmt(lu), _fmt(dens.log_const), _fmt(lu + dens.log_const)]
        lines.append(",".join(cells))
    assert (out / "density_eval.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_no_as1_subcommand_tiles_x(tmp_path, monkeypatch):
    # the N-fold X of the replicated design grew memory with N; canonicalize reports on sqrt(N) R instead, R the
    # triangular factor of Xtilde, which has the same Gram matrix N Xtilde'Xtilde (ACCEPTED's as1 rows)
    import shrinkpred.canonical as canonical_module
    import shrinkpred.cli as cli_module

    def refuse(*args):
        raise AssertionError("as1_design called")

    np.savetxt(tmp_path / "points.csv", np.zeros((2, 3)), delimiter=",")
    density = {"problem": str(tmp_path / "canonicalize" / "problem.json"), "type": "shrinkage_bayes", "alpha": 0.0,
               "observation": {"v": [1.0, -0.5, 0.3], "v_star": [], "s": 7.5}, "points": str(tmp_path / "points.csv")}
    cfg = write_config(tmp_path, shipped("as1_desk", alphas=[1.0, 0.0], reps=100, reps_outer=50, density=density))
    assert not hasattr(cli_module, "as1_design")
    monkeypatch.setattr(canonical_module, "as1_design", refuse)
    for command in COMMANDS:  # canonicalize first: density-eval reads its problem.json
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0, command
    monkeypatch.undo()
    # the report on the tiled X, as the library builds it, is the reference: an SVD of another matrix rounds
    # otherwise, by at most 3.1e-14 over 200 random as1 designs (each check's tolerance is 1e-8 or more)
    problem, _, xt = build_problem(load_config(cfg))
    reference = cli_module.invariant_report(problem, as1_design(xt, 4), xt)
    report = json.loads((tmp_path / "canonicalize" / "canonicalize_report.json").read_text())
    assert report.keys() == reference.keys() and report["all_pass"] is reference["all_pass"] is True
    for name, check in reference.items():
        if isinstance(check, dict):
            assert report[name]["pass"] and report[name]["tol"] == check["tol"], name
            assert report[name]["value"] == pytest.approx(check["value"], rel=0, abs=1e-13), name


@pytest.mark.parametrize("doc", [{"alphas": [-1.0, 0.999, 1.0]}, {"density": {"type": "shrinkage_bayes", "alpha": 0.999}}])
def test_alpha_at_the_bound_or_one_loads(tmp_path, doc):
    cfg = load_config(write_config(tmp_path, dict(RISK_DOC, **doc)))
    assert cfg.alphas == doc.get("alphas", RISK_DOC["alphas"])
    assert cfg.density.alpha == doc.get("density", {}).get("alpha", 0.0)


def test_risk_compare_near_alpha_one(tmp_path):
    # alpha = 0.99 puts the best-invariant Laguerre parameter near 900, where
    # scipy's roots_genlaguerre weights overflow
    cfg = write_config(tmp_path, dict(RISK_DOC, alphas=[0.99]))
    out = tmp_path / "o"
    assert main(["risk-compare", "--config", cfg, "--out", str(out)]) == 0
    rows = [row.split(",") for row in (out / "risk_compare.csv").read_text().strip().split("\n")[1:]]
    assert len(rows) == 2 * 2
    assert all(math.isfinite(float(r[6])) and math.isfinite(float(r[7])) for r in rows)


@pytest.mark.parametrize("exported, numpy_first, expected", [
    (None, False, "1"), ("3", False, "3"), (None, True, None), (None, "after the package", "1")])
def test_import_caps_blas_threads_unless_set(exported, numpy_first, expected):
    # a fresh process: importing shrinkpred first sets OPENBLAS_NUM_THREADS=1, keeps a
    # value the user exported, and leaves the environment alone once numpy is loaded;
    # the bare package, which imports no submodule, sets it before numpy loads too
    imports = {False: "import shrinkpred.cli\n", True: "import numpy\nimport shrinkpred.cli\n",
               "after the package": "import shrinkpred\nimport numpy\n"}[numpy_first]
    code = ("import json, os, sys\n"
            + imports
            + "tasks = '/proc/self/task'\n"
            "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None\n"
            "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(OPENBLAS_NUM_THREADS=exported))
    assert proc.returncode == 0, proc.stderr
    value, threads = json.loads(proc.stdout)
    assert value == expected
    if expected == "1" and threads is not None:
        assert threads == 1  # no BLAS worker threads beside the main one


def test_package_import_loads_no_submodule():
    # each public name is imported from its module, so the package itself imports none of them, nor numpy
    code = "import shrinkpred, sys; print(sorted(m for m in sys.modules if m.split('.')[0] in ('shrinkpred', 'numpy')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['shrinkpred']\n"


def test_cli_import_skips_scipy_integrate(tmp_path):
    # the runtime is numpy alone: no subcommand, the alpha < 1 Gauss-Laguerre rules and
    # the identity suite's beta check included, loads any scipy module
    canon = tmp_path / "canon"
    np.savetxt(tmp_path / "points.csv", np.random.default_rng(4).standard_normal((50, 3)), delimiter=",")
    runs = [["canonicalize", "--config", write_config(tmp_path, {"seed": 5, "design": AS1_DESIGN}, "c.json"),
             "--out", str(canon)]]
    for kind in ("best_invariant", "shrinkage_bayes", "plugin"):
        density = {"problem": str(canon / "problem.json"), "type": kind, "points": str(tmp_path / "points.csv"),
                   "observation": {"v": [0.5, -0.2, 1.0], "v_star": [], "s": 8.0}}
        if kind != "plugin":
            density["alpha"] = 0.0
        runs.append(["density-eval", "--config", write_config(tmp_path, {"density": density}, f"{kind}.json"),
                     "--out", str(tmp_path / kind)])
    for alpha in (1.0, 0.0):
        cfg = write_config(tmp_path, dict(RISK_DOC, alphas=[alpha]), f"risk{alpha}.json")
        runs.append(["risk-compare", "--config", cfg, "--out", str(tmp_path / f"risk{alpha}")])
    cfg = write_config(tmp_path, {"seed": 2, "design": AS1_DESIGN}, "ident.json")
    runs += [[command, "--config", cfg, "--out", str(tmp_path / command)] for command in ("identities", "bounds")]
    code = ("import json, sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import shrinkpred\n"
            "print(json.dumps(loaded()))\n"
            "import shrinkpred.cli\n"
            "print(json.dumps(loaded()))\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert shrinkpred.cli.main(argv) == 0, argv\n"
            "    print(json.dumps(loaded()))\n")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    after = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert len(after) == 2 + len(runs)
    # import, canonicalize, density-eval of each density, risk-compare at alpha = 1 and 0, identities, bounds
    assert after == [[]] * len(after)


def test_no_domination_claim_below_two_residual_dof(tmp_path):
    # n - k = 1: the proof's sign condition fails, so the flag stays false
    rng = np.random.default_rng(14)
    doc = {
        "seed": 3,
        "design": {
            "type": "explicit",
            "X": rng.standard_normal((4, 3)).tolist(),
            "Xtilde": rng.standard_normal((3, 3)).tolist(),
        },
        "prior": {"nu": 0.1},
        "alphas": [1.0],
        "grid": {"theta_norms": [0.0], "sigma2": [1.0]},
        "reps": 150,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["risk-compare", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "risk_compare.csv").read_text().strip().split("\n")
    assert all(row.endswith(",false") for row in lines[1:])


OBS = CanonicalObservation(v=[0.5, -0.2, 1.0], v_star=[], s=8.0)


@pytest.mark.parametrize("doc, library", [
    ({"grid": {"theta_norms": [1e9]}}, lambda p: CanonicalParams(theta=[1e9, 0.0, 0.0], mu=[], eta=1.0)),
    ({"grid": {"sigma2": [1e200]}}, lambda p: params_to_canonical(p, np.zeros(3), 1e200)),
    ({"alphas": [1.0, 0.9995]}, lambda p: best_invariant_kernel(p, OBS, 0.9995)),
    ({"density": {"alpha": -1.5}}, lambda p: shrinkage_bayes_kernel(PriorSpec(p), OBS, -1.5)),
    ({"prior": {"nu": -1.0}}, lambda p: PriorSpec(p, nu=-1.0)),
    ({"prior": {"gamma_prior": 0.5}}, lambda p: PriorSpec(p, gamma_prior=0.5)),
    ({"seed": 2**64}, lambda p: replication_rng(2**64)),
], ids=["theta_norms", "sigma2", "alphas", "alpha", "nu", "gamma_prior", "seed"])
def test_load_config_states_each_library_rule_in_its_words(tmp_path, as1_problem_n12, doc, library):
    # load_config calls the library's own checks: only the subject (a config key, or |theta|) may differ
    with pytest.raises(ValueError) as loaded:
        load_config(write_config(tmp_path, dict({"seed": 1, "design": AS1_DESIGN}, **doc)))
    with pytest.raises(ValueError) as built:
        library(as1_problem_n12)
    rule = [str(raised.value).split(" must ", 1)[1] for raised in (loaded, built)]
    assert rule[0] == rule[1], (loaded.value, built.value)


def test_prior_c_number_stands_for_every_axis(tmp_path):
    outs = []
    for tag, c in (("number", 2.0), ("list", [2.0, 2.0, 2.0])):
        cfg = write_config(tmp_path, dict(RISK_DOC, prior={"c": c}))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / tag)]) == 0
        outs.append((tmp_path / tag / "bounds.json").read_bytes())
    assert outs[0] == outs[1]


def test_a_linear_algebra_failure_in_the_reduction_exits_2(tmp_path, monkeypatch, capsys):
    import shrinkpred.cli as cli_mod

    def fails(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli_mod, "canonicalize", fails)
    cfg = write_config(tmp_path, {"design": {"X": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "Xtilde": [[1.0, 0.0]]}})
    for command in ("canonicalize", "bounds"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2, command
        assert capsys.readouterr().err == "canonicalization failed: SVD did not converge\n", command
    assert not (tmp_path / "o").exists()


def test_rep_counts_at_the_floor_or_unused_load(tmp_path):
    for alphas, counts in (([1.0, 0.0], {"reps": 100, "reps_outer": 50}), ([0.0], {"reps": 1}),
                           ([1.0], {"reps_outer": 1})):
        cfg = load_config(write_config(tmp_path, dict(RISK_DOC, alphas=alphas, **counts)))
        assert (cfg.reps, cfg.reps_outer) == (counts.get("reps", 200), counts.get("reps_outer", 50))


@pytest.mark.parametrize("m, k, N, key", [(2, 3, 2, "m"), (3, 3, 1, "N"), (3, 3, 0, "N"), (4, 3, -2, "N")])
def test_replicated_design_rules_have_one_text(m, k, N, key):
    # m >= k, N >= 1 and n = N m > k are canonical's rules: load_config calls the check that as1_design and
    # as1_problem call, so all three reject a design in the same words, naming the key (LOAD_ERRORS's as1 rows)
    messages = set()
    for build in (as1_design, as1_problem):
        with pytest.raises(ValueError, match=f"^{key} must be") as raised:
            build(np.eye(m, k), N)
        messages.add(str(raised.value))
    assert messages == {LOAD_ERRORS[f"as1-m{m}-k{k}-N{N}"][1]}
    # k >= 3 is the command line's own rule (LOAD_ERRORS's as1-m3-k2-N4), which the library does not state
    assert as1_problem(np.eye(3, 2), 4).k == 2


# ---------------------------------------------------------------------------
# Bad input: every rejected configuration, file and flag is one row of REJECTED
# ---------------------------------------------------------------------------

class Rejected(NamedTuple):
    """One bad input: each of commands exits code and writes stderr, whole or (prefix) as its start.

    Each command runs in a directory that holds config.json (doc, unless None) and files (a name and its text,
    or an array written as CSV), with flags after the config and --out out/<command> unless out is False.
    """
    id: str
    doc: dict | None
    commands: tuple
    code: int
    stderr: str
    files: dict = {}
    flags: tuple = ()
    out: bool = True
    prefix: bool = False  # numpy, json or argparse words the rest


BASE = {"seed": 1, "design": AS1_DESIGN}
ABSENT = object()  # a key left out
AS1_N12 = problem_to_dict(as1_problem(AS1_XTILDE, 4))
CASE2_N12 = problem_to_dict(canonicalize(*make_case2_design()))
DENSITY = ("density-eval",)
FILES = {"problem": "problem.json", "observation": "observation.json", "points": "points.csv"}
ZEROS = {"points.csv": np.zeros((2, 3))}
NUMBERS, ROWS = "a list of finite numbers", "a list of equal-length rows of finite numbers"
C_VALUES = 'c must be "identity", a finite number or a list of finite numbers, got'
Q = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def density_doc(problem=AS1_N12, obs=(), **section):
    """A density-eval config on problem (a document or a path): best_invariant at alpha = 0 (the plug-in takes no
    alpha) at points.csv, observing v = 0.5, v_star = 0.1 and s = 8 sized to problem; obs and section update
    those keys, and ABSENT drops one."""
    fit = problem if isinstance(problem, dict) else AS1_N12
    obs = dict({"v": [0.5] * fit["l"], "v_star": [0.1] * (fit["k"] - fit["l"]), "s": 8.0}, **dict(obs))
    section = dict({"problem": problem, "observation": {k: v for k, v in obs.items() if v is not ABSENT},
                    "type": "best_invariant", "points": "points.csv"}, **section)
    if section["type"] != "plugin":
        section.setdefault("alpha", 0.0)
    return {"seed": 1, "density": {k: v for k, v in section.items() if v is not ABSENT}}


DESK_DENSITY = {"problem": problem_to_dict(build_problem(load_config(str(CONFIGS / "as1_desk.json")))[0]),
                "type": "shrinkage_bayes", "alpha": 0.0, "points": "points.csv",
                "observation": {"v": [1.0, -0.5, 0.3], "v_star": [], "s": 7.5}}
DESK_POINTS = {"points.csv": np.random.default_rng(1).standard_normal((5, 3))}


def desk(prior, density=(), **updates):
    """as1_desk, its prior and top-level keys updated, with shrinkage_density_config's section inline: the
    shrinkage density at alpha = 0 on as1_desk's problem at 5 points, updated by density."""
    doc = shipped("as1_desk", **updates)
    return dict(doc, prior=dict(doc["prior"], **prior), density=dict(DESK_DENSITY, **dict(density)))


# what load_config rejects, as {id: (keys, message)}: BASE with keys replaced.  Every subcommand loads its config
# alike, so each row exits 1 from all five with "configuration error: <message>"
LOAD_ERRORS = {
    # the suite's counts and tolerances are constants, so an identities section is itself the unknown option
    **{f"identities-{key}": ({"seed": 2, "identities": {key: value}}, "unknown configuration option(s): 'identities'")
       for key, value in {"lemma_instances": 200, "beta_instances": 50, "chisq_draws": 100_000,
                          "log_grid_points": 10_000, "lemma_tol": 1e-8, "beta_tol": 1e-6, "log_tol": 1e-12,
                          "chisq_se_mult": 4.0, "chisq_nu": 0.3, "chisq_dof": 9, "chisq_numerator_dof": 3}.items()},
    # the prior is set by nu alone, an explicit design by X and Xtilde alone, is_samples only in the density
    # section, --out alone sets the output directory, C is always g0 c, "identity" alone spells c = 1, and null
    # spells no value: a key left out takes its default
    "prior-a": ({"prior": {"a": [1]}}, "unknown prior option(s): 'a'"),
    "design-file": ({"design": {"type": "explicit", "file": "design.json"}}, "unknown design option(s): 'file'"),
    "is_samples": ({"is_samples": 4000}, "unknown configuration option(s): 'is_samples'"),
    "out": ({"out": "results"}, "unknown configuration option(s): 'out'"),
    "rescale_c": ({"prior": {"rescale_c": True}}, "unknown prior option(s): 'rescale_c'"),
    "c-null": ({"prior": {"c": None}}, f"{C_VALUES} None"),
    "nu-null": ({"prior": {"nu": None}}, "nu must be a finite number, got None"),
    "xtilde-null": ({"design": dict(AS1_DESIGN, xtilde=None)}, f"xtilde must be {ROWS}, got None"),
    # a key of the other design type would otherwise be read by neither and silently ignored
    "foreign-X": ({"design": dict(AS1_DESIGN, X=EXPLICIT_DESIGN["X"])},
                  "design option(s) 'X' do not apply to type 'as1'"),
    "foreign-Xtilde": ({"design": dict(AS1_DESIGN, Xtilde=[[1.0, 0.0]])},
                       "design option(s) 'Xtilde' do not apply to type 'as1'"),
    "foreign-m": ({"design": dict(EXPLICIT_DESIGN, m=3)}, "design option(s) 'm' do not apply to type 'explicit'"),
    "foreign-k": ({"design": dict(EXPLICIT_DESIGN, k=3)}, "design option(s) 'k' do not apply to type 'explicit'"),
    "foreign-N": ({"design": dict(EXPLICIT_DESIGN, N=4)}, "design option(s) 'N' do not apply to type 'explicit'"),
    "foreign-xtilde": ({"design": dict(EXPLICIT_DESIGN, xtilde=[[1.0, 0.0]])},
                       "design option(s) 'xtilde' do not apply to type 'explicit'"),
    # an empty list used to write a header-only CSV, exit 0
    "empty-theta_norms": ({"grid": {"theta_norms": [], "sigma2": [1.0]}}, "theta_norms must hold at least one value"),
    "empty-sigma2": ({"grid": {"theta_norms": [0.0], "sigma2": []}}, "sigma2 must hold at least one value"),
    "empty-alphas": ({"alphas": []}, "alphas must hold at least one value"),
    # a density section's own keys are checked at load
    "density-alpha-string": ({"density": dict(FILES, alpha="x")}, "alpha must be a finite number, got 'x'"),
    "density-alpha-list": ({"density": dict(FILES, alpha=[0.0])}, "alpha must be a finite number, got [0.0]"),
    "density-alpha-1.5": ({"density": dict(FILES, alpha=1.5)}, "alpha must lie in [-1, 0.999], got 1.5"),
    "density-type": ({"density": dict(FILES, type="t_density")},
                     "type must be one of best_invariant, shrinkage_bayes, plugin, got 't_density'"),
    "density-problem-3": ({"density": dict(FILES, problem=3)}, "problem must be a path or a JSON object, got 3"),
    "density-observation-list": ({"density": dict(FILES, observation=[0.5, -0.2, 1.0])},
                                 "observation must be a path or a JSON object, got [0.5, -0.2, 1.0]"),
    "density-points-3": ({"density": dict(FILES, points=3)}, "points must be a path to a CSV file, got 3"),
    # the plug-in normal is the alpha = 1 density, on which alpha had no effect; the other two exist for alpha < 1
    # only, and alpha = 1 used to pass the load and fail density-eval at run time.  Nearer 1 the exact loss loses
    # digits its certificate cannot see: alphas = [0.9999] used to exit 0 with a loss 2.7e-6 off, and 0.99999 to
    # exit 4 with a quadrature message that did not name alpha
    "density-plugin-alpha": ({"density": {"type": "plugin", "alpha": 0.0}},
                             "alpha must be left out for type 'plugin', the alpha = 1 plug-in normal"),
    "density-alpha-1.0": ({"density": {"alpha": 1.0}}, "alpha must lie in [-1, 0.999], got 1.0"),
    "density-shrinkage-alpha-1": ({"density": {"type": "shrinkage_bayes", "alpha": 1}},
                                  "alpha must lie in [-1, 0.999], got 1.0"),
    "alphas-0.9999": ({"alphas": [0.0, 0.9999]}, "alphas other than 1 must lie in [-1, 0.999], got 0.9999"),
    "alphas-0.99999": ({"alphas": [0.99999, 1.0]}, "alphas other than 1 must lie in [-1, 0.999], got 0.99999"),
    "density-alpha-0.9995": ({"density": {"alpha": 0.9995}}, "alpha must lie in [-1, 0.999], got 0.9995"),
    "density-shrinkage-alpha-0.99999": ({"density": {"type": "shrinkage_bayes", "alpha": 0.99999}},
                                        "alpha must lie in [-1, 0.999], got 0.99999"),
    # numbers: JSON's NaN and Infinity, an int past the float range, a numeric string, null, a negative norm, a
    # repeated value (compared as a float, it would repeat the key of a risk_compare.csv row), a point past
    # THETA_OVER_SIGMA_MAX or outside SIGMA2_RANGE (where a risk loses digits), and values a prior cannot take
    # (which fail at load also for subcommands that build no prior)
    "reps-nan": ({"reps": math.nan}, "reps must be an integer, got nan"),
    "gamma_prior--inf": ({"prior": {"gamma_prior": -math.inf}}, "gamma_prior must be a finite number, got -inf"),
    "theta_directions-5": ({"grid": {"theta_directions": 5}}, f"theta_directions must be {ROWS}, got 5"),
    "theta_directions-string": ({"grid": {"theta_directions": [[1.0, "x", 0.0]]}},
                                f"theta_directions must be {ROWS}, got [[1.0, 'x', 0.0]]"),
    "theta_directions-nan": ({"grid": {"theta_directions": [[1.0, math.nan, 0.0]]}},
                             f"theta_directions must be {ROWS}, got [[1.0, nan, 0.0]]"),
    "theta_norms-string": ({"grid": {"theta_norms": [1.0, "2"]}}, f"theta_norms must be {NUMBERS}, got [1.0, '2']"),
    "theta_norms-nan": ({"grid": {"theta_norms": [math.nan]}}, f"theta_norms must be {NUMBERS}, got [nan]"),
    "theta_norms-negative": ({"grid": {"theta_norms": [2.0, -2.0]}}, "theta_norms must be nonnegative"),
    "sigma2-null": ({"grid": {"sigma2": [None]}}, f"sigma2 must be {NUMBERS}, got [None]"),
    "sigma2-nan": ({"grid": {"sigma2": [math.nan]}}, f"sigma2 must be {NUMBERS}, got [nan]"),
    "sigma2-inf": ({"grid": {"sigma2": [math.inf]}}, f"sigma2 must be {NUMBERS}, got [inf]"),
    "sigma2-number": ({"grid": {"sigma2": 2.0}}, f"sigma2 must be {NUMBERS}, got 2.0"),
    "alphas-string": ({"alphas": [0.0, "0.5"]}, f"alphas must be {NUMBERS}, got [0.0, '0.5']"),
    "alphas-1e400": ({"alphas": [10**400]}, f"alphas must be {NUMBERS}, got [{10**400}]"),
    "c-nan": ({"prior": {"c": math.nan}}, f"{C_VALUES} nan"),
    "c--inf": ({"prior": {"c": [1.0, -math.inf, 1.0]}}, f"{C_VALUES} [1.0, -inf, 1.0]"),
    "nu-inf": ({"prior": {"nu": math.inf}}, "nu must be a finite number, got inf"),
    "alphas-repeated": ({"alphas": [1.0, 1.0]}, "alphas must not repeat a value, got [1.0, 1.0]"),
    "alphas-signed-zeros": ({"alphas": [0, -0.0]}, "alphas must not repeat a value, got [0.0, -0.0]"),
    "theta_norms-repeated": ({"grid": {"theta_norms": [2.0, 2.0]}},
                             "theta_norms must not repeat a value, got [2.0, 2.0]"),
    "theta_norms-signed-zeros": ({"grid": {"theta_norms": [0.0, 5.0, -0.0]}},
                                 "theta_norms must not repeat a value, got [0.0, 5.0, -0.0]"),
    "sigma2-repeated": ({"grid": {"sigma2": [1.0, 0.5, 1]}}, "sigma2 must not repeat a value, got [1.0, 0.5, 1.0]"),
    "theta_norms-1e9": ({"grid": {"theta_norms": [0.0, 1e9]}},
                        "theta_norms must be at most 1e+08 sigma, got 1000000000.0 at sigma2 = 1.0"),
    "theta_norms-1e16": ({"grid": {"theta_norms": [1e16]}},
                         "theta_norms must be at most 1e+08 sigma, got 1e+16 at sigma2 = 1.0"),
    "theta_norms-at-sigma2-1e-100": ({"grid": {"theta_norms": [2.0], "sigma2": [1.0, 1e-100]}},
                                     "theta_norms must be at most 1e+08 sigma, got 2.0 at sigma2 = 1e-100"),
    "sigma2-1e200": ({"grid": {"sigma2": [1e200]}}, "sigma2 must be in [1e-100, 1e+100], got 1e+200"),
    "sigma2-1e-200": ({"grid": {"sigma2": [1.0, 1e-200]}}, "sigma2 must be in [1e-100, 1e+100], got 1e-200"),
    "sigma2-0": ({"grid": {"sigma2": [0.0]}}, "sigma2 must be in [1e-100, 1e+100], got 0.0"),
    "nu--1": ({"prior": {"nu": -1}}, "nu must be positive and finite, got -1.0"),
    "nu-0": ({"prior": {"nu": 0}}, "nu must be positive and finite, got 0.0"),
    "gamma_prior-0.5": ({"prior": {"gamma_prior": 0.5}}, "gamma_prior must be finite and >= 1, got 0.5"),
    # the prior needs C >= I; canonicalize, which builds no prior, used to exit 0
    "c-0.5": ({"prior": {"c": 0.5}}, "c must be finite and >= 1 in every entry, got 0.5"),
    "c-list-0.5": ({"prior": {"c": [1.0, 0.5, 2.0]}}, "c must be finite and >= 1 in every entry, got [1.0, 0.5, 2.0]"),
    # a misspelled key in each checked section
    "typo-rep": ({"rep": 10}, "unknown configuration option(s): 'rep'"),
    "typo-gama_prior": ({"prior": {"gama_prior": 2.0}}, "unknown prior option(s): 'gama_prior'"),
    "typo-theta_norm": ({"grid": {"theta_norm": [1.0]}}, "unknown grid option(s): 'theta_norm'"),
    "typo-Nn": ({"design": dict(AS1_DESIGN, Nn=5)}, "unknown design option(s): 'Nn'"),
    "typo-typ": ({"density": {"problem": "problem.json", "typ": "plugin"}}, "unknown density option(s): 'typ'"),
    # each count is checked against min_reps's floor where an alpha uses it, before any run starts
    "reps_outer-49": ({"alphas": [0.0], "reps_outer": 49}, "reps_outer must be at least 50, got 49"),
    "reps_outer-10": ({"alphas": [1.0, 0.5], "reps_outer": 10}, "reps_outer must be at least 50, got 10"),
    "reps-99": ({"alphas": [1.0], "reps": 99}, "reps must be at least 100, got 99"),
    "reps-10": ({"alphas": [1.0, 0.0], "reps": 10}, "reps must be at least 100, got 10"),
    # the generator keys on 64 bits of the seed, so 2^64 would rerun seed 0's draws
    "seed-2^64": ({"alphas": [1.0], "seed": 2**64}, "seed must be in [0, 2^64), got 18446744073709551616"),
    # design matrices: the wrong shape, non-finite entries (which the reduction's SVD would fail on without naming
    # the matrix), a numeric string or a boolean (which np.asarray(..., dtype=float) used to read as a number),
    # and rows of unequal length
    "design-no-N": ({"design": {"type": "as1", "m": 3, "k": 3}}, "N must be given"),
    "X-5": ({"design": dict(EXPLICIT_DESIGN, X=5)}, f"X must be {ROWS}, got 5"),
    "X-nan": ({"design": dict(EXPLICIT_DESIGN, X=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [math.nan, 2.0]])},
              f"X must be {ROWS}, got [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [nan, 2.0]]"),
    "X-string-and-bool": ({"design": dict(EXPLICIT_DESIGN, X=[[1.0, 0.0], [0.0, 1.0], [1.0, "1.5"], [True, 2.0]])},
                          f"X must be {ROWS}, got [[1.0, 0.0], [0.0, 1.0], [1.0, '1.5'], [True, 2.0]]"),
    "X-ragged": ({"design": dict(EXPLICIT_DESIGN, X=[[1.0, 0.0], [0.0, 1.0], [1.0], [1.0, 2.0]])},
                 f"X must be {ROWS}, got [[1.0, 0.0], [0.0, 1.0], [1.0], [1.0, 2.0]]"),
    "Xtilde-nan": ({"design": dict(EXPLICIT_DESIGN, Xtilde=[[math.nan, 0.0]])},
                   f"Xtilde must be {ROWS}, got [[nan, 0.0]]"),
    "Xtilde-string": ({"design": dict(EXPLICIT_DESIGN, Xtilde=[["1", 0.0]])}, f"Xtilde must be {ROWS}, got [['1', 0.0]]"),
    "Xtilde-bool": ({"design": dict(EXPLICIT_DESIGN, Xtilde=[[True, 0.0]])}, f"Xtilde must be {ROWS}, got [[True, 0.0]]"),
    "xtilde-a": ({"design": dict(AS1_DESIGN, xtilde=[Q[0], [0.0, "a", 0.0], Q[2]])},
                 f"xtilde must be {ROWS}, got [[1.0, 0.0, 0.0], [0.0, 'a', 0.0], [0.0, 0.0, 1.0]]"),
    "xtilde-inf": ({"design": dict(AS1_DESIGN, xtilde=[Q[0], [0.0, math.inf, 0.0], Q[2]])},
                   f"xtilde must be {ROWS}, got [[1.0, 0.0, 0.0], [0.0, inf, 0.0], [0.0, 0.0, 1.0]]"),
    "xtilde-string": ({"design": dict(AS1_DESIGN, xtilde=[Q[0], [0.0, "1", 0.0], Q[2]])},
                      f"xtilde must be {ROWS}, got [[1.0, 0.0, 0.0], [0.0, '1', 0.0], [0.0, 0.0, 1.0]]"),
    "xtilde-bool": ({"design": dict(AS1_DESIGN, xtilde=[Q[0], Q[1], [0.0, 0.0, True]])},
                    f"xtilde must be {ROWS}, got [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, True]]"),
    # the replicated design's rules: m >= k, N >= 1 and n = N m > k (one replicate of a square Xtilde leaves n = k,
    # no residual degrees of freedom), in the library's words, and the command line's own: k >= 3, and n - k at most
    # AS1_RESIDUAL_DOF_MAX (at N = 1e12 risk-compare used to run on in minimax_risk's sum of (n - k)/2 terms)
    "as1-m2-k3-N2": ({"design": {"type": "as1", "m": 2, "k": 3, "N": 2}},
                     "m must be at least k in the replicated design, got m=2, k=3"),
    "as1-m3-k3-N1": ({"design": {"type": "as1", "m": 3, "k": 3, "N": 1}},
                     "N must be a positive integer with n = N m > k, got N=1, m=3, k=3"),
    "as1-m3-k3-N0": ({"design": {"type": "as1", "m": 3, "k": 3, "N": 0}},
                     "N must be a positive integer with n = N m > k, got N=0, m=3, k=3"),
    "as1-m4-k3-N-2": ({"design": {"type": "as1", "m": 4, "k": 3, "N": -2}},
                      "N must be a positive integer with n = N m > k, got N=-2, m=4, k=3"),
    "as1-m3-k2-N4": ({"design": {"type": "as1", "m": 3, "k": 2, "N": 4}},
                     "k must be at least 3 in the replicated design, got k=2"),
    "as1-m3-k3-N333335": ({"design": dict(AS1_DESIGN, N=333_335)},
                          "N must leave n - k = N m - k at most 1000000 in the replicated design, got N=333335, "
                          "m=3, k=3"),
    "as1-m3-k3-N1e15": ({"design": dict(AS1_DESIGN, N=10**15), "alphas": [1.0], "reps": 100},
                        "N must leave n - k = N m - k at most 1000000 in the replicated design, "
                        "got N=1000000000000000, m=3, k=3"),
}

# a density section that loads but lacks a key, or whose observation does not fit the problem, as {id: (config,
# message)}: density-eval exits 1 with "error: <message>", beside two points of zeros (m = 3, or m = 1 in case II)
# and an observation file with two misspelled keys
DENSITY_FILES = dict(ZEROS, **{"case2.csv": np.zeros((2, 1)),
                               "observation.json": '{"v": [0.5, -0.2, 1.0], "vstar": [9.0], "s": 8.0, "extra": "x"}'})
DENSITY_ERRORS = {
    "no-problem": (density_doc(problem=ABSENT), "problem must be given in the density section"),
    "no-observation": (density_doc(observation=ABSENT), "observation must be given in the density section"),
    "no-points": (density_doc(points=ABSENT), "points must be given in the density section"),
    "no-v": (density_doc(obs={"v": ABSENT}), "v must be given"),
    "no-s": (density_doc(obs={"s": ABSENT}), "s must be given"),
    "v-short": (density_doc(obs={"v": [0.5, -0.2]}), "v must have l = 3 entries, got shape (2,)"),
    "v-nan": (density_doc(obs={"v": [0.5, math.nan, 1.0]}), f"v must be {NUMBERS}, got [0.5, nan, 1.0]"),
    "v-string": (density_doc(obs={"v": [0.5, "a", 1.0]}, type="plugin"), f"v must be {NUMBERS}, got [0.5, 'a', 1.0]"),
    "v_star-in-case-I": (density_doc(obs={"v_star": [3.0]}, type="shrinkage_bayes"),
                         "v_star must have k - l = 0 entries, got shape (1,)"),
    "v_star-missing-in-case-II": (density_doc(CASE2_N12, {"v_star": ABSENT}, type="shrinkage_bayes",
                                              points="case2.csv"),
                                  "v_star must have k - l = 2 entries, got shape (0,)"),
    "v_star-inf": (density_doc(CASE2_N12, {"v_star": [math.inf, 0.1]}, points="case2.csv"),
                   f"v_star must be {NUMBERS}, got [inf, 0.1]"),
    "s-nan": (density_doc(obs={"s": math.nan}, type="shrinkage_bayes"), "s must be a finite number, got nan"),
    "s-inf": (density_doc(obs={"s": math.inf}), "s must be a finite number, got inf"),
    "s-0": (density_doc(obs={"s": 0.0}, type="plugin"), "s must be positive, got 0.0"),
    "s-string": (density_doc(obs={"s": "8"}), "s must be a finite number, got '8'"),
    "s-null": (density_doc(obs={"s": None}), "s must be a finite number, got None"),
    # a misspelled key used to be ignored: "vstar" left v_star empty and the run exited 0
    "observation-inline-keys": (density_doc(obs={"vstar": [9.0], "extra": "x", "v_star": ABSENT}),
                                "unknown observation option(s): 'extra', 'vstar'"),
    "observation-file-keys": (density_doc(observation="observation.json"),
                              "unknown observation option(s): 'extra', 'vstar'"),
}

# problem.json, as1 at n = 12 with keys updated (ABSENT drops one), as {id: (updates, message)}: density-eval exits
# 1 with "error: problem document's <message>"
PROBLEM_ERRORS = {
    "no-n": ({"n": ABSENT}, "'n' is malformed: n must be given"),
    "no-k": ({"k": ABSENT}, "'k' is malformed: k must be given"),
    "no-m": ({"m": ABSENT}, "'m' is malformed: m must be given"),
    "n-list": ({"n": [12]}, "'n' is malformed: n must be an integer, got [12]"),
    "k-string": ({"k": "three"}, "'k' is malformed: k must be an integer, got 'three'"),
    "cond_xtx-list": ({"cond_xtx": [1.0]}, "'cond_xtx' is malformed: cond_xtx must be a finite number >= 1, got [1.0]"),
    "d-nested": ({"d": [[1.0], 2.0]}, f"'d' is malformed: d must be {NUMBERS}, got [[1.0], 2.0]"),
    # JSON's NaN and Infinity, which every comparison in the constructor's checks lets through
    "d-nan": ({"d": [0.25, math.nan, 0.25]}, f"'d' is malformed: d must be {NUMBERS}, got [0.25, nan, 0.25]"),
    "Q-nan": ({"Q": [Q[0], [0.0, math.nan, 0.0], Q[2]]},
              f"'Q' is malformed: Q must be {ROWS}, got [[1.0, 0.0, 0.0], [0.0, nan, 0.0], [0.0, 0.0, 1.0]]"),
    "coef_transform-inf": ({"coef_transform": [[math.inf] * 3] * 3}, f"'coef_transform' is malformed: coef_transform "
                           f"must be {ROWS}, got [[inf, inf, inf], [inf, inf, inf], [inf, inf, inf]]"),
    # a fraction or a string where a dimension belongs, which int() used to truncate or parse
    "n-fraction": ({"n": 12.7}, "'n' is malformed: n must be an integer, got 12.7"),
    "n-string": ({"n": "12"}, "'n' is malformed: n must be an integer, got '12'"),
    # cond_xtx, a ratio of ordered singular values: NaN used to load with a silently null warning
    "cond_xtx-nan": ({"cond_xtx": math.nan}, "'cond_xtx' is malformed: cond_xtx must be a finite number >= 1, got nan"),
    "cond_xtx-inf": ({"cond_xtx": math.inf}, "'cond_xtx' is malformed: cond_xtx must be a finite number >= 1, got inf"),
    "cond_xtx--inf": ({"cond_xtx": -math.inf},
                      "'cond_xtx' is malformed: cond_xtx must be a finite number >= 1, got -inf"),
    "cond_xtx-0.5": ({"cond_xtx": 0.5}, "'cond_xtx' is malformed: cond_xtx must be a finite number >= 1, got 0.5"),
    # a numeric string or a boolean, which float() and np.asarray(..., dtype=float) used to read as a number
    "cond_xtx-bool": ({"cond_xtx": True}, "'cond_xtx' is malformed: cond_xtx must be a finite number >= 1, got True"),
    "cond_xtx-string": ({"cond_xtx": "12"}, "'cond_xtx' is malformed: cond_xtx must be a finite number >= 1, got '12'"),
    "d-strings": ({"d": ["0.25"] * 3}, f"'d' is malformed: d must be {NUMBERS}, got ['0.25', '0.25', '0.25']"),
    "d-bool": ({"d": [0.25, True, 0.25]}, f"'d' is malformed: d must be {NUMBERS}, got [0.25, True, 0.25]"),
    "Q-string": ({"Q": [Q[0], [0.0, "1", 0.0], Q[2]]},
                 f"'Q' is malformed: Q must be {ROWS}, got [[1.0, 0.0, 0.0], [0.0, '1', 0.0], [0.0, 0.0, 1.0]]"),
    "Q-bool": ({"Q": [[True, 0.0, 0.0], Q[1], Q[2]]},
               f"'Q' is malformed: Q must be {ROWS}, got [[True, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]"),
    "coef_transform-string": ({"coef_transform": [["0.5", 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]},
                              f"'coef_transform' is malformed: coef_transform must be {ROWS}, "
                              "got [['0.5', 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]"),
    "coef_transform-bool": ({"coef_transform": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, False]]},
                            f"'coef_transform' is malformed: coef_transform must be {ROWS}, "
                            "got [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, False]]"),
}

NO_ROWS = "# ytilde_1,ytilde_2,ytilde_3\n\n"
CSV_X = {"design": {"type": "explicit", "X": "X.csv", "Xtilde": [[1.0, 0.0, 0.0]]}}
NOT_A_TABLE = "configuration error: X must be a matrix of numbers: X file X.csv is not a table of numbers: "
CERTIFICATE = "normalization certificate failed: "

REJECTED = [
    *(Rejected(key, dict(BASE, **keys), COMMANDS, 1, f"configuration error: {message}")
      for key, (keys, message) in LOAD_ERRORS.items()),
    *(Rejected(key, doc, DENSITY, 1, f"error: {message}", DENSITY_FILES)
      for key, (doc, message) in DENSITY_ERRORS.items()),
    *(Rejected(f"problem-{key}", density_doc("problem.json"), DENSITY, 1, f"error: problem document's {message}",
               dict(ZEROS, **{"problem.json": json.dumps({k: v for k, v in dict(AS1_N12, **updates).items()
                                                          if v is not ABSENT})}))
      for key, (updates, message) in PROBLEM_ERRORS.items()),
    Rejected("problem-list", density_doc("problem.json"), DENSITY, 1,
             "error: problem document must be a JSON object, got list", dict(ZEROS, **{"problem.json": "[1, 2]"})),
    # no residual degrees of freedom, which used to fail in a log with "math domain error"
    Rejected("problem-n-3", density_doc("problem.json"), DENSITY, 1, "error: problem document is invalid: n must "
             "exceed k (no residual degrees of freedom otherwise), got n=3, k=3",
             dict(ZEROS, **{"problem.json": json.dumps(dict(AS1_N12, n=3))})),
    # values of the wrong JSON type, or a fraction where an integer belongs; run without --out, they write nothing
    # to the working directory
    *(Rejected(f"type-{key}", dict(BASE, **keys), COMMANDS, 1, f"configuration error: {message}", out=False)
      for key, keys, message in [
          ("alphas", {"alphas": 5}, f"alphas must be {NUMBERS}, got 5"),
          ("seed", {"seed": True}, "seed must be an integer, got True"),
          ("reps", {"reps": 2.5}, "reps must be an integer, got 2.5"),
          ("m", {"design": {"type": "as1", "m": 3.7, "k": 3, "N": 4.9}}, "m must be an integer, got 3.7"),
          ("nu", {"prior": {"nu": "0.3"}}, "nu must be a finite number, got '0.3'"),
          ("gamma_prior", {"prior": {"gamma_prior": "x"}}, "gamma_prior must be a finite number, got 'x'"),
          ("c", {"prior": {"c": "ones"}}, f"{C_VALUES} 'ones'")]),
    Rejected("seed-flag-2^64", dict(RISK_DOC, alphas=[1.0]), COMMANDS, 1,
             "configuration error: seed must be in [0, 2^64), got 18446744073709551616", flags=("--seed", str(2**64))),
    # CSV files: one without rows (loadtxt warns on it and hands back a (0, 1) array, which used to fail a column
    # check further on, or escape as a traceback under warnings as errors), and one that is not a table of numbers
    # (numpy's own message used to come through alone)
    Rejected("X-csv-empty", CSV_X, COMMANDS, 1,
             "configuration error: X must be a matrix of numbers: X file X.csv holds no rows", {"X.csv": ""}),
    Rejected("X-csv-comment", CSV_X, COMMANDS, 1,
             "configuration error: X must be a matrix of numbers: X file X.csv holds no rows", {"X.csv": NO_ROWS}),
    Rejected("X-csv-cell", CSV_X, COMMANDS, 1, NOT_A_TABLE, {"X.csv": "1,0,0\n0,x,0\n"}, prefix=True),
    Rejected("X-csv-ragged", CSV_X, COMMANDS, 1, NOT_A_TABLE, {"X.csv": "1,0,0\n0,1\n"}, prefix=True),
    Rejected("points-csv-empty", density_doc(), DENSITY, 1, "error: points file points.csv holds no rows",
             {"points.csv": ""}),
    Rejected("points-csv-comment", density_doc(), DENSITY, 1, "error: points file points.csv holds no rows",
             {"points.csv": NO_ROWS}),
    Rejected("points-csv-cell", density_doc(), DENSITY, 1,
             "error: points file points.csv is not a table of numbers: could not convert",
             {"points.csv": "1,2,3\n4,5,x\n"}, prefix=True),
    Rejected("points-csv-ragged", density_doc(), DENSITY, 1,
             "error: points file points.csv is not a table of numbers: the number of columns",
             {"points.csv": "1,2,3\n4,5\n"}, prefix=True),
    # a nan point used to give a nan row and exit 0
    Rejected("points-csv-nan", density_doc(), DENSITY, 1,
             "error: points must be numbers or +-inf, not nan, in points.csv", {"points.csv": "1,2,3\nnan,5,6\n"}),
    Rejected("points-csv-columns", density_doc(), DENSITY, 1,
             "error: points file points.csv has 2 columns; the problem needs m = 3", {"points.csv": "1,2\n4,5\n"}),
    # numpy used to reject the broadcast in its own words, or stretch a one-entry list over l axes
    *(Rejected(f"c-length-{len(c)}", dict(RISK_DOC, prior={"c": c}), ("bounds", "risk-compare"), 1,
               f"error: c must have l = 3 entries, got {len(c)}") for c in ([1.0, 2.0], [2.0], [1.0, 2.0, 3.0, 4.0])),
    Rejected("no-design", {"seed": 1}, ("canonicalize", "bounds", "risk-compare"), 1,
             "error: configuration has no design section"),
    Rejected("rank-deficient", {"design": dict(EXPLICIT_DESIGN, X=[[j, 2.0 * j] for j in range(10)])},
             ("canonicalize",), 2, "canonicalization failed: X is rank deficient"),
    # a is finite at nu = 1e306, but B = nu (n - k)/(1 - alpha) is not, and the constant used to be written as nan
    Rejected("nu-1e306-alpha-0.999", desk({"nu": 1e306}, {"alpha": 0.999}), DENSITY, 4,
             CERTIFICATE + "lnGamma(P) is not finite at P = inf (shrinkage constant at alpha = 0.999, nu = 1e+306, "
             "B = inf)", DESK_POINTS),
    # at nu = 1e308, a = (nu (n - k) - k - 2)/2 is inf: density-eval wrote nan, and risk-compare at alpha = 0 exited
    # 2 from the Gauss-Laguerre rule's eigenvalue solver (bounds builds no prior: see ACCEPTED)
    Rejected("nu-1e308", desk({"nu": 1e308}, alphas=[0.0], reps_outer=50), ("density-eval", "risk-compare"), 1,
             "error: nu must leave the prior exponent a = (nu (n - k) - k - 2)/2 finite, got 1e+308", DESK_POINTS),
    # a huge finite nu used to end in a traceback, exit 1: ZeroDivisionError in the loss once the Gauss-Laguerre rule
    # came back nan or of the wrong mass (up to 1e300), and math.lgamma's OverflowError in the shrinkage constant
    # (1e306); from 1e200 the shrinkage constant's Gauss-Jacobi rule, whose nodes would lie near 1e-200, fails
    # before the loss
    *(Rejected(f"nu-{nu:g}", desk({"nu": nu}, alphas=[0.0, -1.0], reps_outer=100, seed=1,
                                  grid=dict(shipped("as1_desk")["grid"], theta_norms=[0.0, 2.0])),
               commands, 4, CERTIFICATE + message, DESK_POINTS)
      for nu, commands, message in [
          (1e50, ("risk-compare",), "Gauss-Laguerre rule at a = 4.5e+50, n = 16: not finite or not of mass 1 "
                                    "(loss quadrature at alpha = 0)"),
          (1e100, ("risk-compare",), "Gauss-Laguerre rule at a = 4.5e+100, n = 16: not finite or not of mass 1 "
                                     "(loss quadrature at alpha = 0)"),
          (1e200, ("risk-compare",), "Gauss-Jacobi rule at a = 9.5, b = 9e+200, n = 16: not finite or not of mass 1 "
                                     "(shrinkage constant at alpha = 0, nu = 1e+200, B = 9e+200)"),
          (1e300, ("risk-compare",), "Gauss-Jacobi rule at a = 9.5, b = 9e+300, n = 16: not finite or not of mass 1 "
                                     "(shrinkage constant at alpha = 0, nu = 1e+300, B = 9e+300)"),
          (1e306, ("risk-compare", "density-eval"), "lnGamma(P) is not finite at P = 9e+306 (shrinkage constant at "
                                                    "alpha = 0, nu = 1e+306, B = 9e+306)")]),
    # at nu = 1e-17 or less (c = 1e200 caps nu at 1e-200) k + 2a + 2 rounded to 0, and B formed from it ended these
    # runs in lnGamma(0), "error: math domain error", exit 1.  Now B = nu (n - k)/(1 - alpha): at 1e-300 and 1e-200
    # B - 1 rounds to -1, where the shrinkage constant's Beta weight has no mass, and the failure names nu and B.
    # At 1e-17 the alpha = 0 constant (B = 9e-17) integrates, so density-eval runs (see ACCEPTED), but the
    # alpha = 0 loss's Gauss-Laguerre parameter B beta - 1 rounds to -1 and risk-compare fails there
    Rejected("tiny-nu-1e-300", desk({"nu": 1e-300}, alphas=[0.0, -1.0], reps_outer=50, seed=1),
             ("risk-compare", "density-eval"), 4, CERTIFICATE + "Gauss-Jacobi rule at a = 9.5, b = -1: no finite "
             "weight (shrinkage constant at alpha = 0, nu = 1e-300, B = 9e-300)", DESK_POINTS),
    Rejected("tiny-c-1e+200", desk({"c": 1e200}, alphas=[0.0, -1.0], reps_outer=50, seed=1),
             ("risk-compare", "density-eval"), 4, CERTIFICATE + "Gauss-Jacobi rule at a = 9.5, b = -1: no finite "
             "weight (shrinkage constant at alpha = 0, nu = 1e-200, B = 9e-200)", DESK_POINTS),
    Rejected("tiny-nu-1e-17", desk({"nu": 1e-17}, alphas=[0.0, -1.0], reps_outer=50, seed=1), ("risk-compare",), 4,
             CERTIFICATE + "Gauss-Laguerre rule at a = -1, n = 16: not finite or not of mass 1 (loss quadrature at "
             "alpha = 0)", DESK_POINTS),
    # risk_mc allocates its whole (points x rules x reps) table of losses first: a huge rep count used to end in
    # numpy's ArrayMemoryError, a traceback naming no key, and at reps_outer only after the alpha = 1 rows had run
    Rejected("reps-1e13", shipped("case2_small_l", reps=10**13), ("risk-compare",), 1,
             "error: reps = 10000000000000 needs a loss table of 3 points x 4 rules x 10000000000000 rows x 8 bytes = "
             "9.6e+14 bytes, above LOSS_TABLE_BYTES_MAX = 1073741824"),
    Rejected("reps_outer-1e13", shipped("as1_desk", reps_outer=10**13), ("risk-compare",), 1,
             "error: reps_outer = 10000000000000 needs a loss table of 7 points x 2 rules x 10000000000000 rows x 8 "
             "bytes = 1.12e+15 bytes, above LOSS_TABLE_BYTES_MAX = 1073741824"),
    # an --out that cannot become a directory used to fail only when the run wrote its output, after all the work
    Rejected("out-file", BASE, COMMANDS, 1,
             "usage error: --out taken cannot be a directory: taken exists and is not one", {"taken": "a file"},
             flags=("--out", "taken"), out=False),
    Rejected("out-under-a-file", BASE, COMMANDS, 1,
             "usage error: --out taken/sub cannot be a directory: taken exists and is not one", {"taken": "a file"},
             flags=("--out", "taken/sub"), out=False),
    Rejected("out-empty", BASE, COMMANDS, 1, "usage error: --out must name a directory, got an empty path",
             flags=("--out", ""), out=False),
    # usage: no subcommand, one that does not exist, an unknown flag, and a config that is missing or not JSON
    Rejected("no-subcommand", None, ("",), 1, "usage: shrinkpred", prefix=True),
    Rejected("bogus-command", BASE, ("bogus-command",), 1,
             "usage error: argument command: invalid choice: 'bogus-command'", prefix=True),
    Rejected("threads-flag", BASE, COMMANDS, 1, "usage error: unrecognized arguments: --threads 2",
             flags=("--threads", "2")),
    Rejected("missing-config", None, COMMANDS, 1,
             "configuration error: [Errno 2] No such file or directory: 'config.json'"),
    Rejected("not-json", None, COMMANDS, 1, "configuration error: Expecting property name enclosed in double quotes",
             {"config.json": "{not json"}, prefix=True),
]

# the runs at the edge of the domain that exit 0: (id, config, subcommand, files)
ACCEPTED = [
    # bounds builds no prior, and its output does not depend on nu
    ("nu-1e308-bounds", desk({"nu": 1e308}, alphas=[0.0], reps_outer=50), "bounds", DESK_POINTS),
    ("nu-1e-17-density-eval", desk({"nu": 1e-17}, alphas=[0.0, -1.0], reps_outer=50, seed=1), "density-eval",
     DESK_POINTS),
    # the alpha = 1 plug-in rules build no shrinkage kernel
    ("nu-1e-300-alpha-1-risk-compare", desk({"nu": 1e-300}, alphas=[1.0], reps=100, reps_outer=50, seed=1),
     "risk-compare", {}),
    # a replicated design at the cap on n - k: no subcommand tiles its N copies of Xtilde, and below alpha = 1 the
    # certificates still hold
    *((f"as1-N333334-{command}", {"seed": 1, "design": dict(AS1_DESIGN, N=333_334), "alphas": [1.0, 0.0],
                                  "reps": 100, "reps_outer": 50}, command, {})
      for command in ("canonicalize", "bounds", "risk-compare")),
]


def run_in(tmp_path, monkeypatch, doc, files):
    """Write doc as config.json and files into tmp_path, and make it the working directory."""
    for name, content in files.items():
        if isinstance(content, str):
            (tmp_path / name).write_text(content)
        else:
            np.savetxt(tmp_path / name, content, delimiter=",", fmt="%.17g")
    if doc is not None:
        (tmp_path / "config.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)


def run_main(capsys, argv):
    """main(argv): its exit code, its stderr and the message of every warning it let escape."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning the program does not handle itself is recorded, not raised
        code = main(argv)
    return code, capsys.readouterr().err, [str(w.message) for w in caught]


@pytest.mark.parametrize("row", REJECTED, ids=[row.id for row in REJECTED])
def test_rejected(tmp_path, capsys, monkeypatch, row):
    # each subcommand that reads the input ends with the row's exit code and its stderr, lets no warning escape,
    # and writes nothing: no --out directory, and nothing else in the working directory
    run_in(tmp_path, monkeypatch, row.doc, row.files)
    before = sorted(path.name for path in tmp_path.iterdir())
    for command in row.commands:
        argv = [command, "--config", "config.json", *row.flags, *(["--out", f"out/{command}"] if row.out else [])]
        code, err, caught = run_main(capsys, argv if command else [])
        assert code == row.code, (command, err)
        assert err.startswith(row.stderr) if row.prefix else err == row.stderr + "\n", (command, err)
        assert caught == [], command
        assert sorted(path.name for path in tmp_path.iterdir()) == before, command


def test_an_out_that_cannot_be_a_directory_stops_every_subcommand_before_it_loads(tmp_path, capsys, monkeypatch):
    # risk-compare on as1_desk used to run its whole Monte Carlo before it failed on such an --out, an empty one too
    import shrinkpred.cli as cli_module

    def fail(*args, **kwargs):
        pytest.fail("a subcommand started work")

    run_in(tmp_path, monkeypatch, shipped("as1_desk"), {"taken": "a file"})
    (tmp_path / "dangling").symlink_to("nowhere")
    monkeypatch.setattr(cli_module, "load_config", fail)
    monkeypatch.setattr(cli_module, "risk_mc", fail)
    for command in COMMANDS:
        for out, want in (("taken/sub", "--out taken/sub cannot be a directory: taken exists and is not one"),
                          ("dangling", "--out dangling cannot be a directory: dangling exists and is not one"),
                          ("", "--out must name a directory, got an empty path")):
            code, err, _ = run_main(capsys, [command, "--config", "config.json", "--out", out])
            assert (code, err) == (1, f"usage error: {want}\n"), (command, out)


@pytest.mark.parametrize("doc, command, files", [row[1:] for row in ACCEPTED], ids=[row[0] for row in ACCEPTED])
def test_accepted(tmp_path, capsys, monkeypatch, doc, command, files):
    run_in(tmp_path, monkeypatch, doc, files)
    assert run_main(capsys, [command, "--config", "config.json", "--out", "out"]) == (0, "", [])
    assert (tmp_path / "out").is_dir()
