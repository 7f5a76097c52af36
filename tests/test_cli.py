"""Command line front-end: exit codes, file outputs, byte-level determinism."""

import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from shrinkpred.canonical import (
    BLOCK_SIZE,
    SIGMA2_RANGE,
    CanonicalObservation,
    CanonicalParams,
    as1_design,
    as1_problem,
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

from conftest import child_env


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


AS1_DESIGN = {"type": "as1", "m": 3, "k": 3, "N": 4}


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


def test_canonicalize_rank_deficient_exits_2(tmp_path):
    col = np.arange(10.0)
    cfg = write_config(tmp_path, {
        "design": {
            "type": "explicit",
            "X": np.column_stack([col, 2 * col]).tolist(),
            "Xtilde": [[1.0, 0.0]],
        }
    })
    assert main(["canonicalize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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


# every option the identities section held: its instance counts, then the settings fixed before it went
REMOVED_IDENTITY_OPTIONS = {"lemma_instances": 200, "beta_instances": 50, "chisq_draws": 100_000,
                            "log_grid_points": 10_000, "lemma_tol": 1e-8, "beta_tol": 1e-6, "log_tol": 1e-12,
                            "chisq_se_mult": 4.0, "chisq_nu": 0.3, "chisq_dof": 9, "chisq_numerator_dof": 3}


@pytest.mark.parametrize("key", REMOVED_IDENTITY_OPTIONS)
def test_removed_identities_options_are_unknown(tmp_path, capsys, key):
    # the suite's counts and tolerances are constants, so an identities section is itself the unknown option
    cfg = write_config(tmp_path, {"seed": 2, "identities": {key: REMOVED_IDENTITY_OPTIONS[key]}})
    capsys.readouterr()
    assert main(["identities", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "configuration error: unknown configuration option(s): 'identities'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("removed, message", [
    ({"prior": {"a": [1]}}, "unknown prior option(s): 'a'"),
    ({"design": {"type": "explicit", "file": "design.json"}}, "unknown design option(s): 'file'"),
    ({"is_samples": 4000}, "unknown configuration option(s): 'is_samples'"),
])
def test_removed_prior_and_design_keys_are_unknown(tmp_path, capsys, removed, message):
    # the prior is set by nu alone, an explicit design by X and Xtilde alone, and is_samples only
    # in the density section
    cfg = write_config(tmp_path, dict({"seed": 1, "design": AS1_DESIGN}, **removed))
    capsys.readouterr()
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("removed, message", [
    ({"out": "results"}, "unknown configuration option(s): 'out'"),
    ({"prior": {"rescale_c": True}}, "unknown prior option(s): 'rescale_c'"),
    ({"prior": {"c": None}}, 'c must be "identity", a finite number or a list of finite numbers, got None'),
    ({"prior": {"nu": None}}, "nu must be a finite number, got None"),
    ({"design": dict(AS1_DESIGN, xtilde=None)},
     "xtilde must be a list of equal-length rows of finite numbers, got None"),
])
def test_removed_spellings_exit_1_from_every_subcommand(tmp_path, capsys, removed, message):
    # --out alone sets the output directory, C is always g0 c, "identity" alone spells c = 1, and null spells
    # no value: a key left out takes its default
    cfg = write_config(tmp_path, dict({"seed": 1, "design": AS1_DESIGN}, **removed))
    for command in ("canonicalize", "bounds", "identities", "risk-compare", "density-eval"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1, command
        assert capsys.readouterr().err == f"configuration error: {message}\n", command
    assert not (tmp_path / "o").exists()


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

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PRIOR_DESIGNS = ["as1_desk", "case2_small_l", "case2_small_l_g0"]


def prior_design(tmp_path, name, prior=None):
    """The config at name with prior section prior, and its problem; case2_small_l_g0 takes Xtilde x 3 (g0 = 4.2525)."""
    doc = json.loads((CONFIGS / f"{name.removesuffix('_g0')}.json").read_text())
    if name.endswith("_g0"):
        doc["design"]["Xtilde"] = [[3.0 * x for x in row] for row in doc["design"]["Xtilde"]]
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


@pytest.mark.parametrize("design, key", [
    (dict(AS1_DESIGN, X=EXPLICIT_DESIGN["X"]), "X"),
    (dict(AS1_DESIGN, Xtilde=EXPLICIT_DESIGN["Xtilde"]), "Xtilde"),
    (dict(EXPLICIT_DESIGN, m=3), "m"),
    (dict(EXPLICIT_DESIGN, k=3), "k"),
    (dict(EXPLICIT_DESIGN, N=4), "N"),
    (dict(EXPLICIT_DESIGN, xtilde=[[1.0, 0.0]]), "xtilde"),
])
def test_other_design_types_keys_are_rejected_by_name(tmp_path, capsys, design, key):
    # a key of the other design type would otherwise be read by neither and silently ignored
    cfg = write_config(tmp_path, {"seed": 1, "design": design})
    capsys.readouterr()
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: design option(s) {key!r} do not apply to type {design['type']!r}\n")
    assert not (tmp_path / "o").exists()


RISK_DOC = {
    "seed": 33,
    "design": AS1_DESIGN,
    "alphas": [1.0, 0.0],
    "grid": {"theta_norms": [0.0, 2.0], "sigma2": [1.0]},
    "reps": 200,
    "reps_outer": 50,
    "n_mc_inner": 100,
}


def test_risk_compare_rows_and_determinism(tmp_path):
    cfg = write_config(tmp_path, RISK_DOC)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["risk-compare", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["risk-compare", "--config", cfg, "--out", str(out_b)]) == 0
    bytes_a = (out_a / "risk_compare.csv").read_bytes()
    assert bytes_a == (out_b / "risk_compare.csv").read_bytes()

    lines = bytes_a.decode().strip().split("\n")
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


def test_risks_depend_on_theta_and_sigma2_only_through_theta_over_sigma(tmp_path):
    # risk_mc scores every point in units of sigma, and theta/sigma is exact at sigma = 2 (a power of two), so the
    # sigma2 = 4 rows at |theta| = t are the sigma2 = 1 rows at t / 2, bit for bit at every alpha
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "as1_desk.json").read_text())
    norms = [0.0, 2.0, 5.0, 10.0]
    doc = dict(doc, seed=1, alphas=[1.0, 0.0, -1.0, 0.9, 0.99], reps=BLOCK_SIZE, reps_outer=200,
               grid=dict(doc["grid"], theta_norms=sorted({*norms, *(t / 2 for t in norms)}), sigma2=[1.0, 4.0]))
    assert main(["risk-compare", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 0
    lines = (tmp_path / "o" / "risk_compare.csv").read_text().splitlines()[1:]
    # (procedure, alpha, theta_norm, theta_direction, sigma2) -> (risk_mean, risk_se)
    risks = {tuple(cells[:5]): cells[6:8] for cells in (line.split(",") for line in lines)}
    compared = 0
    for (name, alpha, norm, direction, s2), scaled in risks.items():
        if s2 == "4" and float(norm) in norms:
            assert scaled == risks[name, alpha, _fmt(float(norm) / 2), direction, "1"], (name, alpha, norm, direction)
            compared += 1
    assert compared == 7 * (3 + 4 * 2)  # (norm, direction) points x (3 rules at alpha = 1, 2 at each alpha < 1)


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


def test_grid_directions_whose_squared_norm_overflows_or_underflows_give_their_unit_vectors(tmp_path):
    # squaring 1e300 overflows and squaring 1e-320 underflows; a direction divided by its largest |entry| first
    # gives the rows of [1, 1, 1] and [1, 0, 0] byte for byte, with no warning
    outputs = []
    for name, dirs in (("extreme", [[1e300] * 3, [1e-320, 0.0, 0.0]]), ("plain", [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])):
        grid = {"theta_directions": dirs, "theta_norms": [0.0, 2.0, 5.0], "sigma2": [1.0]}
        doc = dict(RISK_DOC, alphas=[1.0], grid=grid)
        cfg = write_config(tmp_path, doc, name=f"{name}.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / "risk_compare.csv").read_bytes())
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 1 + 3 * 5


@pytest.mark.parametrize("config, draws", [("as1_desk", 6), ("case2_small_l", 13)])
def test_risk_compare_draws_each_block_once(tmp_path, monkeypatch, config, draws):
    # one risk_mc call per alpha covers the whole grid, so each keyed block is drawn
    # once for all points: ceil(20000/4096) + ceil(500/4096) on as1_desk (7 points,
    # 42 draws point by point) and ceil(50000/4096) on case2_small_l (3 points, 39)
    import shrinkpred.risk as risk_module

    calls = []
    original = risk_module.simulate_observation

    def counted(problem, points, seed, block=0):
        calls.append(len(points))
        return original(problem, points, seed, block)

    monkeypatch.setattr(risk_module, "simulate_observation", counted)
    path = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    assert main(["risk-compare", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == draws
    assert set(calls) == {7 if config == "as1_desk" else 3}


def test_risk_compare_seed_override(tmp_path):
    cfg = write_config(tmp_path, RISK_DOC)
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["risk-compare", "--config", cfg, "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["risk-compare", "--config", cfg, "--out", str(out_b), "--seed", "100"]) == 0
    assert (out_a / "risk_compare.csv").read_bytes() != (out_b / "risk_compare.csv").read_bytes()


def test_risk_compare_empty_grid(tmp_path, capsys):
    # an empty list used to write a header-only CSV, exit 0; no directions still means the first axis
    for doc, key in ((dict(RISK_DOC, grid={"theta_norms": [], "sigma2": [1.0]}), "theta_norms"),
                     (dict(RISK_DOC, grid={"theta_norms": [0.0], "sigma2": []}), "sigma2"),
                     (dict(RISK_DOC, alphas=[]), "alphas")):
        cfg = write_config(tmp_path, doc)
        capsys.readouterr()
        assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "empty")]) == 1, key
        assert capsys.readouterr().err == f"configuration error: {key} must hold at least one value\n"
        assert not (tmp_path / "empty").exists()
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


@pytest.mark.parametrize("bad, key", [
    ({"alpha": "x"}, "alpha"), ({"alpha": [0.0]}, "alpha"), ({"alpha": 1.5}, "alpha"),
    ({"type": "t_density"}, "type"), ({"problem": 3}, "problem"),
    ({"observation": [0.5, -0.2, 1.0]}, "observation"), ({"points": 3}, "points"),
])
def test_density_config_errors_name_the_key(tmp_path, capsys, bad, key):
    density = dict({"problem": "problem.json", "observation": "observation.json", "points": "points.csv"}, **bad)
    cfg = write_config(tmp_path, {"seed": 1, "density": density})
    capsys.readouterr()
    assert main(["density-eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"{key} must" in err, err
    assert not (tmp_path / "o").exists()


ABSENT = object()  # an observation key left out


@pytest.mark.parametrize("case, kind, drop, obs, key", [
    ("I", "best_invariant", "problem", {}, "problem"),
    ("I", "best_invariant", "observation", {}, "observation"),
    ("I", "best_invariant", "points", {}, "points"),
    ("I", "best_invariant", None, {"v": ABSENT}, "v"),
    ("I", "best_invariant", None, {"s": ABSENT}, "s"),
    ("I", "best_invariant", None, {"v": [0.5, -0.2]}, "v"),
    ("I", "shrinkage_bayes", None, {"v_star": [3.0]}, "v_star"),
    ("II", "shrinkage_bayes", None, {"v_star": ABSENT}, "v_star"),
    ("I", "shrinkage_bayes", None, {"s": math.nan}, "s"),
    ("I", "best_invariant", None, {"s": math.inf}, "s"),
    ("I", "plugin", None, {"s": 0.0}, "s"),
    ("I", "best_invariant", None, {"s": "8"}, "s"),
    ("I", "best_invariant", None, {"v": [0.5, math.nan, 1.0]}, "v"),
    ("I", "plugin", None, {"v": [0.5, "a", 1.0]}, "v"),
    ("II", "best_invariant", None, {"v_star": [math.inf, 0.1]}, "v_star"),
    ("I", "best_invariant", None, {"s": None}, "s"),
])
def test_density_eval_input_errors_name_the_key(tmp_path, capsys, as1_problem_n12, case2_problem_n12,
                                                case, kind, drop, obs, key):
    # a density section that loads but lacks a key, or whose observation does not fit the problem
    problem = as1_problem_n12 if case == "I" else case2_problem_n12
    pts = tmp_path / "points.csv"
    np.savetxt(pts, np.zeros((2, problem.m)), delimiter=",")
    observation = {"v": [0.5] * problem.l, "v_star": [0.1] * (problem.k - problem.l), "s": 8.0}
    observation = {name: value for name, value in dict(observation, **obs).items() if value is not ABSENT}
    density = {"problem": problem_to_dict(problem), "observation": observation, "type": kind, "points": str(pts)}
    if kind != "plugin":
        density["alpha"] = 0.0
    density.pop(drop, None)
    cfg = write_config(tmp_path, {"seed": 1, "density": density})
    capsys.readouterr()
    assert main(["density-eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key} must" in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("inline", [True, False])
def test_density_eval_rejects_unknown_observation_keys(tmp_path, capsys, as1_problem_n12, inline):
    # a misspelled key used to be ignored: "vstar" left v_star empty and the run exited 0
    pts = tmp_path / "points.csv"
    np.savetxt(pts, np.zeros((2, 3)), delimiter=",")
    observation = {"v": [0.5, -0.2, 1.0], "vstar": [9.0], "s": 8.0, "extra": "x"}
    if not inline:
        observation = write_config(tmp_path, observation, "observation.json")
    density = {"problem": problem_to_dict(as1_problem_n12), "observation": observation, "points": str(pts)}
    cfg = write_config(tmp_path, {"seed": 1, "density": density})
    capsys.readouterr()
    assert main(["density-eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: unknown observation option(s): 'extra', 'vstar'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("density, message", [
    ({"type": "plugin", "alpha": 0.0}, "alpha must be left out for type 'plugin', the alpha = 1 plug-in normal"),
    ({"alpha": 1.0}, "alpha must lie in [-1, 0.999], got 1.0"),
    ({"type": "shrinkage_bayes", "alpha": 1}, "alpha must lie in [-1, 0.999], got 1.0"),
])
def test_density_alpha_is_checked_against_its_type_by_every_subcommand(tmp_path, capsys, density, message):
    # the plug-in normal is the alpha = 1 density, on which alpha had no effect; the other two exist for
    # alpha < 1 only, and alpha = 1 used to pass the load and fail density-eval at run time
    cfg = write_config(tmp_path, {"seed": 1, "design": AS1_DESIGN, "density": density})
    for command in ("canonicalize", "bounds", "identities", "risk-compare", "density-eval"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1, command
        assert capsys.readouterr().err == f"configuration error: {message}\n", command
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("text", ["", "# ytilde_1,ytilde_2,ytilde_3\n\n"])
def test_csv_files_without_rows_are_rejected_without_a_warning(tmp_path, capsys, as1_problem_n12, action, text):
    # loadtxt warns on such a file and hands back a (0, 1) array, which used to fail a column check
    # further on; under warnings as errors its warning escaped as a traceback
    empty = tmp_path / "empty.csv"
    empty.write_text(text)
    density = {"problem": problem_to_dict(as1_problem_n12), "observation": {"v": [0.5] * 3, "v_star": [], "s": 8.0},
               "points": str(empty)}
    runs = [(["density-eval", "--config", write_config(tmp_path, {"seed": 1, "density": density}, "d.json")],
             f"error: points file {empty} holds no rows\n"),
            (["canonicalize", "--config", write_config(tmp_path, {"design": {
                "type": "explicit", "X": str(empty), "Xtilde": [[1.0, 0.0, 0.0]]}}, "x.json")],
             f"configuration error: X must be a matrix of numbers: X file {empty} holds no rows\n")]
    for argv, message in runs:
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o").exists()


NOT_A_TABLE = "{key} file {path} is not a table of numbers: "


@pytest.mark.parametrize("key, text, message", [
    pytest.param("points", "1,2,3\n4,5,x\n", "error: " + NOT_A_TABLE + "could not convert", id="points-cell"),
    pytest.param("points", "1,2,3\n4,5\n", "error: " + NOT_A_TABLE + "the number of columns", id="points-ragged"),
    pytest.param("points", "1,2,3\nnan,5,6\n", "error: points must be numbers or +-inf, not nan, in {path}\n",
                 id="points-nan"),
    pytest.param("points", "1,2\n4,5\n", "error: points file {path} has 2 columns; the problem needs m = 3\n",
                 id="points-columns"),
    pytest.param("X", "1,0,0\n0,x,0\n", "configuration error: X must be a matrix of numbers: " + NOT_A_TABLE,
                 id="X-cell"),
    pytest.param("X", "1,0,0\n0,1\n", "configuration error: X must be a matrix of numbers: " + NOT_A_TABLE,
                 id="X-ragged"),
])
def test_csv_files_that_are_not_tables_of_numbers_name_the_key(tmp_path, capsys, as1_problem_n12, key, text,
                                                                 message):
    # numpy's own message used to come through alone, and a nan point used to give a nan row and exit 0
    path = tmp_path / "bad.csv"
    path.write_text(text)
    if key == "points":
        density = {"problem": problem_to_dict(as1_problem_n12), "points": str(path),
                   "observation": {"v": [0.5] * 3, "v_star": [], "s": 8.0}}
        argv = ["density-eval", "--config", write_config(tmp_path, {"seed": 1, "density": density})]
    else:
        design = {"type": "explicit", "X": str(path), "Xtilde": [[1.0, 0.0, 0.0]]}
        argv = ["canonicalize", "--config", write_config(tmp_path, {"design": design})]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(message.format(key=key, path=path))
    assert not (tmp_path / "o").exists()


def test_certificate_failure_exits_4(tmp_path, monkeypatch, capsys):
    import shrinkpred.quad as quad_module

    # with no larger Gauss rule to compare against (the top rung lowered to the first), no integral is certified:
    # risk-compare fails at its first, and density-eval at the shrinkage constant, which its message names
    monkeypatch.setattr(quad_module, "LOSS_MAX_NODES", quad_module.LOSS_START_NODES)
    cfg = write_config(tmp_path, dict(RISK_DOC, alphas=[0.0]))
    capsys.readouterr()
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("normalization certificate failed:")
    assert not (tmp_path / "o" / "risk_compare.csv").exists()
    density = shrinkage_density_config(tmp_path, 0.0, 0.2)
    capsys.readouterr()
    assert main(["density-eval", "--config", density, "--out", str(tmp_path / "d")]) == 4
    assert capsys.readouterr().err == ("normalization certificate failed: shrinkage constant at alpha = 0, nu = 0.2, "
                                       "B = 1.8: 1 row(s) uncertified, no n vs 3n/2 pair within LOSS_MAX_NODES = 16\n")
    assert not (tmp_path / "d").exists()


def shrinkage_density_config(tmp_path, alpha, nu):
    """A density-eval config for the shrinkage density on the canonicalized as1_desk at alpha, with prior weight nu."""
    canon = tmp_path / "canon"
    assert main(["canonicalize", "--config", str(CONFIGS / "as1_desk.json"), "--out", str(canon)]) == 0
    np.savetxt(tmp_path / "points.csv", np.random.default_rng(1).standard_normal((5, 3)), delimiter=",", fmt="%.17g")
    return write_config(tmp_path, {
        "prior": {"c": "identity", "gamma_prior": 1.0, "nu": nu},
        "density": {"problem": str(canon / "problem.json"), "type": "shrinkage_bayes", "alpha": alpha,
                    "observation": {"v": [1.0, -0.5, 0.3], "v_star": [], "s": 7.5},
                    "points": str(tmp_path / "points.csv")}})


def test_a_shrinkage_constant_that_is_not_finite_exits_4(tmp_path, capsys):
    # a is finite at nu = 1e306, but B = nu (n - k)/(1 - alpha) is not: the constant used to be written as nan
    cfg = shrinkage_density_config(tmp_path, 0.999, 1e306)
    capsys.readouterr()
    assert main(["density-eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("normalization certificate failed:") and "not finite" in err, err
    assert not (tmp_path / "o").exists()


def test_a_nu_whose_prior_exponent_overflows_exits_1_from_the_subcommands_that_build_a_prior(tmp_path, capsys):
    # at nu = 1e308, a = (nu (n - k) - k - 2)/2 is inf: density-eval wrote nan, and risk-compare at alpha = 0
    # exited 2 from the Gauss-Laguerre rule's eigenvalue solver
    message = "error: nu must leave the prior exponent a = (nu (n - k) - k - 2)/2 finite, got 1e+308\n"
    doc = json.loads((CONFIGS / "as1_desk.json").read_text())
    risk = write_config(tmp_path, dict(doc, prior=dict(doc["prior"], nu=1e308), alphas=[0.0], reps_outer=50),
                        "risk.json")
    for command, cfg in (("density-eval", shrinkage_density_config(tmp_path, 0.0, 1e308)), ("risk-compare", risk)):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1, command
        assert capsys.readouterr().err == message, command
    assert not (tmp_path / "o").exists()
    # bounds builds no prior, and its output does not depend on nu
    assert main(["bounds", "--config", risk, "--out", str(tmp_path / "b")]) == 0


@pytest.mark.parametrize("nu", [1e50, 1e100, 1e200, 1e300, 1e306])
def test_a_huge_finite_nu_is_a_certificate_failure(tmp_path, capsys, nu):
    # these used to end in a traceback, exit 1: ZeroDivisionError in the loss once the Gauss-Laguerre rule came
    # back nan or of the wrong mass (up to 1e300), and math.lgamma's OverflowError in the shrinkage constant (1e306);
    # from 1e200 the shrinkage constant's Gauss-Jacobi rule, whose nodes would lie near 1e-200, fails before the loss
    doc = json.loads((CONFIGS / "as1_desk.json").read_text())
    doc.update(prior=dict(doc["prior"], nu=nu), alphas=[0.0, -1.0], reps_outer=100, seed=1)
    doc["grid"]["theta_norms"] = [0.0, 2.0]
    cfg = write_config(tmp_path, doc)
    capsys.readouterr()
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    cause = "lnGamma" if nu == 1e306 else "Gauss-Laguerre rule" if nu < 1e200 else "Gauss-Jacobi rule"
    assert err.startswith(f"normalization certificate failed: {cause}") and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()
    if nu == 1e306:
        capsys.readouterr()
        density = shrinkage_density_config(tmp_path, 0.0, nu)
        capsys.readouterr()
        assert main(["density-eval", "--config", density, "--out", str(tmp_path / "d")]) == 4
        assert capsys.readouterr().err.startswith("normalization certificate failed: lnGamma")
        assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("prior", [{"nu": 1e-300}, {"nu": 1e-17}, {"c": 1e200}])
def test_a_tiny_nu_is_a_certificate_failure(tmp_path, capsys, prior):
    # at nu = 1e-17 or less (c = 1e200 caps nu at 1e-200) k + 2a + 2 rounded to 0, and B formed from it ended these
    # runs in lnGamma(0), "error: math domain error", exit 1.  Now B = nu (n - k)/(1 - alpha): at 1e-300 and 1e-200
    # B - 1 rounds to -1, where the shrinkage constant's Beta weight has no mass.  At 1e-17 the alpha = 0 constant
    # (B = 9e-17) integrates, so density-eval runs, but the alpha = 0 loss's Gauss-Laguerre parameter B beta - 1
    # rounds to -1 and risk-compare fails there
    doc = json.loads((CONFIGS / "as1_desk.json").read_text())
    doc.update(prior=dict(doc["prior"], **prior), alphas=[0.0, -1.0], reps_outer=50, seed=1)
    density = json.loads(Path(shrinkage_density_config(tmp_path, 0.0, 1.0)).read_text())
    density["prior"] = doc["prior"]
    for command, cfg, out in (("risk-compare", write_config(tmp_path, doc, "risk.json"), "r"),
                              ("density-eval", write_config(tmp_path, density, "density.json"), "d")):
        capsys.readouterr()
        if command == "density-eval" and prior == {"nu": 1e-17}:
            assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 0
            continue
        assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 4, command
        err = capsys.readouterr().err
        assert err.startswith("normalization certificate failed: ") and "Traceback" not in err, err
        # the shrinkage constant's failure names nu and B; at nu = 1e-17 risk-compare fails at the loss
        assert prior == {"nu": 1e-17} or ("nu = " in err and "B = " in err), err
        assert not (tmp_path / out).exists()
    if prior == {"nu": 1e-300}:  # the alpha = 1 plug-in rules build no shrinkage kernel
        doc.update(alphas=[1.0], reps=100)
        assert main(["risk-compare", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "a1")]) == 0


def test_as1_subcommands_other_than_canonicalize_never_tile_x(tmp_path, monkeypatch):
    # the N-fold X of the replicated design grew memory with N in bounds and risk-compare, which never read it
    import shrinkpred.cli as cli_module

    doc = json.loads((CONFIGS / "as1_desk.json").read_text())
    doc.update(alphas=[1.0, 0.0], reps=100, reps_outer=50)
    cfg = write_config(tmp_path, doc)

    def refuse(*args):
        raise AssertionError("as1_design called")

    monkeypatch.setattr(cli_module, "as1_design", refuse)
    for command in ("bounds", "risk-compare"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0, command
    with pytest.raises(AssertionError, match="as1_design called"):
        main(["canonicalize", "--config", cfg, "--out", str(tmp_path / "refused")])
    monkeypatch.undo()
    # canonicalize still reports on the tiled X, as the library builds it
    assert main(["canonicalize", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    problem, _, xt = build_problem(load_config(cfg))
    report = cli_module.invariant_report(problem, as1_design(xt, 4), xt)
    cli_module._write_json(str(tmp_path / "reference.json"), report)
    assert (tmp_path / "c" / "canonicalize_report.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


def test_loss_certificate_failure_exits_4(tmp_path, monkeypatch, capsys):
    import shrinkpred.quad as quad_module

    # with no larger Gauss-Laguerre rule to compare against, no alpha < 1 loss is certified
    monkeypatch.setattr(quad_module, "LOSS_MAX_NODES", quad_module.LOSS_START_NODES)
    cfg = write_config(tmp_path, dict(RISK_DOC, alphas=[0.0]))
    capsys.readouterr()
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("normalization certificate failed:") and "loss quadrature" in err
    assert not (tmp_path / "o" / "risk_compare.csv").exists()


def test_kullback_leibler_loss_certificate_failure_exits_4(tmp_path, monkeypatch, capsys):
    import shrinkpred.cli as cli_mod
    import shrinkpred.quad as quad_module

    # at alpha = -1 the best invariant loss's Frullani integrals fail first, before any shrinkage constant
    monkeypatch.setattr(quad_module, "LOSS_MAX_NODES", quad_module.LOSS_START_NODES)
    monkeypatch.setattr(cli_mod, "shrinkage_bayes_kernel", lambda *args: pytest.fail("shrinkage kernel built"))
    cfg = write_config(tmp_path, dict(RISK_DOC, alphas=[-1.0]))
    capsys.readouterr()
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("normalization certificate failed: Frullani integral at alpha = -1") and "n vs 3n/2" in err
    assert not (tmp_path / "o" / "risk_compare.csv").exists()


@pytest.mark.parametrize("doc, message", [
    ({"alphas": [0.0, 0.9999]}, "alphas other than 1 must lie in [-1, 0.999], got 0.9999"),
    ({"alphas": [0.99999, 1.0]}, "alphas other than 1 must lie in [-1, 0.999], got 0.99999"),
    ({"density": {"alpha": 0.9995}}, "alpha must lie in [-1, 0.999], got 0.9995"),
    ({"density": {"type": "shrinkage_bayes", "alpha": 0.99999}}, "alpha must lie in [-1, 0.999], got 0.99999"),
])
def test_alpha_between_the_bound_and_one_is_a_configuration_error(tmp_path, capsys, doc, message):
    # nearer 1 the exact loss loses digits its certificate cannot see: alphas = [0.9999] used to exit 0
    # with a loss 2.7e-6 off, and 0.99999 to exit 4 with a quadrature message that did not name alpha
    cfg = write_config(tmp_path, dict(RISK_DOC, **doc))
    for command in ("bounds", "risk-compare"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1, command
        assert capsys.readouterr().err == f"configuration error: {message}\n", command
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("problem, key", [
    ([1, 2], "JSON object"), ({"k": 3, "m": 3}, "'n'"), ({"n": 12, "m": 3}, "'k'"), ({"n": 12, "k": 3}, "'m'"),
    ({"n": [12], "k": 3, "m": 3}, "'n'"), ({"n": 12, "k": "three", "m": 3}, "'k'"),
    ({"n": 12, "k": 3, "m": 3, "cond_xtx": [1.0]}, "'cond_xtx'"), ({"n": 12, "k": 3, "m": 3, "d": [[1.0], 2.0]}, "'d'"),
    # JSON's NaN and Infinity, which every comparison in the constructor's checks lets through
    ({"n": 12, "k": 3, "m": 3, "d": [0.25, math.nan, 0.25]}, "malformed: d must be a list of finite numbers"),
    ({"n": 12, "k": 3, "m": 3, "Q": [[1.0, 0.0, 0.0], [0.0, math.nan, 0.0], [0.0, 0.0, 1.0]]},
     "malformed: Q must be a list of equal-length rows of finite numbers"),
    ({"n": 12, "k": 3, "m": 3, "coef_transform": [[math.inf] * 3] * 3},
     "coef_transform must be a list of equal-length rows of finite numbers"),
    # a fraction or a string where a dimension belongs, which int() used to truncate or parse
    ({"n": 12.7, "k": 3, "m": 3}, "'n'"), ({"n": "12", "k": 3, "m": 3}, "'n'"),
    # no residual degrees of freedom, which used to fail in a log with "math domain error"
    ({"n": 3, "k": 3, "m": 3}, "n must exceed k"),
    # cond_xtx, a ratio of ordered singular values: NaN used to load with a silently null warning
    ({"n": 12, "k": 3, "m": 3, "cond_xtx": math.nan}, "cond_xtx must be a finite number >= 1"),
    ({"n": 12, "k": 3, "m": 3, "cond_xtx": math.inf}, "cond_xtx must be a finite number >= 1"),
    ({"n": 12, "k": 3, "m": 3, "cond_xtx": -math.inf}, "cond_xtx must be a finite number >= 1"),
    ({"n": 12, "k": 3, "m": 3, "cond_xtx": 0.5}, "cond_xtx must be a finite number >= 1"),
    ({"n": 12, "k": 3, "m": 3, "cond_xtx": True}, "'cond_xtx'"),
    # a numeric string or a boolean, which float() and np.asarray(..., dtype=float) used to read as a number
    ({"n": 12, "k": 3, "m": 3, "cond_xtx": "12"}, "cond_xtx must be a finite number >= 1, got '12'"),
    ({"n": 12, "k": 3, "m": 3, "d": ["0.25", "0.25", "0.25"]}, "d must be a list of finite numbers"),
    ({"n": 12, "k": 3, "m": 3, "d": [0.25, True, 0.25]}, "d must be a list of finite numbers"),
    ({"n": 12, "k": 3, "m": 3, "Q": [[1.0, 0.0, 0.0], [0.0, "1", 0.0], [0.0, 0.0, 1.0]]}, "'Q'"),
    ({"n": 12, "k": 3, "m": 3, "Q": [[True, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}, "'Q'"),
    ({"n": 12, "k": 3, "m": 3, "coef_transform": [["0.5", 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]]},
     "'coef_transform'"),
    ({"n": 12, "k": 3, "m": 3, "coef_transform": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, False]]},
     "'coef_transform'"),
])
def test_density_eval_problem_document_errors_name_the_key(tmp_path, capsys, as1_problem_n12, problem, key):
    # a problem document that is not an object, or lacks or garbles a key, exits 1 naming it
    if isinstance(problem, dict):
        doc = problem_to_dict(as1_problem_n12)
        problem = dict({name: value for name, value in doc.items() if name not in ("n", "k", "m")}, **problem)
    (tmp_path / "problem.json").write_text(json.dumps(problem))
    np.savetxt(tmp_path / "points.csv", np.zeros((2, 3)), delimiter=",")
    density = {"problem": str(tmp_path / "problem.json"), "points": str(tmp_path / "points.csv"),
               "observation": {"v": [0.5, -0.2, 1.0], "v_star": [], "s": 8.0}}
    cfg = write_config(tmp_path, {"seed": 1, "density": density})
    capsys.readouterr()
    assert main(["density-eval", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: problem document") and key in err, err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("wrong, key", [
    ({"reps": math.nan}, "reps"),
    ({"prior": {"gamma_prior": -math.inf}}, "gamma_prior"),
    ({"grid": {"theta_directions": 5}}, "theta_directions"),
    ({"grid": {"theta_directions": [[1.0, "x", 0.0]]}}, "theta_directions"),
    ({"grid": {"theta_norms": [1.0, "2"]}}, "theta_norms"),
    ({"grid": {"sigma2": [None]}}, "sigma2"),
    ({"alphas": [0.0, "0.5"]}, "alphas"),
    # JSON's NaN and Infinity, an int past the float range, and a negative norm
    ({"grid": {"theta_norms": [math.nan]}}, "theta_norms"),
    ({"grid": {"theta_norms": [2.0, -2.0]}}, "theta_norms"),
    ({"grid": {"sigma2": [math.nan]}}, "sigma2"),
    ({"grid": {"sigma2": [math.inf]}}, "sigma2"),
    ({"grid": {"theta_directions": [[1.0, math.nan, 0.0]]}}, "theta_directions"),
    ({"prior": {"c": math.nan}}, "c"),
    ({"prior": {"c": [1.0, -math.inf, 1.0]}}, "c"),
    ({"prior": {"nu": math.inf}}, "nu"),
    ({"alphas": [10**400]}, "alphas"),
    # a repeated value, compared as a float, would repeat the key of a risk_compare.csv row
    ({"alphas": [1.0, 1.0]}, "alphas"),
    ({"alphas": [0, -0.0]}, "alphas"),
    ({"grid": {"theta_norms": [2.0, 2.0]}}, "theta_norms"),
    ({"grid": {"theta_norms": [0.0, 5.0, -0.0]}}, "theta_norms"),
    ({"grid": {"sigma2": [1.0, 0.5, 1]}}, "sigma2"),
    # past THETA_OVER_SIGMA_MAX or outside SIGMA2_RANGE a risk loses digits
    ({"grid": {"theta_norms": [0.0, 1e9]}}, "theta_norms"),
    ({"grid": {"theta_norms": [1e16]}}, "theta_norms"),
    ({"grid": {"theta_norms": [2.0], "sigma2": [1.0, 1e-100]}}, "theta_norms"),
    ({"grid": {"sigma2": [1e200]}}, "sigma2"),
    ({"grid": {"sigma2": [1.0, 1e-200]}}, "sigma2"),
    ({"grid": {"sigma2": [0.0]}}, "sigma2"),
    # values a prior cannot take fail at load, also for subcommands that build no prior
    ({"prior": {"nu": -1}}, "nu"),
    ({"prior": {"nu": 0}}, "nu"),
    ({"prior": {"gamma_prior": 0.5}}, "gamma_prior"),
])
def test_config_number_errors_name_the_key(tmp_path, capsys, wrong, key):
    cfg = write_config(tmp_path, dict({"seed": 1, "design": AS1_DESIGN}, **wrong))
    capsys.readouterr()
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and re.search(f"{key} must (be|not repeat a value)", err), err
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command", ["bounds", "risk-compare"])
@pytest.mark.parametrize("c", [[1.0, 2.0], [2.0], [1.0, 2.0, 3.0, 4.0]])
def test_prior_c_list_of_the_wrong_length_names_the_key_and_l(tmp_path, capsys, command, c):
    # numpy used to reject the broadcast in its own words, or stretch a one-entry list over l axes
    cfg = write_config(tmp_path, dict(RISK_DOC, prior={"c": c}))
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: c must have l = 3 entries, got {len(c)}\n"
    assert not (tmp_path / "o").exists()


def test_prior_c_number_stands_for_every_axis(tmp_path):
    outs = []
    for tag, c in (("number", 2.0), ("list", [2.0, 2.0, 2.0])):
        cfg = write_config(tmp_path, dict(RISK_DOC, prior={"c": c}))
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / tag)]) == 0
        outs.append((tmp_path / tag / "bounds.json").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("c", [0.5, [1.0, 0.5, 2.0]])
def test_prior_c_below_one_is_a_configuration_error_for_every_subcommand(tmp_path, capsys, c):
    # the prior needs C >= I; canonicalize, which builds no prior, used to exit 0
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "as1_desk.json").read_text())
    cfg = write_config(tmp_path, dict(doc, prior=dict(doc["prior"], c=c)))
    for command in ("canonicalize", "bounds", "risk-compare"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1, command
        err = capsys.readouterr().err
        assert err == f"configuration error: c must be finite and >= 1 in every entry, got {c!r}\n", (command, err)
    assert not (tmp_path / "o").exists()


def test_a_config_without_a_design_exits_1_from_every_subcommand_that_needs_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {"seed": 1})
    for command in ("canonicalize", "bounds", "risk-compare"):
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1, command
        assert capsys.readouterr().err == "error: configuration has no design section\n", command
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("alphas, counts, message", [
    ([0.0], {"reps_outer": 49}, "reps_outer must be at least 50"),
    ([1.0, 0.5], {"reps_outer": 10}, "reps_outer must be at least 50"),
    ([1.0], {"reps": 99}, "reps must be at least 100"),
    ([1.0, 0.0], {"reps": 10}, "reps must be at least 100"),
])
def test_rep_counts_below_the_floor_name_the_key(tmp_path, capsys, alphas, counts, message):
    # each count is checked against min_reps's floor where an alpha uses it, before any run starts
    cfg = write_config(tmp_path, dict(RISK_DOC, alphas=alphas, **counts))
    capsys.readouterr()
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}"), err
    assert not (tmp_path / "o").exists()


def test_rep_counts_at_the_floor_or_unused_load(tmp_path):
    for alphas, counts in (([1.0, 0.0], {"reps": 100, "reps_outer": 50}), ([0.0], {"reps": 1}),
                           ([1.0], {"reps_outer": 1})):
        cfg = load_config(write_config(tmp_path, dict(RISK_DOC, alphas=alphas, **counts)))
        assert (cfg.reps, cfg.reps_outer) == (counts.get("reps", 200), counts.get("reps_outer", 50))


@pytest.mark.parametrize("source", ["config", "flag"])
def test_seed_beyond_64_bits_rejected(tmp_path, capsys, source):
    # the generator keys on 64 bits of the seed, so 2^64 would rerun seed 0's draws
    seed = 2**64
    cfg = write_config(tmp_path, dict(RISK_DOC, alphas=[1.0], seed=seed if source == "config" else 1))
    flag = ["--seed", str(seed)] if source == "flag" else []
    capsys.readouterr()
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "o"), *flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "seed must be" in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("design, key", [
    ({"type": "as1", "m": 3, "k": 3}, "N"),
    ({"type": "explicit", "X": 5, "Xtilde": [[1.0, 0.0]]}, "X"),
    ({"type": "as1", "m": 3, "k": 3, "N": 4, "xtilde": [[1.0, 0.0, 0.0], [0.0, "a", 0.0], [0.0, 0.0, 1.0]]},
     "xtilde"),
    # non-finite entries, which the reduction's SVD would fail on without naming the matrix
    ({"type": "as1", "m": 3, "k": 3, "N": 4, "xtilde": [[1.0, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, 1.0]]},
     "xtilde"),
    ({"type": "explicit", "X": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [math.nan, 2.0]], "Xtilde": [[1.0, 0.0]]}, "X"),
    ({"type": "explicit", "X": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 2.0]], "Xtilde": [[math.nan, 0.0]]},
     "Xtilde"),
    # one replicate of a square Xtilde leaves n = k, no residual degrees of freedom
    ({"type": "as1", "m": 3, "k": 3, "N": 1}, "N"),
    # a numeric string or a boolean, which np.asarray(..., dtype=float) used to read as a number
    (dict(EXPLICIT_DESIGN, X=[[1.0, 0.0], [0.0, 1.0], [1.0, "1.5"], [True, 2.0]]), "X"),
    (dict(EXPLICIT_DESIGN, Xtilde=[["1", 0.0]]), "Xtilde"),
    (dict(EXPLICIT_DESIGN, Xtilde=[[True, 0.0]]), "Xtilde"),
    ({"type": "as1", "m": 3, "k": 3, "N": 4, "xtilde": [[1.0, 0.0, 0.0], [0.0, "1", 0.0], [0.0, 0.0, 1.0]]},
     "xtilde"),
    ({"type": "as1", "m": 3, "k": 3, "N": 4, "xtilde": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, True]]},
     "xtilde"),
    # rows of unequal length
    (dict(EXPLICIT_DESIGN, X=[[1.0, 0.0], [0.0, 1.0], [1.0], [1.0, 2.0]]), "X"),
])
def test_design_errors_name_the_key(tmp_path, capsys, design, key):
    cfg = write_config(tmp_path, {"seed": 1, "design": design})
    capsys.readouterr()
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"{key} must be" in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("m, k, N, key", [(2, 3, 2, "m"), (3, 3, 1, "N"), (3, 3, 0, "N"), (4, 3, -2, "N")])
def test_replicated_design_rules_have_one_text(tmp_path, capsys, m, k, N, key):
    # m >= k, N >= 1 and n = N m > k are canonical's rules: load_config calls the check that as1_design and
    # as1_problem call, so all three reject a design in the same words, naming the key
    messages = set()
    for build in (as1_design, as1_problem):
        with pytest.raises(ValueError, match=f"^{key} must be") as raised:
            build(np.eye(m, k), N)
        messages.add(str(raised.value))
    (message,) = messages
    cfg = write_config(tmp_path, {"seed": 1, "design": {"type": "as1", "m": m, "k": k, "N": N}})
    capsys.readouterr()
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    # k >= 3 is the command line's own rule, which the library does not state
    cfg = write_config(tmp_path, {"seed": 1, "design": {"type": "as1", "m": 3, "k": 2, "N": 4}})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("configuration error: k must be at least 3")
    assert as1_problem(np.eye(3, 2), 4).k == 2


def test_usage_errors(tmp_path, capsys, monkeypatch):
    assert main([]) == 1
    assert main(["canonicalize", "--config", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["canonicalize", "--config", str(bad)]) == 1
    assert main(["bogus-command"]) == 1
    cfg = write_config(tmp_path, {"design": {"type": "as1", "m": 2, "k": 3, "N": 2}})
    assert main(["canonicalize", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    good = write_config(tmp_path, {"seed": 1, "design": AS1_DESIGN}, "good.json")
    assert main(["bounds", "--config", good, "--out", str(tmp_path / "o"), "--threads", "2"]) == 1
    # a misspelled key in each checked section, and values of the wrong JSON type
    for typo in ({"rep": 10}, {"prior": {"gama_prior": 2.0}}, {"grid": {"theta_norm": [1.0]}},
                 {"design": dict(AS1_DESIGN, Nn=5)}, {"density": {"problem": "problem.json", "typ": "plugin"}},
                 {"alphas": 5}, {"grid": {"sigma2": 2.0}}):
        cfg = write_config(tmp_path, dict({"seed": 1, "design": AS1_DESIGN}, **typo), "typo.json")
        capsys.readouterr()
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1, typo
        assert capsys.readouterr().err.startswith("configuration error:"), typo
    # a value of the wrong type, or a fraction where an integer belongs, is named in the message
    monkeypatch.chdir(tmp_path)
    for wrong, key in (({"alphas": 5}, "alphas"), ({"seed": True}, "seed"),
                       ({"reps": 2.5}, "reps"), ({"design": {"type": "as1", "m": 3.7, "k": 3, "N": 4.9}}, "m"),
                       ({"prior": {"nu": "0.3"}}, "nu"),
                       ({"prior": {"gamma_prior": "x"}}, "gamma_prior"), ({"prior": {"c": "ones"}}, "c")):
        cfg = write_config(tmp_path, dict({"seed": 1, "design": AS1_DESIGN}, **wrong), "wrong.json")
        capsys.readouterr()
        assert main(["bounds", "--config", cfg]) == 1, wrong
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"{key} must be" in err, (wrong, err)
    assert not (tmp_path / "bounds.json").exists()
