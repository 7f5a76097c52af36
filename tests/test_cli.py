"""Command line front-end: exit codes, file outputs, byte-level determinism."""

import json

import numpy as np
import pytest

from shrinkpred.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


AS1_DESIGN = {"type": "as1", "m": 3, "k": 3, "N": 4}

FAST_IDENTITIES = {
    "lemma_instances": 50,
    "beta_instances": 10,
    "chisq_draws": 20000,
    "log_grid_points": 1000,
}


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


def test_canonicalize_design_document(tmp_path):
    rng = np.random.default_rng(9)
    doc_path = tmp_path / "design.json"
    doc_path.write_text(json.dumps({
        "X": rng.standard_normal((9, 2)).tolist(),
        "Xtilde": rng.standard_normal((3, 2)).tolist(),
    }))
    cfg = write_config(tmp_path, {"design": {"type": "explicit", "file": str(doc_path)}})
    assert main(["canonicalize", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


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
    assert set(doc) == {"nu1", "nu2", "nu3", "nu_max", "positive", "suggested_a", "g0", "condition_d"}
    assert doc["positive"] is True
    assert doc["nu_max"] == pytest.approx(min(doc["nu1"], doc["nu2"], doc["nu3"]))
    assert doc["g0"] == 1.0
    assert doc["condition_d"] is True  # equal eigenvalues satisfy the spread condition


def test_identities_pass(tmp_path):
    cfg = write_config(tmp_path, {"seed": 2, "identities": FAST_IDENTITIES})
    out = tmp_path / "out"
    assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "identities.json").read_text())
    assert doc["all_pass"]
    assert doc["lemma_quadratic_form"]["instances"] == 50


def test_identities_tight_tolerance_fails(tmp_path):
    ident = dict(FAST_IDENTITIES, beta_tol=1e-14, lemma_tol=1e-14)
    cfg = write_config(tmp_path, {"seed": 2, "identities": ident})
    out = tmp_path / "out"
    assert main(["identities", "--config", cfg, "--out", str(out)]) == 3
    doc = json.loads((out / "identities.json").read_text())
    assert not doc["all_pass"]
    assert not doc["beta_integral"]["pass"]


def test_identities_zero_instances(tmp_path):
    ident = {"lemma_instances": 0, "beta_instances": 0, "chisq_draws": 0, "log_grid_points": 0}
    cfg = write_config(tmp_path, {"identities": ident})
    assert main(["identities", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


RISK_DOC = {
    "seed": 33,
    "design": AS1_DESIGN,
    "alphas": [1.0, 0.0],
    "grid": {"theta_norms": [0.0, 2.0], "sigma2": [1.0]},
    "reps": 200,
    "reps_outer": 50,
    "n_mc_inner": 100,
    "is_samples": 2000,
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


def test_risk_compare_deterministic_across_processes(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import shrinkpred

    doc = dict(RISK_DOC, alphas=[1.0])
    cfg = write_config(tmp_path, doc)
    # the children import the same source tree as this process
    src = str(Path(shrinkpred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = []
    for tag in ("p1", "p2"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "shrinkpred", "risk-compare",
             "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "risk_compare.csv").read_bytes())
    assert outs[0] == outs[1]


def test_risk_compare_seed_override(tmp_path):
    cfg = write_config(tmp_path, RISK_DOC)
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    assert main(["risk-compare", "--config", cfg, "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["risk-compare", "--config", cfg, "--out", str(out_b), "--seed", "100"]) == 0
    assert (out_a / "risk_compare.csv").read_bytes() != (out_b / "risk_compare.csv").read_bytes()


def test_risk_compare_empty_grid(tmp_path):
    doc = dict(RISK_DOC, grid={"theta_norms": [], "sigma2": [1.0]})
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "empty"
    assert main(["risk-compare", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "risk_compare.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only


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


def test_certificate_failure_exits_4(tmp_path, monkeypatch, capsys):
    import shrinkpred.predictive as predictive_module

    # with no room to refine, the shrinkage constant's quadrature certificate fails
    monkeypatch.setattr(predictive_module, "QUAD_MAX_INTERVALS", predictive_module.QUAD_START_INTERVALS)
    cfg = write_config(tmp_path, dict(RISK_DOC, alphas=[0.0]))
    capsys.readouterr()
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err.startswith("normalization certificate failed:")
    assert not (tmp_path / "o" / "risk_compare.csv").exists()


def test_cli_import_skips_scipy_integrate():
    # only the identity suite's beta check needs scipy.integrate (and the scipy.optimize it loads)
    import os
    import subprocess
    import sys
    from pathlib import Path

    import shrinkpred

    src = str(Path(shrinkpred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, shrinkpred.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'])))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        "prior": {"nu": 0.1, "rescale_c": False},
        "alphas": [1.0],
        "grid": {"theta_norms": [0.0], "sigma2": [1.0]},
        "reps": 150,
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["risk-compare", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "risk_compare.csv").read_text().strip().split("\n")
    assert all(row.endswith(",false") for row in lines[1:])


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
                 {"identities": {"lemma_instance": 5}}, {"design": dict(AS1_DESIGN, Nn=5)},
                 {"density": {"problem": "problem.json", "typ": "plugin"}},
                 {"alphas": 5}, {"grid": {"sigma2": 2.0}}, {"identities": {"lemma_instances": [1]}}):
        cfg = write_config(tmp_path, dict({"seed": 1, "design": AS1_DESIGN}, **typo), "typo.json")
        capsys.readouterr()
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 1, typo
        assert capsys.readouterr().err.startswith("configuration error:"), typo
    # a value of the wrong type, or a fraction where an integer belongs, is named in the message
    monkeypatch.chdir(tmp_path)
    for wrong, key in (({"alphas": 5}, "alphas"), ({"out": 5}, "out"), ({"seed": True}, "seed"),
                       ({"reps": 2.5}, "reps"), ({"design": {"type": "as1", "m": 3.7, "k": 3, "N": 4.9}}, "m"),
                       ({"prior": {"rescale_c": "false"}}, "rescale_c"),
                       ({"identities": {"lemma_instances": 2.5}}, "lemma_instances")):
        cfg = write_config(tmp_path, dict({"seed": 1, "design": AS1_DESIGN}, **wrong), "wrong.json")
        capsys.readouterr()
        assert main(["bounds", "--config", cfg]) == 1, wrong
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and f"{key} must be" in err, (wrong, err)
    assert not (tmp_path / "bounds.json").exists()
