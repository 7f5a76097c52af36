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
    assert header == ["procedure", "alpha", "theta_norm", "sigma2", "reps",
                      "risk_mean", "risk_se", "minimax_risk", "dominates_flag"]
    # alpha = 1: three plug-in procedures; alpha = 0: two density rules; 2 points each
    assert len(lines) - 1 == 2 * 3 + 2 * 2
    procs = {row.split(",")[0] for row in lines[1:]}
    assert procs == {"umvu", "shrink_plugin", "stein_variance", "best_invariant", "shrinkage_bayes"}
    for row in lines[1:]:
        cells = row.split(",")
        assert int(cells[4]) >= 50 and float(cells[6]) >= 0.0
        if cells[0] == "umvu":
            mean, se, mr = float(cells[5]), float(cells[6]), float(cells[7])
            assert abs(mean - mr) < 3 * se


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


def test_exclusion_guard_breach_exits_4(tmp_path, monkeypatch):
    import shrinkpred.cli as cli_mod
    from shrinkpred.predictive import UnreliableNormalizationError

    def always_fails(*args, **kwargs):
        raise UnreliableNormalizationError("synthetic failure")

    monkeypatch.setattr(cli_mod, "shrinkage_bayes_density", always_fails)
    doc = dict(RISK_DOC, alphas=[0.0])
    cfg = write_config(tmp_path, doc)
    assert main(["risk-compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 4


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


def test_usage_errors(tmp_path, capsys):
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
