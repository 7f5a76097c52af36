"""Every scenario the command line is held to, run end to end: one list of subcommands, four child processes.

Each child runs the whole list through cli.main with warnings as errors: a; b, the list in reverse order, so that
no output depends on what ran before it in the process (the memoized Gauss rules among them); blas2, at two
OpenBLAS threads; noscipy, with scipy blocked.  Every output is the same bytes on all four sides.
"""

import collections
import csv
import json
import operator
import subprocess
import sys

import numpy as np
import pytest

import shrinkpred.risk as risk_module
from shrinkpred import cli
from shrinkpred.canonical import THETA_OVER_SIGMA_MAX

from conftest import CONFIGS, MULTI_GROUP, child_env, designs, shipped

OUTPUTS = {"canonicalize": ["canonicalize_report.json", "problem.json"], "bounds": ["bounds.json"],
           "identities": ["identities.json"], "risk-compare": ["risk_compare.csv"],
           "density-eval": ["density_eval.csv"]}
SIDES = ("a", "b", "blas2", "noscipy")
CHILD = """
import json, sys
runs, out, side = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
if side == "noscipy":
    sys.modules["scipy"] = None
from shrinkpred.cli import main
for name, argv in reversed(runs) if side == "b" else runs:
    if main(argv + ["--out", f"{out}/{name}"]):
        sys.exit(f"{name} failed")
"""


def scenarios(tmp):
    """{run name: argv without --out}, each config written under tmp."""
    runs = {}

    def add(name, command, doc, *flags):
        (tmp / f"{name}.json").write_text(json.dumps(doc))
        runs[name] = [command, "--config", str(tmp / f"{name}.json"), *flags]

    def density(name, doc, flags, kinds, observation, points):
        """doc canonicalized in this process, and its density-eval runs at alpha = 0 (the plug-in takes no alpha)."""
        add(name, "canonicalize", doc, *flags)
        assert cli.main(runs.pop(name) + ["--out", str(tmp / name)]) == 0
        np.savetxt(tmp / f"{name}.csv", points, delimiter=",", fmt="%.17g")
        for kind in kinds:
            section = {"problem": str(tmp / name / "problem.json"), "type": kind, "observation": observation,
                       "points": str(tmp / f"{name}.csv"), **({} if kind == "plugin" else {"alpha": 0.0})}
            add(f"{name}-{kind}", "density-eval", {"prior": {"c": "identity", "gamma_prior": 1.0}, "density": section})

    for config in ("as1_desk", "case2_small_l"):
        for command in ("canonicalize", "bounds", "identities", "risk-compare"):
            runs[f"{command}-{config}"] = [command, "--config", str(CONFIGS / f"{config}.json"), "--seed", "1"]
    # four spectral groups, the m - l complement among them; alpha near 1 puts the shrinkage constant's Gauss-Jacobi
    # parameter A - 1 and the Gauss-Laguerre parameters near 900, and alpha near -1 climbs the loss ladder to its top
    for name, alphas in (("multi_group", [0.0, -1.0]), ("multi_high", [0.9, 0.99]), ("multi_low-0.95", [-0.95]),
                         ("multi_low-0.99", [-0.99])):
        add(name, "risk-compare", dict(MULTI_GROUP, alphas=alphas))
    add("multi_scale", "risk-compare", dict(MULTI_GROUP, alphas=[0.99, -1.0], grid=dict(
        MULTI_GROUP["grid"], sigma2=[1.0, 4.0], theta_norms=[0.0, 1.0, 2.0, 4.0])))
    # n - k = 1: s reaches 1e-9, far below E q, and the shrinkage constant's power map resolves w'^(-m/2)
    design = dict(MULTI_GROUP["design"], X=MULTI_GROUP["design"]["X"][:4], Xtilde=MULTI_GROUP["design"]["Xtilde"][:3])
    add("one_dof", "risk-compare", dict(MULTI_GROUP, design=design, prior=dict(MULTI_GROUP["prior"], nu=0.5), seed=1,
                                        alphas=[-1.0], reps_outer=4096))
    # its domination bounds' caveat used to escape main, a traceback under -W error
    add("one_dof-bounds", "bounds", dict(MULTI_GROUP, design=design))
    # as1_desk's equal d puts its three eigen-axes in one spectral group
    add("as1_kl", "risk-compare", shipped("as1_desk", alphas=[-1.0]))
    add("as1_alpha0.999", "risk-compare", shipped("as1_desk", alphas=[0.999]))
    # the shrinkage constant's (1 - w)^(B - 1) tail rides in its Gauss-Jacobi weight, so a small B costs nothing
    for config in ("as1_desk", "case2_small_l"):
        nu_max = designs()[config][1].nu
        for scale in ("1e-4", "1e-8"):
            doc = shipped(config, alphas=[0.0, -1.0, 0.9])
            doc["prior"] = dict(doc["prior"], nu=float(scale) * nu_max)
            add(f"small-{config}-{scale}", "risk-compare", doc, "--seed", "1")
    # case2_small_l with Xtilde x 3 has d = 0.45, so nu1 <= 0 at C = I and every prior runs at C = g0 I, g0 = 4.2525
    g0 = shipped("case2_small_l_g0", alphas=[1.0, 0.0, -1.0], reps=2000, reps_outer=300)
    add("g0-bounds", "bounds", g0)
    add("g0-risk", "risk-compare", g0)
    density("g0", g0, [], ["shrinkage_bayes"], {"v": [0.4], "v_star": [0.7, -1.1], "s": 6.0},
            2.5 * np.random.default_rng(2).standard_normal((5000, 1)))
    # up to the theta/sigma cap V = theta + sigma sqrt(d) z keeps the noise's digits; a direction is divided by its
    # largest |entry| before its norm, so directions whose squared norm overflows or underflows give their unit vectors
    for name, grid in (("cap", {"theta_norms": [0.0, THETA_OVER_SIGMA_MAX]}),
                       ("extreme", {"theta_directions": [[1e300, 1e300, 1e300], [1e-320, 0.0, 0.0]]}),
                       ("plain", {"theta_directions": [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]})):
        doc = shipped("as1_desk", alphas=[1.0], reps=4096)
        add(name, "risk-compare", dict(doc, grid=dict(doc["grid"], **grid)), "--seed", "1")
    density("as1", shipped("as1_desk"), ["--seed", "1"], ["best_invariant", "shrinkage_bayes", "plugin"],
            {"v": [1.0, -0.5, 0.3], "v_star": [], "s": 7.5}, 2.5 * np.random.default_rng(1).standard_normal((5000, 3)))
    return runs


@pytest.fixture(scope="session")
def cli_runs(tmp_path_factory):
    """(root, runs), each side's outputs under root / side / run name."""
    root = tmp_path_factory.mktemp("cli_runs")
    (root / "configs").mkdir()
    runs = scenarios(root / "configs")
    children = {}
    for side in SIDES:
        env = child_env(OPENBLAS_NUM_THREADS="2" if side == "blas2" else None)
        with open(root / f"{side}.log", "w") as log:
            children[side] = subprocess.Popen(
                [sys.executable, "-W", "error", "-c", CHILD, json.dumps(list(runs.items())), str(root / side), side],
                stdout=log, stderr=subprocess.STDOUT, env=env)
    for side, child in children.items():
        assert child.wait(timeout=600) == 0, (root / f"{side}.log").read_text()
    return root, runs


def risk_rows(root, name):
    return list(csv.DictReader((root / "a" / name / "risk_compare.csv").read_text().splitlines()))


@pytest.mark.parametrize("side", SIDES[1:])
def test_every_output_is_byte_identical_on_every_side(cli_runs, side):
    root, runs = cli_runs
    compared, differ = 0, []
    for name, argv in runs.items():
        for tag in ("a", side):
            assert sorted(path.name for path in (root / tag / name).iterdir()) == OUTPUTS[argv[0]], (tag, name)
        for file in OUTPUTS[argv[0]]:
            compared += 1
            if (root / side / name / file).read_bytes() != (root / "a" / name / file).read_bytes():
                differ.append(f"{name}/{file}")
    assert differ == []
    assert (len(runs), compared) == (30, 32)


def test_sigma2_4_rows_at_twice_theta_are_the_sigma2_1_rows(cli_runs):
    # risk_mc scores every point in units of sigma, and theta/sigma is exact at sigma = 2, so no risk moves by a bit
    rows = {(r["procedure"], r["alpha"], float(r["theta_norm"]), r["sigma2"]): (r["risk_mean"], r["risk_se"])
            for r in risk_rows(cli_runs[0], "multi_scale")}
    pairs = [(key, rows[key[:2] + (key[2] / 2, "1")]) for key in rows if key[3] == "4" and key[2] != 1.0]
    assert len(pairs) == 12
    assert [key for key, base in pairs if rows[key] != base] == []


@pytest.mark.parametrize("config", ["as1_desk", "case2_small_l"])
def test_at_1e_8_nu_max_every_shrinkage_risk_is_within_1e_7_of_the_best_invariant_risk(cli_runs, config):
    # the best invariant kernel is the B = 0 member of the shrinkage kernel's form; both are scored on the same draws
    rows, point = risk_rows(cli_runs[0], f"small-{config}-1e-8"), operator.itemgetter(
        "alpha", "theta_norm", "theta_direction", "sigma2")
    best = {point(row): float(row["risk_mean"]) for row in rows if row["procedure"] == "best_invariant"}
    gaps = [abs(float(row["risk_mean"]) - best[point(row)]) for row in rows if row["procedure"] == "shrinkage_bayes"]
    assert len(best) > 0 and len(gaps) == len(best)
    assert max(gaps) <= 1e-7


def test_the_g0_design_rescales_c_above_1(cli_runs):
    # the shipped configs and the other designs here all have g0 = 1
    assert json.loads((cli_runs[0] / "a" / "g0-bounds" / "bounds.json").read_text())["g0"] > 1


def test_umvu_risk_at_the_theta_over_sigma_cap_stays_within_1e_9_of_its_theta_0_risk(cli_runs):
    # umvu's loss does not depend on theta
    risks = [float(row["risk_mean"]) for row in risk_rows(cli_runs[0], "cap") if row["procedure"] == "umvu"]
    assert len(risks) == 3
    assert max(abs(r - risks[0]) / risks[0] for r in risks) <= 1e-9


def test_extreme_grid_directions_give_the_rows_of_their_unit_vectors(cli_runs):
    extreme, plain = ((cli_runs[0] / "a" / name / "risk_compare.csv").read_bytes() for name in ("extreme", "plain"))
    assert extreme == plain
    assert plain.count(b"\n") == 1 + 3 * 7  # three alpha = 1 rules at theta = 0 and at 3 norms x 2 directions


@pytest.mark.parametrize("alpha, top", [(-0.9, 609), (-0.95, 609), (-0.99, 609), (0.0, 271)])
def test_each_multi_group_risk_certifies_one_row_at_the_deepest_rung(tmp_path, monkeypatch, alpha, top):
    # on the multi-group design (seed 3, 200 rows, theta in {0, 2}) a row with a small s converges only algebraically
    # near alpha = -1: in each of the four risks (2 rules x 2 points) one row is certified only by its 406- and
    # 609-node losses; at alpha = 0 the deepest pair any row takes is 181 vs 271 nodes, one row per risk
    passed, certified = [], risk_module.certified

    def counted(integral, rows, *args, **kwargs):
        nodes = collections.Counter()
        passed.append(nodes)

        def integral_counted(n, index):  # rows passed at n nodes
            nodes[n] += index.size
            return integral(n, index)
        return certified(integral_counted, rows, *args, **kwargs)

    monkeypatch.setattr(risk_module, "certified", counted)
    (tmp_path / "multi_group.json").write_text(json.dumps(dict(MULTI_GROUP, alphas=[alpha])))
    assert cli.main(["risk-compare", "--config", str(tmp_path / "multi_group.json"), "--out", str(tmp_path)]) == 0
    assert [max(nodes) for nodes in passed] == [top] * 4
    assert [nodes[top] for nodes in passed] == [1] * 4
