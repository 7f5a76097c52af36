import functools
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import shrinkpred
from shrinkpred import cli
from shrinkpred.canonical import (
    BLOCK_SIZE,
    CanonicalObservation,
    CanonicalParams,
    CanonicalProblem,
    as1_problem,
    canonicalize,
    simulate_observation,
)
from shrinkpred.predictive import PriorSpec, best_invariant_kernel, shrinkage_bayes_kernel

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# distinct d and m = 5 > l = 3: three spectral groups along Q and the m - l complement, at alpha = 0 and -1
MULTI_GROUP = {
    "seed": 3,
    "design": {"type": "explicit",
               "X": [[1.2, -0.4, 0.3], [0.5, 1.1, -0.7], [-0.9, 0.2, 1.4], [0.3, -1.3, 0.6],
                     [1.7, 0.8, -0.2], [-0.6, 0.9, 0.5], [0.4, -0.1, -1.1], [-1.2, 0.7, 0.9]],
               "Xtilde": [[0.8, 0.1, -0.5], [-0.3, 1.2, 0.4], [0.6, -0.7, 1.0], [1.1, 0.5, 0.2],
                          [-0.4, 0.3, -0.9]]},
    "prior": {"c": "identity", "gamma_prior": 1.0},
    "alphas": [0.0, -1.0],
    "grid": {"theta_directions": [[1.0, 0.0, 0.0]], "theta_norms": [0.0, 2.0], "sigma2": [1.0]},
    "reps_outer": 200,
}


AS1_DESIGN = {"type": "as1", "m": 3, "k": 3, "N": 4}

RISK_DOC = {
    "seed": 33,
    "design": AS1_DESIGN,
    "alphas": [1.0, 0.0],
    "grid": {"theta_norms": [0.0, 2.0], "sigma2": [1.0]},
    "reps": 200,
    "reps_outer": 50,
    "n_mc_inner": 100,
}


# the density rules below alpha = 1, each as a function of (prior, observations, alpha)
DENSITIES = {"best_invariant": lambda prior, obs, alpha: best_invariant_kernel(prior.problem, obs, alpha),
             "shrinkage_bayes": shrinkage_bayes_kernel}


def shipped(name, **updates):
    """A shipped config's document, its top-level keys updated; case2_small_l_g0 is case2_small_l with Xtilde x 3."""
    doc = json.loads((CONFIGS / f"{name.removesuffix('_g0')}.json").read_text())
    if name.endswith("_g0"):
        doc["design"]["Xtilde"] = [[3.0 * x for x in row] for row in doc["design"]["Xtilde"]]
    return dict(doc, **updates)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def shrinkage_density_config(tmp_path, alpha, nu):
    """A density-eval config for the shrinkage density on the canonicalized as1_desk at alpha, with prior weight nu."""
    canon = tmp_path / "canon"
    assert cli.main(["canonicalize", "--config", str(CONFIGS / "as1_desk.json"), "--out", str(canon)]) == 0
    np.savetxt(tmp_path / "points.csv", np.random.default_rng(1).standard_normal((5, 3)), delimiter=",", fmt="%.17g")
    return write_config(tmp_path, {
        "prior": {"c": "identity", "gamma_prior": 1.0, "nu": nu},
        "density": {"problem": str(canon / "problem.json"), "type": "shrinkage_bayes", "alpha": alpha,
                    "observation": {"v": [1.0, -0.5, 0.3], "v_star": [], "s": 7.5},
                    "points": str(tmp_path / "points.csv")}})


@functools.lru_cache(maxsize=1)
def designs():
    """(problem, prior) pairs: both shipped configs, the multi-group design, the g0 design (case2_small_l, Xtilde x 3),
    a wide m > k design and as1_desk under a prior with c != 1."""
    docs = {"as1_desk": shipped("as1_desk"), "case2_small_l": shipped("case2_small_l"), "multi_group": MULTI_GROUP,
            "g0": shipped("case2_small_l_g0")}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            cfg = cli.load_config(write_config(Path(tmp), doc, f"{name}.json"))
            problem, _, _ = cli.build_problem(cfg)
            out[name] = (problem, cli.build_prior(cfg, problem))
    rng = np.random.default_rng(77)
    wide = canonicalize(rng.standard_normal((10, 3)), rng.standard_normal((5, 3)))
    out["wide_m5_k3"] = (wide, PriorSpec.minimax_default(wide))
    as1 = out["as1_desk"][0]
    out["as1_c_ne_1"] = (as1, PriorSpec(as1, c=[1.5, 2.0, 3.0], nu=0.5))
    return out


def block_and_theta(problem, rows=48, seed=11):
    """A block of observations drawn at theta = 2 e_1 (unit scale), and that theta."""
    theta = np.zeros(problem.l)
    theta[0] = 2.0
    params = CanonicalParams(theta=theta, mu=np.zeros(problem.k - problem.l), eta=1.0)
    return simulate_observation(problem, [params], seed, 0)[0][:rows], theta


def child_env(**variables):
    """This process's environment for a child: the imported shrinkpred's source tree first on PYTHONPATH, and
    variables set, or removed where None."""
    src = str(Path(shrinkpred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **variables)
    return {name: value for name, value in env.items() if value is not None}


def synthetic_problem(n, k, m, d, Q=None):
    """Canonical problem assembled directly from its reduced pieces; Q defaults to the first l unit vectors."""
    return CanonicalProblem(n=n, k=k, m=m, d=np.asarray(d, dtype=float),
                            Q=np.eye(m, min(k, m)) if Q is None else Q, coef_transform=np.eye(k))


def simulate_rows(problem, params, seed, reps):
    """Replications 0..reps-1 of the keyed observation stream as one block (the last block truncated)."""
    blocks = [simulate_observation(problem, [params], seed, b)[0] for b in range(-(-reps // BLOCK_SIZE))]
    return CanonicalObservation(
        v=np.concatenate([b.v for b in blocks])[:reps],
        v_star=np.concatenate([b.v_star for b in blocks])[:reps],
        s=np.concatenate([b.s for b in blocks])[:reps],
    )


@pytest.fixture(scope="module")
def prob_m3():
    return synthetic_problem(n=12, k=3, m=3, d=[1.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def obs_m3():
    return CanonicalObservation(v=np.array([1.0, 2.0, 2.0]), v_star=np.zeros(0), s=9.0)


AS1_XTILDE = np.random.default_rng(424242).standard_normal((3, 3))  # full rank


@pytest.fixture(scope="session")
def as1_xtilde():
    assert np.linalg.matrix_rank(AS1_XTILDE) == 3
    return AS1_XTILDE


@pytest.fixture(scope="session")
def as1_problem_n12(as1_xtilde):
    """Replicated design with m = k = 3, N = 4, so n = 12 and D = I/4."""
    return as1_problem(as1_xtilde, 4)


def make_case2_design(d_target: float = 0.05, seed: int = 31415):
    """Fixed k=3, m=1, n=12 design scaled so the canonical eigenvalue is d_target."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((12, 3))
    xt0 = rng.standard_normal((1, 3))
    b = float((xt0 @ np.linalg.inv(X.T @ X) @ xt0.T).item())
    xt = xt0 * np.sqrt(d_target / b)
    return X, xt


@pytest.fixture(scope="session")
def case2_design():
    return make_case2_design()


@pytest.fixture(scope="session")
def case2_problem_n12(case2_design):
    """Case II problem: k = 3, m = 1 (l = 1, V* has dimension 2), n = 12."""
    X, xt = case2_design
    return canonicalize(X, xt)


@pytest.fixture
def rng():
    return np.random.default_rng(90210)
