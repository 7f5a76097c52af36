import os
from pathlib import Path

import numpy as np
import pytest

import shrinkpred
from shrinkpred.canonical import (
    BLOCK_SIZE,
    CanonicalObservation,
    CanonicalProblem,
    as1_problem,
    canonicalize,
    simulate_observation,
)


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


@pytest.fixture(scope="session")
def as1_xtilde():
    rng = np.random.default_rng(424242)
    xt = rng.standard_normal((3, 3))
    assert np.linalg.matrix_rank(xt) == 3
    return xt


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
