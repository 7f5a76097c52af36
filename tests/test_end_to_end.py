"""Whole-pipeline checks in the original regression coordinates.

The reduction is only bookkeeping: quantities assembled through
canonicalize/to_canonical must match formulas written directly in terms of
(X, y, Xtilde), with no canonical objects involved.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from shrinkpred.canonical import (
    canonicalize,
    sufficient_statistics,
    to_canonical,
)
from shrinkpred.predictive import (
    PriorSpec,
    best_invariant_kernel,
    plugin_bayes_estimators,
)


def direct_best_invariant_logpdf(X, Xtilde, y, alpha, pts):
    """Best invariant log density straight from the design matrices.

    Multivariate t with dof 2(n-k)/(1-alpha), location Xtilde beta_hat and
    scale (s/dof) (2/(1-alpha) I + Xtilde (X'X)^{-1} Xtilde').
    """
    n, k = X.shape
    m = Xtilde.shape[0]
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    s = float(resid @ resid)
    dof = 2.0 * (n - k) / (1.0 - alpha)
    loc = Xtilde @ beta
    scale = s / dof * (2.0 / (1.0 - alpha) * np.eye(m) + Xtilde @ np.linalg.inv(X.T @ X) @ Xtilde.T)
    sign, logdet = np.linalg.slogdet(scale)
    assert sign > 0
    out = np.empty(pts.shape[0])
    for i, p in enumerate(pts):
        r = p - loc
        quad = float(r @ np.linalg.solve(scale, r))
        out[i] = (
            gammaln((dof + m) / 2.0)
            - gammaln(dof / 2.0)
            - m / 2.0 * math.log(dof * math.pi)
            - 0.5 * logdet
            - (dof + m) / 2.0 * math.log1p(quad / dof)
        )
    return out


@pytest.mark.parametrize("m", [5, 1])
def test_best_invariant_matches_regression_space_formula(m, rng):
    n, k = 12, 3
    X = rng.standard_normal((n, k))
    Xtilde = rng.standard_normal((m, k))
    y = rng.standard_normal(n)
    problem = canonicalize(X, Xtilde)
    obs = to_canonical(problem, *sufficient_statistics(X, y))
    pts = rng.standard_normal((8, m))
    for alpha in (-1.0, 0.0, 0.6):
        dens = best_invariant_kernel(problem, obs, alpha)
        want = direct_best_invariant_logpdf(X, Xtilde, y, alpha, pts)
        assert np.abs(dens.log_density(pts) - want).max() < 1e-9


def test_plugin_statistic_in_regression_space(rng):
    # With C = I in the wide-future case, W = beta_hat' X'X beta_hat / S and
    # the plug-in mean is (1 - nu/(nu+1+W)) Xtilde beta_hat.
    n, k, m = 12, 3, 4
    X = rng.standard_normal((n, k))
    Xtilde = rng.standard_normal((m, k))
    y = rng.standard_normal(n)
    problem = canonicalize(X, Xtilde)
    beta, s = sufficient_statistics(X, y)
    obs = to_canonical(problem, beta, s)
    prior = PriorSpec(problem, c=1.0, nu=0.3)
    est = plugin_bayes_estimators(prior, obs)
    w_direct = float(beta @ (X.T @ X) @ beta) / s
    factor = 1.0 - 0.3 / (0.3 + 1.0 + w_direct)
    assert np.abs(problem.Q @ est.theta_hat - factor * (Xtilde @ beta)).max() < 1e-10
