#!/usr/bin/env python3
"""Watch the shrinkage predictive density collapse onto the plug-in normal.

For an increasing sequence of divergence indices the shrinkage density,
normalized by its certified quadrature constant, is evaluated at a handful
of points and compared with the plug-in normal it converges to.
"""

import argparse

import numpy as np

from shrinkpred.canonical import STREAM_DESIGN, CanonicalObservation, as1_problem, replication_rng
from shrinkpred.predictive import PriorSpec, alpha_limit_check, plugin_bayes_estimators

ALPHAS = [0.5, 0.9, 0.99, 0.999]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = replication_rng(args.seed, 0, stream=STREAM_DESIGN)
    problem = as1_problem(rng.standard_normal((3, 3)), 4)
    prior = PriorSpec.minimax_default(problem)
    obs = CanonicalObservation(v=np.array([0.8, -0.4, 1.2]), v_star=np.zeros(0), s=9.5)
    est = plugin_bayes_estimators(problem, prior, obs)
    center = problem.Q @ est.theta_hat
    pts = np.vstack([center, center + 0.5, center - 0.8])

    gaps = alpha_limit_check(problem, prior, obs, pts, ALPHAS)
    print("abs log-density gap to the plug-in normal")
    print(f"{'alpha':>8} " + " ".join(f"{f'point {j}':>12}" for j in range(pts.shape[0])))
    for alpha, row in zip(ALPHAS, gaps):
        print(f"{alpha:8.3f} " + " ".join(f"{g:12.3e}" for g in row))


if __name__ == "__main__":
    main()
