#!/usr/bin/env python3
"""Risk sweep on the replicated design: unbiased baseline vs shrinkage rules.

Simulates the alpha = 1 risk of the unbiased, shrinkage plug-in and Stein
variance procedures along a ray of signal norms, all three scored on the
same simulated observations, and prints each against the constant minimax
value.  Everything derives from one seed.
"""

import argparse
import math

import numpy as np

from shrinkpred.bounds import nu_limits
from shrinkpred.canonical import STREAM_DESIGN, CanonicalParams, as1_problem, replication_rng
from shrinkpred.predictive import (
    PluginEstimate,
    PriorSpec,
    plugin_bayes_estimators,
    stein_variance,
    umvu_estimators,
)
from shrinkpred.risk import minimax_risk, risk_mc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--N", type=int, default=4)
    ap.add_argument("--reps", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=20240601)
    ap.add_argument("--norms", type=float, nargs="+", default=[0.0, 1.0, 2.0, 5.0, 10.0])
    args = ap.parse_args()

    rng = replication_rng(args.seed, 0, stream=STREAM_DESIGN)
    xtilde = rng.standard_normal((args.m, args.k))
    problem = as1_problem(xtilde, args.N)
    prior = PriorSpec.minimax_default(problem)
    nb = nu_limits(problem.d, prior.c, problem.m, problem.n, problem.k)
    mr = minimax_risk(problem.d, problem.m, problem.n, problem.k)
    n, k = problem.n, problem.k

    print(f"replicated design: m={args.m} k={args.k} N={args.N} (n={n}), D = I/{args.N}")
    print(f"nu bounds: nu1={nb.nu1:.4f} nu2={nb.nu2:.4f} nu3={nb.nu3:.4f} -> nu={prior.nu:.4f}")
    print(f"minimax risk: {mr:.6f}\n")

    rules = {
        "umvu": lambda obs, rep: umvu_estimators(obs, n, k),
        "shrink_plugin": lambda obs, rep: plugin_bayes_estimators(problem, prior, obs),
        "stein_variance": lambda obs, rep: PluginEstimate(obs.v, stein_variance(obs, problem.d, n, k), w=math.inf),
    }
    print(f"{'|theta|':>8} {'procedure':>15} {'risk':>10} {'se':>9} {'risk - MR':>10}")
    for norm in args.norms:
        theta = np.zeros(problem.l)
        theta[0] = norm
        params = CanonicalParams(theta=theta, mu=np.zeros(problem.k - problem.l), eta=1.0)
        risks = risk_mc(rules, problem, params, 1.0, args.reps, seed=args.seed)
        for name, est in risks.items():
            print(f"{norm:8.2f} {name:>15} {est.mean:10.5f} {est.std_error:9.5f} {est.mean - mr:+10.5f}")
        print()


if __name__ == "__main__":
    main()
