"""Shrinkage predictive densities for Gaussian linear regression.

Reduces the regression prediction problem to canonical coordinates, builds
generalized Bayes predictive densities under alpha-divergence loss (best
invariant, hierarchical shrinkage, and the plug-in normal at alpha = 1),
and estimates their risks by seeded Monte Carlo over exact losses.  Each
public name is imported from its module, whose ``__all__`` lists it.

Importing the package first caps OpenBLAS at one thread unless
OPENBLAS_NUM_THREADS is already set: no BLAS call here is large enough to
gain from threads, and an idle pool spins on the other cores.  Python runs
this file before any submodule, so the cap is set before numpy loads; once
numpy is loaded its pool exists, so the variable is then left alone.
"""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
