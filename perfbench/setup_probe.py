"""Fresh-process set-up probe for the benchmark.

Imports shrinkpred, then loads a config, reduces its design and builds its
prior: the set-up every risk-compare run pays before any Monte Carlo.  Run
with PYTHONPATH pointing at the source tree under test:

    PYTHONPATH=src python perfbench/setup_probe.py configs/as1_desk.json 7

Prints one JSON line with the import time and the set-up time.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    from shrinkpred import cli

    t1 = time.perf_counter()
    cfg = cli.load_config(sys.argv[1])
    cfg.seed = int(sys.argv[2])
    problem, _, _ = cli.build_problem(cfg)
    cli.build_prior(cfg, problem)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_ms": (t2 - t1) * 1e3}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
