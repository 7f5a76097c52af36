"""Smoke runs of the example scripts with tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shrinkpred

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args", [
    ("as1_risk_study.py", ["--reps", "100", "--norms", "0"]),
    ("alpha_convergence_demo.py", ["--samples", "2000"]),
])
def test_script_runs(script, args):
    # the child imports the same source tree as this process
    src = str(Path(shrinkpred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
