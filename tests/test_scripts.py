"""The README's quick start and the example script run, and the README lists every config key."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import shrinkpred
from shrinkpred.cli import _DENSITY_KEYS, _DESIGN_KEYS, ExperimentConfig, GridConfig, PriorConfig

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


@pytest.mark.parametrize("script,args", [
    ("README.md", []),  # the python block of the README's library quick start
    ("alpha_convergence_demo.py", ["--seed", "7"]),
])
def test_script_runs(script, args):
    if script == "README.md":
        argv = ["-c", re.search(r"## Library quick start\n\n```python\n(.*?)```", README, re.S).group(1)]
    else:
        argv = [str(ROOT / "scripts" / script), *args]
    # the child imports the same source tree as this process
    src = str(Path(shrinkpred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_config_tables_list_the_accepted_keys():
    # each table's header names its section, "| <section> key | ..."; its first column lists the keys
    tables = {}
    for section, body in re.findall(r"^ *\| (\S+) key \|.*\n *\|[-|]+\|\n((?: *\|.*\n)+)", README, re.M):
        tables[section] = {re.match(r" *\| `([^`]+)` \|", row).group(1) for row in body.splitlines()}
    assert tables == {
        "top-level": {f.name for f in fields(ExperimentConfig)},
        "design": _DESIGN_KEYS,
        "prior": {f.name for f in fields(PriorConfig)},
        "grid": {f.name for f in fields(GridConfig)},
        "density": _DENSITY_KEYS,
    }
