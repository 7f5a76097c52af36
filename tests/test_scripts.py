"""The README's quick start and the example script run, and the README lists every config key and its default."""

import json
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from shrinkpred.cli import DensityConfig, DesignConfig, ExperimentConfig, GridConfig, PriorConfig

from conftest import child_env

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
    # any warning the child raises is an error; pytest's own warning filters do not reach a subprocess
    proc = subprocess.run([sys.executable, "-W", "error", *argv], capture_output=True, text=True, env=child_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


SECTIONS = {"top-level": ExperimentConfig, "design": DesignConfig, "prior": PriorConfig, "grid": GridConfig,
            "density": DensityConfig}
IN_WORDS = object()  # "(default: ...)", a default resolved where the value is used


def readme_default(cell: str):
    """The default an "accepts" cell states: a JSON value, a bare word, IN_WORDS, or None when it states none."""
    found = re.search(r"`([^`]+)` \(the default\)|\(default (?!:)`?([^)`]+)`?\)|(\(default: )", cell)
    if found is None:
        return None
    if found.group(3):
        return IN_WORDS
    text = found.group(1) or found.group(2)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def test_readme_config_tables_list_the_accepted_keys():
    # each table's header names its section, "| <section> key | ..."; its rows are "| `key` | required | accepts |"
    tables = {}
    for section, body in re.findall(r"^ *\| (\S+) key \|.*\n *\|[-|]+\|\n((?: *\|.*\n)+)", README, re.M):
        tables[section] = dict(re.match(r" *\| `([^`]+)` \|[^|]*\|(.*)\|$", row).groups() for row in body.splitlines())
    assert {section: set(rows) for section, rows in tables.items()} == {
        section: {f.name for f in fields(cls)} for section, cls in SECTIONS.items()}
    # every default a table states is its dataclass field's
    stated = 0
    for section, cls in SECTIONS.items():
        for f in fields(cls):
            default = f.default if f.default is not MISSING else f.default_factory()
            want = readme_default(tables[section][f.name])
            if want is IN_WORDS:  # the dataclass leaves it empty
                assert default in (None, []), (section, f.name, default)
            elif want is not None:  # compared as numbers, but true is not 1
                assert (want, type(want) is bool) == (default, type(default) is bool), (section, f.name, want, default)
            stated += want is not None
    assert stated == 12
