"""Every demo script and every Python block of the README runs to
completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(), re.M | re.S)


def test_demos_found():
    # An empty glob would leave the parametrized test below with no cases.
    assert DEMOS


def test_readme_blocks_found():
    assert README_BLOCKS


def run_python(args):
    """Run ``python args`` from the repo root, with ``src`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_0(demo):
    run = run_python([str(demo)])
    assert run.returncode == 0, run.stderr
    if demo.name == "demo_series_bounds.py":
        assert "below L: True" in run.stdout


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_exits_0(block):
    run = run_python(["-c", block])
    assert run.returncode == 0, run.stderr
