"""Every demo script, and every fenced ``python`` block of README.md, runs to
completion against the package sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    done = _run([str(demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_has_a_python_example():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"readme-{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    done = _run(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr
