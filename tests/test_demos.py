"""Smoke test: every script under demos/, and every python code block of
README.md, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import olcontrol

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
SRC = str(Path(olcontrol.__file__).resolve().parents[1])


def _run(argv, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_demos_found():
    # an empty glob or match would parametrize the runs below over nothing
    assert DEMOS and README_BLOCKS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # demo 05 writes into tempfile.mkdtemp(), so TMPDIR keeps it in tmp_path
    proc = _run([sys.executable, str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("code", README_BLOCKS, ids=[f"readme_{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    proc = _run([sys.executable, "-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
