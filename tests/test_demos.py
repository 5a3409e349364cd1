"""Every demo script, and README's library example, runs to completion
against the source tree."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert _DEMOS


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=_ROOT, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_readme_library_example_runs():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
