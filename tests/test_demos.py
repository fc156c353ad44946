"""Every demo script runs to completion as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    result = _run(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_factorization_demo_prints_the_violation_detail(tmp_path):
    result = _run(ROOT / "demos" / "factorization_roundtrip.py", tmp_path)
    assert "verdict: violation - relation violated: m1=12 m1_prime=8 \n" in result.stdout
