"""Smoke test: every script under demos/ runs to completion, with the
warnings that pyproject.toml's filterwarnings makes errors in the tests
raised as errors here too."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::UserWarning"]


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, *WARNINGS_AS_ERRORS, str(script)]
    result = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
