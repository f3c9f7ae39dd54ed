"""The fast demos run end to end against the library's public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "spectrum_and_modes.py",
    "sigma_zero_limit.py",
    "entanglement_profile.py",
    "manybody_validation.py",
])
def test_demo_runs(demo, tmp_path):
    # a temporary working directory takes any table the demo writes
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
