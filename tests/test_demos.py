"""Every narrative script under demos/ runs to completion and prints its walk-through, byte for
byte as checked in under tests/demo_stdout/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "demo_stdout"
DEMOS = [
    "distinguishability_witnesses",
    "generalized_bounds",
    "guessing_game",
    "muub_saturation",
    "overlap_surfaces",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
