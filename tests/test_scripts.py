"""The experiment scripts run end to end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gammahodge

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, expect", [
    ("betti_sweep.py", ["--d", "2", "--beta-max", "1", "--n-max", "4"], "b_4"),
    ("mc_calibration.py", ["--seeds", "2", "--samples", "2000"], "inside 3 sigma"),
])
def test_script_exits_0(script, args, expect):
    src = str(Path(gammahodge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expect in done.stdout
