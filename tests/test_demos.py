"""Each demo runs and prints its headline number."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expected", [
    ("01_penrose_stability.py", "T_crit = 14.83"),
    ("01_penrose_stability.py",
     "box T =   6.0: stable = True, no lattice vector lies at or below B = 1.000"),
    ("02_bgk_wave_construction.py", "certified distance bound = 0.0454"),
    ("03_linear_landau_damping.py", "rate 0.153359, frequency 1.415662"),
    ("04_nonlinear_decay.py", "final / max field:            6.736e-05"),
    ("05_norms_and_scaling.py", "Hardy quotient of v e^(-v^2) at 0: 1.772454"),
])
def test_demo_prints_its_result(tmp_path, script, expected):
    # run in tmp_path: demos 02, 03 and 04 write their CSVs to the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
