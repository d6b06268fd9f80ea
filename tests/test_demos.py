"""The Penrose and linear Landau-damping demos run and print their headline numbers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expected", [
    ("01_penrose_stability.py", "T_crit = 14.83"),
    ("03_linear_landau_damping.py", "rate 0.153359, frequency 1.415662"),
])
def test_demo_prints_its_result(tmp_path, script, expected):
    # run in tmp_path: demo 03 writes its mode CSV to the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
