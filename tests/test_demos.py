"""Every demo script runs to completion against the package in ``src`` and
prints what it printed when its output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout under one BLAS thread. Every demo prints the
# same bytes on every run, so each is pinned.
STDOUT_SHA256 = {
    "01_measure_tour.py": "664b6163222cb5189dfd3fa74ce48c46e38ebacd47d2c9525513ea11f8af74ac",
    "02_model_gallery.py": "c9e1835bd783101c4b32c49ff8539b1c24421fba05f4bbf7d2e34a381eec6823",
    "03_small_graph_census.py": "811e1d7adf85293636a38bc43c61668aa0378b452518cb8f12980eecf8cf719d",
    "04_mini_experiment.py": "f1b906d4d70667dfae1110530a3d7d4c8237a7b3a32a28138bdccf9a6c901e02",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
