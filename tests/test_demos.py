import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def run(demo, cwd):
    """The demo's stdout, run in ``cwd``; the run must succeed."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    run(demo, tmp_path)
    assert os.listdir(tmp_path) == []  # demos leave no files behind


# demo 01's stdout, every number of the one-plot features; a change to how a
# one-plot feature selects or reduces its cells must keep each of them
DEMO_01_STDOUT = """\
vegetation indices (plot means):
  NDVI   = +0.7496  over 144 cells
  SAVI   = +0.6082  over 144 cells
  kNDVI  = +0.5089  over 144 cells
  NIRv   = +0.3964  over 144 cells
  PSRI   = -0.0973  over 144 cells
FVC = 0.764
CH (95th percentile) = 0.876 m
CV = 0.8750 m^3  (lowest-plane 1.3890, mean-plane 0.3610)
PL: ratio 0.278 -> slight
WL: ratio 0.434 -> moderate
WH density = 50.0 heads/m^2 over 1.00 m^2
"""


def test_plot_features_demo_prints_its_pinned_numbers(tmp_path):
    assert run(os.path.join(ROOT, "demos", "01_plot_features.py"), tmp_path) == DEMO_01_STDOUT
