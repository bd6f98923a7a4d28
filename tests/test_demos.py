"""Every demo runs to completion against the current API.

Demos 05 and 06 train toy models and take several seconds each; the
others take about a second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spanparser

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "01_treebank_roundtrip.py", "02_autodiff_basics.py",
    "03_encoder_attention.py", "04_chart_decoding.py",
    "05_train_toy_parser.py", "06_analysis_sweeps.py"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(
        Path(spanparser.__file__).parents[1]))
    done = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
