"""Every demo runs; the integer-only ones print exactly their pinned output.

tests/demo_output/<demo>.txt holds each demo's stdout. The two training
demos are not pinned, since their float digits depend on the BLAS build;
they are run, so that a demo calling a name the package no longer has
fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["function_vectors", "ideal_fe_walkthrough"])
def test_demo_prints_its_pinned_output(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "demo_output" / f"{demo}.txt").read_text()


@pytest.mark.parametrize("demo", ["train_linear", "train_logistic"])
def test_training_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
