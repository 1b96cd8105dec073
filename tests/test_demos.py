"""Smoke test: the quick narrative demos run to completion against ``src``.

Demos 04 and 05 take tens of seconds each and are left to manual runs.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = (
    "01_statevector_basics.py",
    "02_circuit_architectures.py",
    "03_gradients.py",
    "06_mnist_pipeline.py",
)


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("TNQC_MNIST_DIR", None)  # the digit demo falls back to synthetic images
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
