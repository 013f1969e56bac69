"""The demos and the README's examples are runnable documentation of the
public API: each one must run to completion against the package as it
stands."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           flags=re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("demo", ["01_equilibrium_and_mass.py", "02_entropy_decay.py",
                                  "03_quadrature_and_stress.py", "04_shear_driven_polymer.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FENEFLOW_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", range(len(README_BLOCKS)))
def test_readme_example_runs(block):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FENEFLOW_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", README_BLOCKS[block]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
