"""The process heap policy set when ``feneflow`` is imported: on glibc both
malloc thresholds are fixed, so the steps of a run reuse the heap that the
first step grew instead of faulting it in again; elsewhere nothing is
called."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import feneflow

ROOT = Path(__file__).resolve().parents[1]


def run_fresh(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FENEFLOW_THREADS="1")
    return subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


FAULTS = """
import json, resource
from feneflow import RunConfig, run_scenario

marks = []

def progress(j, n_steps):
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

run_scenario(RunConfig(scenario="equilibrium", N_x=12, N_r=24, N_theta=24, dt=0.01, T=0.06),
             progress=progress)
print(json.dumps(marks))
"""


@pytest.mark.skipif(feneflow._process_mallopt() is None, reason="the C library has no mallopt")
def test_steps_after_the_first_fault_no_pages_in():
    # minor faults over steps 2 to 6, between the progress calls of steps 1
    # and 6: 3,050 (610 per step) with glibc's dynamic thresholds, which
    # trim the heap top and map large arrays afresh, and 0 with the held
    # heap; the bound is a tenth of the former
    proc = run_fresh(FAULTS)
    assert proc.returncode == 0, proc.stderr
    marks = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(marks) == 6
    assert marks[-1] - marks[0] <= 300, marks


class Recording:
    def __init__(self, accept=1):
        self.calls, self.accept = [], accept

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.accept


def test_helper_fixes_mmap_then_trim_threshold():
    mallopt = Recording()
    assert feneflow._hold_heap(mallopt)
    assert mallopt.calls == [(-3, 32 * 1024 * 1024), (-1, 2**31 - 1)]


def test_trim_threshold_is_left_when_mmap_threshold_is_refused():
    # the trim threshold alone would turn the dynamic mmap threshold off
    # at its 128 KiB default
    mallopt = Recording(accept=0)
    assert not feneflow._hold_heap(mallopt)
    assert mallopt.calls == [(-3, 32 * 1024 * 1024)]


def test_helper_calls_nothing_without_mallopt():
    assert not feneflow._hold_heap(None)


def test_package_imports_cleanly_with_a_libc_without_mallopt():
    script = """
import ctypes

class NoMallopt:
    def __init__(self, name):
        pass

    def __getattr__(self, name):
        raise AttributeError(name)

ctypes.CDLL = NoMallopt
import feneflow
print(feneflow._process_mallopt())
"""
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip() == "None"
