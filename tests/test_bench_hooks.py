"""The benchmark's traced run wraps public callables of the package where
the run path looks them up (``bench/worker.py``).  A refactor that renames
or bypasses one of those hook points must fail here rather than silently
drop a layer from the traced split."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys, tempfile
sys.path.insert(0, "bench")
from worker import Tracer, install_tracer

class Recording(Tracer):
    def __init__(self):
        super().__init__()
        self.names = []

    def wrap(self, name, fn, work=None):
        self.names.append(name)
        return super().wrap(name, fn, work)

tracer = Recording()
install_tracer(tracer)
from feneflow import RunConfig, run_scenario
with tempfile.TemporaryDirectory() as out:
    run_scenario(RunConfig(scenario="forced", T=0.02, dt=0.01, N_x=6, N_r=8, N_theta=8),
                 out_dir=out)
print(json.dumps({"wrapped": tracer.names, "called": sorted({s[0] for s in tracer.spans}),
                  "secant_work": [s[4] for s in tracer.spans
                                  if s[0] == "kinetic.secant_cutoff_coefficient"]}))
"""


def test_every_benchmark_hook_resolves_and_is_called():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FENEFLOW_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["wrapped"], "install_tracer wrapped nothing"
    assert sorted(set(report["wrapped"])) == report["called"]
    # the hook counts the size of the secant's first argument as its work:
    # one coefficient field of n_c cells x n_nodes nodes (6 x 6 cells, 8 x 8
    # nodes), so a signature that moves that field fails here
    assert report["secant_work"] and set(report["secant_work"]) == {36 * 64}
