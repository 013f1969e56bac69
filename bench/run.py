"""feneflow benchmark: the ``feneflow run`` path on three fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run of the program is one fresh worker
process (``bench/worker.py``) started from this driver with
``FENEFLOW_THREADS`` set to ``threads`` from ``bench/spec.json`` (at most
the CPU count).  The number of runs is fixed by ``--seconds`` and the
workload's nominal run time, so a faster program does the same work and
every percentile is taken over the same number of samples.

``--trace 0`` reports the end-to-end metrics (medians over the runs; the
per-step ones pooled over every step of every run).  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics from
the traced runs' spans; the spans are written to
``.bench_runs/trace-<workload>-seed<seed>.json``.

A run fails when it raises, when a verdict fails, when the final velocity
is not divergence-free to ``divergence_tol``, or when a ledger column
other than ``fp_iters`` leaves the reference ledger in ``bench/reference``
by more than ``ledger_rtol`` of the column's largest magnitude.  The
exact counts (sweeps, banded solves, secant evaluations, and the sizes of
the output files other than summary.json) must repeat across the runs of
one invocation; a run that differs from an earlier one counts as failed.
``failed / attempted`` is the fail rate.  A seed without a reference
ledger (``forced_channel`` at any seed but ``reference_seed``) adds one
untimed run at the reference seed, so the ledger check still happens.

The last line of standard output is the result object; the line before
it carries the environment and the detail behind the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from worker import REPEATABLE_FILES, load_spec, reference_path  # noqa: E402

WORK_DIR = ".bench_runs"
DEADLINE_S = 170.0

# per-layer time metric -> (span names summed, span names subtracted when
# they are direct children of the former)
LAYER_TIMES = {
    "configspace.setup_s": (("configspace.build_config_grid",
                             "configspace.assemble_fp_operators"), ()),
    "flowspace.setup_s": (("flowspace.build_flow_grid", "flowspace.poincare_constant",
                           "flowspace.smooth_initial_velocity", "flowspace.dual_norm_sq"), ()),
    "stepping.init_s": (("stepping.CoupledStepper",), ()),
    "stepping.smooth_density_s": (("stepping.smooth_initial_density",), ()),
    "stepping.coupled_step_s": (("stepping.coupled_step",), ()),
    "stepping.momentum_s": (("stepping.coupled_step",), ("stepping.fokker_planck_step",)),
    "flowspace.convection_s": (("flowspace.convection_matrix",), ()),
    "stepping.fp_solve_s": (("stepping.fokker_planck_step",),
                            ("kinetic.secant_cutoff_coefficient",)),
    "kinetic.secant_s": (("kinetic.secant_cutoff_coefficient",), ()),
    "diagnostics.ledger_s": (("diagnostics.relative_entropy", "diagnostics.fisher_x",
                              "diagnostics.fisher_q", "diagnostics.decay_energy"), ()),
    "scenarios.write_s": (("diagnostics.EnergyLedger.write", "stepping.save_checkpoint"), ()),
}
LAYER_UNITS = {
    "flowspace.dual_norm_sq_calls": "count", "stepping.steps": "count",
    "stepping.sweeps": "count", "stepping.sweeps_per_step": "ratio",
    "stepping.banded_solves": "count", "kinetic.secant_evals": "count",
    "scenarios.bytes_written": "B", "trace.uncovered_share": "ratio",
}
EXACT_COUNTS = ("stepping.sweeps", "stepping.banded_solves", "kinetic.secant_evals")


def layer_metrics(spans: list, run_s: float) -> dict:
    """Per-layer busy and self times and exact counts of one traced run."""
    out = {}
    for metric, (names, minus) in LAYER_TIMES.items():
        total = 0.0
        for name, start, end, parent, _ in spans:
            if name in names and (parent < 0 or spans[parent][0] not in names):
                total += end - start
            elif name in minus and parent >= 0 and spans[parent][0] in names:
                total -= end - start
        out[metric] = total
    calls = {}
    work = {}
    for name, _, _, _, w in spans:
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + w
    out["flowspace.dual_norm_sq_calls"] = calls.get("flowspace.dual_norm_sq", 0)
    out["stepping.steps"] = calls.get("stepping.coupled_step", 0)
    out["stepping.sweeps"] = calls.get("stepping.fokker_planck_step", 0)
    out["stepping.sweeps_per_step"] = out["stepping.sweeps"] / max(out["stepping.steps"], 1)
    out["stepping.banded_solves"] = work.get("stepping.fokker_planck_step", 0)
    out["kinetic.secant_evals"] = work.get("kinetic.secant_cutoff_coefficient", 0)
    covered = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    out["trace.uncovered_share"] = 1.0 - covered / run_s
    return out


def fail(res: dict, problem: str) -> None:
    res["ok"] = False
    res["problems"].append(problem)


def check_repeats(runs: list) -> None:
    """Fail every run whose exact counts differ from an earlier run's."""
    for r in runs:
        r["counts"] = {"stepping.sweeps": r["ledger_sweeps"],
                       "repeatable_bytes": [r["bytes"][f] for f in REPEATABLE_FILES]}
        if r["traced"]:
            r["counts"].update((k, r["layers"][k]) for k in EXACT_COUNTS)
    for i, r in enumerate(runs):
        for prev in runs[:i]:
            diff = [k for k in r["counts"].keys() & prev["counts"].keys()
                    if r["counts"][k] != prev["counts"][k]]
            if diff:
                fail(r, f"exact counts {diff} differ between repeats")
                break


def tail(samples: list) -> tuple:
    """Highest integer percentile (nearest rank) with at least ten samples
    above it: (value, percentile, sample count)."""
    n = len(samples)
    if n <= 10:
        return max(samples), 100, n
    p = math.floor(100 * (n - 10) / n)
    rank = max(math.ceil(p * n / 100), 1)
    return sorted(samples)[rank - 1], p, n


def environment(threads: int, seed: int) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except Exception:  # build metadata layout differs between releases
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    llc = None
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        levels = []
        for idx in os.listdir(cache_dir):
            try:
                with open(os.path.join(cache_dir, idx, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(cache_dir, idx, "size")) as fh:
                    levels.append((level, fh.read().strip()))
            except (OSError, ValueError):
                continue
        llc = max(levels)[1] if levels else None
    commit = None
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_file = os.path.join(".git", ref[5:])
            if os.path.isfile(ref_file):
                with open(ref_file) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(), "FENEFLOW_THREADS": threads,
        "cpu": cpu, "llc": llc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy), "commit": commit, "seed": seed,
    }


def run_worker(workload: str, seed: int, traced: bool, index: int, env: dict,
               deadline: float) -> dict:
    out_dir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}-{index}")
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           "1" if traced else "0", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            res = {"ok": False, "problems": [f"worker exit {proc.returncode}: {proc.stderr}"]}
        else:
            with open(os.path.join(out_dir, "bench_result.json")) as fh:
                res = json.load(fh)
    except subprocess.TimeoutExpired:
        res = {"ok": False, "problems": ["worker timed out"]}
    except (OSError, ValueError) as exc:
        res = {"ok": False, "problems": [f"no worker result: {exc}"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    res["seed"], res["traced"] = seed, traced
    return res


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "feneflow", "__init__.py")):
        print("bench: no feneflow sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    threads = min(spec["threads"], os.cpu_count() or 1)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(PYTHONPATH=src, FENEFLOW_THREADS=str(threads))
    os.makedirs(WORK_DIR, exist_ok=True)

    wl = spec["workloads"][args.workload]
    n_runs = max(spec["min_runs"], round(args.seconds / wl["nominal_run_s"]))
    results = []
    if reference_path(args.workload, args.seed, spec) is None:
        # this seed has no reference ledger: check the program once on the
        # reference seed, untimed
        results.append(run_worker(args.workload, spec["reference_seed"], False, -1,
                                  env, deadline))
    timed = [run_worker(args.workload, args.seed, args.trace == 1 and i % 2 == 1, i,
                        env, deadline) for i in range(n_runs)]
    results += timed

    for r in timed:
        if r["ok"] and r["traced"]:
            r["layers"] = layer_metrics(r["spans"], r["run_s"])
            r["layers"]["scenarios.bytes_written"] = sum(r["bytes"].values())
            if r["layers"]["stepping.sweeps"] != r["ledger_sweeps"]:
                fail(r, "traced sweep count differs from the ledger's fp_iters")
    check_repeats([r for r in timed if r["ok"]])

    failed = sum(1 for r in results if not r["ok"])
    untraced = [r for r in timed if r["ok"] and not r["traced"]]
    traced = [r for r in timed if r["ok"] and r["traced"]]
    metrics = {}
    detail = {"environment": environment(threads, args.seed), "workload": args.workload,
              "config": wl["config"], "runs": len(timed), "fail_rate": failed / len(results),
              "problems": [p for r in results for p in r.get("problems", [])]}
    if untraced:
        steps = [s for r in untraced for s in r["step_s"]]
        tail_value, tail_pct, n_steps = tail(steps)
        e2e = {
            "setup_s": (statistics.median(r["setup_s"] for r in untraced), "s"),
            "step_s": (statistics.median(steps), "s"),
            "step_s_tail": (tail_value, "s"),
            "run_s": (statistics.median(r["run_s"] for r in untraced), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
        detail.update(step_s_tail_percentile=tail_pct, step_samples=n_steps,
                      untraced_runs=len(untraced), traced_runs=len(traced))
        if args.trace == 0:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        elif traced:
            for key in traced[0]["layers"]:
                metrics[key] = {"value": statistics.median(r["layers"][key] for r in traced),
                                "unit": LAYER_UNITS.get(key, "s")}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(r["run_s"] for r in traced) - e2e["run_s"][0],
                "unit": "s"}
            with open(os.path.join(WORK_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                      "w") as fh:
                json.dump([r["spans"] for r in traced], fh)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
