"""One benchmark run of the ``feneflow run`` path, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED TRACE OUT_DIR

``feneflow`` is imported from ``PYTHONPATH`` (``bench/run.py`` points it at
``src``).  The worker follows what ``feneflow run`` does, ``parse_config``
then ``run_scenario(cfg, out_dir=OUT_DIR, progress=...)``, and writes its
measurements to ``OUT_DIR/bench_result.json``.

Untraced (TRACE 0), the only hooks are a time stamp on entry to
``CoupledStepper.coupled_step`` and the ``progress`` callback.  Traced
(TRACE 1), ``install_tracer`` wraps the public callables of each layer
where the run path looks them up, and each call records a span
``[name, start, end, parent, work]`` in memory; the spans are written out
with the result.  Nothing under ``src`` is modified.

After the timed part the outputs are checked: verdicts, the divergence of
the final velocity, and the ledger against ``bench/reference``.  The
ledger in ``OUT_DIR`` is left in place, so running this file by hand with
the reference seed is how a reference ledger is recorded.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUTPUT_FILES = ("ledger.tsv", "config.json", "final_state.npz", "summary.json")
# summary.json is left out of the repeat check: its poincare and gamma0
# come from an ARPACK eigensolve whose last bits, and so the length of
# their repr, vary between processes.
REPEATABLE_FILES = ("ledger.tsv", "config.json", "final_state.npz")
clock = time.perf_counter


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)


def reference_path(workload: str, seed: int, spec: dict) -> str | None:
    """Reference ledger for this run, or None when the seed has none."""
    if spec["workloads"][workload]["seeded"]:
        if seed != spec["reference_seed"]:
            return None
        return os.path.join(HERE, "reference", f"{workload}_seed{seed}.tsv")
    return os.path.join(HERE, "reference", f"{workload}.tsv")


class Tracer:
    """In-memory span recorder; ``parent`` is the index of the enclosing
    span, or -1 at top level."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    work(*args) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced


def install_tracer(tracer: Tracer) -> None:
    from feneflow import diagnostics, scenarios, stepping

    stepper = stepping.CoupledStepper
    targets = [
        (scenarios, "build_config_grid", "configspace.build_config_grid", None),
        (scenarios, "assemble_fp_operators", "configspace.assemble_fp_operators", None),
        (scenarios, "build_flow_grid", "flowspace.build_flow_grid", None),
        (scenarios, "poincare_constant", "flowspace.poincare_constant", None),
        (scenarios, "smooth_initial_velocity", "flowspace.smooth_initial_velocity", None),
        (scenarios, "dual_norm_sq", "flowspace.dual_norm_sq", None),
        (scenarios, "smooth_initial_density", "stepping.smooth_initial_density", None),
        (scenarios, "save_checkpoint", "stepping.save_checkpoint", None),
        (stepping, "convection_matrix", "flowspace.convection_matrix", None),
        # work: configuration-space elements evaluated, n_c * n_edges
        (stepping, "secant_cutoff_coefficient", "kinetic.secant_cutoff_coefficient",
         lambda pa, *rest: pa.size),
        (stepper, "__init__", "stepping.CoupledStepper", None),
        (stepper, "coupled_step", "stepping.coupled_step", None),
        # work: banded solves, one per configuration mode
        (stepper, "fokker_planck_step", "stepping.fokker_planck_step",
         lambda self, psi_prev, *rest: psi_prev.shape[1]),
        (diagnostics.EnergyLedger, "write", "diagnostics.EnergyLedger.write", None),
    ] + [(diagnostics, name, f"diagnostics.{name}", None)
         for name in ("relative_entropy", "fisher_x", "fisher_q", "decay_energy")]
    for owner, attr, name, work in targets:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), work))


def read_ledger(path: str) -> dict:
    """Ledger TSV -> {column: [values]}; comment lines are skipped and
    columns are matched by name."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    names = lines[0].split("\t")
    rows = [[float(x) for x in ln.split("\t")] for ln in lines[1:]]
    return {n: [r[i] for r in rows] for i, n in enumerate(names)}


def ledger_mismatches(got: dict, ref: dict, rtol: float, floor: float, ignore) -> list:
    """Columns of ``ref`` (except ``ignore``) that ``got`` misses or that
    differ by more than ``rtol`` times the column's largest magnitude.

    The magnitude is raised to ``floor``: a column that stays below it, as
    every energy of the equilibrium ledger does, holds round-off, which a
    reordered computation changes freely.
    """
    bad = []
    for name, want in ref.items():
        if name in ignore:
            continue
        have = got.get(name)
        if have is None or len(have) != len(want):
            bad.append(f"ledger column {name}: missing or wrong length")
            continue
        scale = max(max(abs(x) for x in want), floor)
        err = max(abs(a - b) for a, b in zip(have, want))
        if err > rtol * scale:
            bad.append(f"ledger column {name}: max deviation {err:.3e} "
                       f"exceeds {rtol:g} x column scale {scale:.3e}")
    return bad


def run(workload: str, seed: int, traced: bool, out_dir: str) -> dict:
    spec = load_spec()
    config = dict(spec["workloads"][workload]["config"], seed=seed)

    from feneflow import flowspace, scenarios, stepping

    tracer = Tracer()
    if traced:
        install_tracer(tracer)
    entries, progress_marks = [], []
    coupled_step = stepping.CoupledStepper.coupled_step

    def stamped_step(self, *args, **kwargs):
        entries.append(clock())
        return coupled_step(self, *args, **kwargs)

    stepping.CoupledStepper.coupled_step = stamped_step

    def progress(j, n_steps):
        progress_marks.append(clock())

    t_parse = clock()
    cfg = scenarios.parse_config(json.dumps(config))
    t_call = clock()
    result = scenarios.run_scenario(cfg, out_dir=out_dir, progress=progress)
    t_done = clock()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    if result.exit_status != 0 or not all(result.verdicts.values()):
        problems.append(f"verdicts {result.verdicts}, exit status {result.exit_status}")
    fg = flowspace.build_flow_grid(cfg.N_x, side=cfg.side)
    div = float(abs(fg.divergence(result.state.u)).max())
    if not div <= spec["divergence_tol"]:
        problems.append(f"max |div u| = {div:.3e} exceeds {spec['divergence_tol']:g}")
    ledger = read_ledger(os.path.join(out_dir, "ledger.tsv"))
    ref = reference_path(workload, seed, spec)
    if ref is not None:
        problems += ledger_mismatches(ledger, read_ledger(ref), spec["ledger_rtol"],
                                      spec["ledger_scale_floor"], spec["ledger_ignore"])
    if len(entries) != len(progress_marks) or not entries:
        problems.append(f"{len(entries)} step entries but {len(progress_marks)} progress calls")

    return {
        "ok": not problems,
        "problems": problems,
        "setup_s": entries[0] - t_call if entries else None,
        "run_s": t_done - t_parse,
        "step_s": [p - e for e, p in zip(entries, progress_marks)],
        "peak_rss_mb": peak_rss_mb,
        "ledger_sweeps": int(sum(ledger["fp_iters"])),
        "bytes": {f: os.path.getsize(os.path.join(out_dir, f)) for f in OUTPUT_FILES},
        "spans": tracer.spans if traced else None,
    }


def main(argv) -> int:
    workload, seed, trace, out_dir = argv[1], int(argv[2]), argv[3] == "1", argv[4]
    try:
        out = run(workload, seed, trace, out_dir)
    except Exception:  # a failed run is a measured outcome, not a crash
        out = {"ok": False, "problems": [traceback.format_exc()]}
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "bench_result.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
