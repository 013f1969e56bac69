"""Command-line entry point: run a configured scenario, validate a
configuration, or exercise the structural self-tests.

Exit codes: 0 all verdicts pass, 2 a verdict failed or the configuration
is invalid (not UTF-8, not JSON, or a rejected value, including a ``b``
the configuration grid cannot be built for and a rejected command-line
option such as a negative ``--seed``), 1 a missing config file or an
execution error.  A standard output closed by its reader (``feneflow
selftest | head -1``) also ends the command with 1, and with no message.
Each warning is printed once, as ``warning: <message>`` on standard error;
``check`` also prints the step count and ``dt`` that a run would take.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from typing import List, Optional


def _seed(text: str) -> int:
    """``--seed``: a nonnegative integer, else an argparse error (exit 2)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="feneflow",
        description="desk-scale coupled polymer/flow runs with entropy diagnostics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario from a JSON config")
    run.add_argument("config", help="path to the JSON run configuration")
    run.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    run.add_argument("--out-dir", default=None, help="write ledger/checkpoint/summary here")
    run.add_argument("--strict", action="store_true",
                     help="reject every schedule warning: dt over the step rule or not dividing T")

    chk = sub.add_parser("check", help="validate a JSON config without running it")
    chk.add_argument("config", help="path to the JSON run configuration")
    chk.add_argument("--strict", action="store_true",
                     help="reject every schedule warning: dt over the step rule or not dividing T")

    selftest = sub.add_parser("selftest", help="run the built-in structural property suite")
    selftest.add_argument("--seed", type=_seed, default=0)
    selftest.add_argument("--out-dir", default=None, help="optional report destination")
    return p


def _load_config(args):
    """Read and validate ``args.config``: ``(cfg, None)``, or ``(None, exit
    code)`` after reporting why not (1 for a missing file, 2 for a file that
    is not a valid UTF-8 JSON configuration)."""
    from .scenarios import ConfigError, parse_config

    try:
        with open(args.config, encoding="utf-8") as fh:
            return parse_config(fh.read(), strict=args.strict), None
    except FileNotFoundError:
        print(f"error: no such config file: {args.config}", file=sys.stderr)
        return None, 1
    except UnicodeDecodeError as exc:
        print(f"config error: {args.config} is not UTF-8 text ({exc.reason} "
              f"at byte {exc.start})", file=sys.stderr)
        return None, 2
    except ConfigError as exc:
        return None, _config_error(exc)


def _config_error(exc) -> int:
    """Report every violation of a ConfigError; the exit code is 2."""
    for line in exc.violations:
        print(f"config error: {line}", file=sys.stderr)
    return 2


def _cmd_run(args) -> int:
    from .scenarios import ConfigError, run_scenario

    cfg, status = _load_config(args)
    if cfg is None:
        return status
    if args.seed is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    t0 = time.time()
    try:
        result = run_scenario(cfg, out_dir=args.out_dir)
    except ConfigError as exc:
        return _config_error(exc)
    elapsed = time.time() - t0
    for name, ok in sorted(result.verdicts.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    print(f"ran {result.n_steps} steps of dt={result.dt:.6g} "
          f"({elapsed:.1f}s); final free energy "
          f"{result.ledger.rows[-1]['free_energy']:.6e}")
    if result.decay is not None:
        d = result.decay
        print(f"decay: E(T)={d.final_energy:.6e} bound={d.bound_at_final_time:.6e} "
              f"fitted rate={d.fitted_rate:.3f} (gamma0={d.gamma0:.3f})")
    return result.exit_status


def _cmd_check(args) -> int:
    from .scenarios import ConfigError, config_grid

    cfg, status = _load_config(args)
    if cfg is None:
        return status
    dt, n_steps, notes = cfg.schedule()
    for note in notes:
        warnings.warn(note)
    try:
        config_grid(cfg)
    except ConfigError as exc:
        return _config_error(exc)
    print(f"config ok: scenario={cfg.scenario} grids {cfg.N_x}^2 flow / "
          f"{cfg.N_r}x{cfg.N_theta} config, {n_steps} steps of dt={dt!r} to t={n_steps * dt:.6g}")
    return 0


def _selftest_checks(seed: int):
    """Yield (name, callable) pairs; each callable returns (ok, detail)."""
    import numpy as np

    from . import (
        RunConfig,
        assemble_fp_operators,
        build_config_grid,
        build_flow_grid,
        convection_matrix,
        csiszar_kullback_check,
        lsi_check,
        maxwellian_value,
        project_divergence_free,
        run_scenario,
        smooth_initial_density,
    )

    rng = np.random.default_rng(seed)
    grid = build_config_grid(4.0, N_r=16, N_theta=16)
    fg = build_flow_grid(12)

    def check_normalizer():
        import math

        # 2 pi int_0^sqrt(b) M r dr = 1 by Gauss-Legendre quadrature, which is
        # exact for this degree-5 polynomial integrand at b = 4 and does not
        # use the closed form of Z
        b = 4.0
        half = 0.5 * math.sqrt(b)               # maps [-1, 1] onto [0, sqrt(b)]
        x, wx = np.polynomial.legendre.leggauss(4)
        r = half * (x + 1.0)
        profile = maxwellian_value(r, b)
        mass = 2.0 * math.pi * half * float(wx @ (profile * r))
        return abs(mass - 1.0) < 1.0e-12, f"mass={mass!r}"

    def check_quadrature():
        m2 = float((grid.qx**2 + grid.qy**2) @ grid.w)
        return abs(m2 - 1.0) < 1.0e-8, f"second moment={m2!r}"

    def check_ibp():
        # int M (B q) . grad phi = int M phi U' q^T B q for trace-free B; the
        # grid integrates both sides exactly for this polynomial phi, whose
        # gradient is taken in closed form
        phi = 1.0 + 0.2 * grid.qx - 0.1 * grid.qy + 0.05 * grid.qx * grid.qy
        grad = np.stack([0.2 + 0.05 * grid.qy, -0.1 + 0.05 * grid.qx])
        coords = np.stack([grid.qx, grid.qy])
        worst = 0.0
        for _ in range(5):
            B = rng.standard_normal((2, 2))
            B[1, 1] = -B[0, 0]
            Bq = B @ coords
            lhs = float(grid.w @ np.sum(Bq * grad, axis=0))
            rhs = float(grid.w @ (phi * grid.uprime * np.sum(coords * Bq, axis=0)))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        return worst < 1.0e-8, f"worst relative residual={worst:.2e}"

    def check_projection():
        worst = 0.0
        for _ in range(20):
            w = rng.standard_normal(fg.n_u + fg.n_v)
            u = project_divergence_free(fg, w)
            worst = max(worst, float(np.abs(fg.D @ u).max()))
        return worst < 1.0e-10, f"worst divergence={worst:.2e}"

    def check_skewness():
        worst = 0.0
        for _ in range(20):
            v = rng.standard_normal(fg.n_u + fg.n_v)
            C = convection_matrix(fg, v)
            worst = max(worst, float(np.abs((C + C.T)).max()))
        return worst < 1.0e-12, f"worst symmetric part={worst:.2e}"

    def check_lsi():
        for _ in range(25):
            psi = np.abs(1.0 + 0.5 * rng.standard_normal() * grid.qx
                         + 0.5 * rng.standard_normal() * grid.qy) + 0.01
            r = lsi_check(grid, psi)
            if not r.satisfied:
                return False, f"entropy {r.entropy_term:.3e} > fisher {r.fisher_term:.3e}"
        return True, "25 fields"

    def check_ck():
        for _ in range(25):
            psi = 1.0 + 0.4 * np.tanh(rng.standard_normal() * grid.qx)
            psi = np.tile(psi / float(psi @ grid.w), (fg.n_c, 1))
            r = csiszar_kullback_check(fg, grid, psi)
            if not r.satisfied:
                return False, f"margins {r.worst_pointwise_margin:.2e}/{r.integrated_margin:.2e}"
        return True, "25 fields"

    def check_smoothing():
        ops = assemble_fp_operators(grid)
        for _ in range(5):
            psi = np.abs(1.0 + 0.3 * rng.standard_normal() * grid.qx)[None, :] \
                * (1.0 + 0.2 * rng.random(fg.n_c))[:, None]
            smooth_initial_density(fg, ops, psi, dt=0.01, clip_level=10.0)
        return True, "5 random densities"

    def check_equilibrium_run():
        cfg = RunConfig(scenario="equilibrium", T=0.1, dt=0.01,
                        N_x=10, N_r=10, N_theta=10)
        res = run_scenario(cfg)
        rows = res.ledger.rows
        drift = max(abs(rows[-1][c] - rows[0][c])
                    for c in ("kinetic", "entropy", "free_energy"))
        return drift <= 1.0e-10 and res.exit_status == 0, f"ledger drift={drift:.2e}"

    yield "maxwellian normalizer", check_normalizer
    yield "quadrature second moment", check_quadrature
    yield "integration by parts", check_ibp
    yield "divergence-free projection", check_projection
    yield "convection skew-symmetry", check_skewness
    yield "log-Sobolev sweep", check_lsi
    yield "distance-to-equilibrium sweep", check_ck
    yield "initial-data smoothing", check_smoothing
    yield "equilibrium fixed point", check_equilibrium_run


def _cmd_selftest(args) -> int:
    results = []
    for name, fn in _selftest_checks(args.seed):
        try:
            ok, detail = fn()
        except Exception as exc:  # surface, keep going
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    n_fail = sum(1 for _, ok, _ in results if not ok)
    print(f"selftest: {len(results) - n_fail}/{len(results)} passed")
    if args.out_dir:
        import os

        os.makedirs(args.out_dir, exist_ok=True)
        with open(os.path.join(args.out_dir, "selftest.json"), "w") as fh:
            json.dump([{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
                      fh, indent=2)
            fh.write("\n")
    return 0 if n_fail == 0 else 2


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # every warning reaches the printer; no caller's filter makes it exit 1
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            if args.command == "run":
                return _cmd_run(args)
            if args.command == "check":
                return _cmd_check(args)
            if args.command == "selftest":
                return _cmd_selftest(args)
            return 1
        except KeyboardInterrupt:
            return 1
        except BrokenPipeError:
            # the reader is gone: point stdout at devnull, so that the
            # interpreter's final flush of what is buffered stays silent too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        except Exception as exc:
            print(f"execution error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
