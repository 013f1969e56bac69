"""Command-line entry point: run a configured scenario, validate a
configuration, or self-test: run every scenario at a small size and
require each of its verdicts.

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

    selftest = sub.add_parser("selftest",
                              help="run every scenario at a small size and require its verdicts")
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


def _cmd_selftest(args) -> int:
    """Run every scenario at the golden-ledger size; a scenario passes when
    each verdict of its run holds, and a run that raises fails it."""
    from .scenarios import SCENARIOS, RunConfig, run_scenario

    results = []
    for scenario in SCENARIOS:
        cfg = RunConfig(scenario=scenario, N_x=8, N_r=10, N_theta=10, dt=0.01, T=0.05,
                        seed=args.seed)
        try:
            verdicts = sorted(run_scenario(cfg).verdicts.items())
            ok = all(held for _, held in verdicts)
            detail = ", ".join(name if held else f"{name} (failed)" for name, held in verdicts)
        except Exception as exc:  # surface, keep going
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((scenario, ok, detail))
        print(f"{'PASS' if ok else 'FAIL'}  {scenario}: {detail}")
    n_pass = sum(1 for _, ok, _ in results if ok)
    print(f"selftest: {n_pass}/{len(results)} passed")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        with open(os.path.join(args.out_dir, "selftest.json"), "w") as fh:
            json.dump([{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
                      fh, indent=2)
            fh.write("\n")
    return 0 if n_pass == len(results) else 2


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
