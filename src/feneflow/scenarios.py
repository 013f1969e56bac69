"""Run configurations, the scenario library, and the end-to-end run loop.

A run is: parse/validate a configuration, build grids and operators, smooth
the raw initial data, march the coupled stepper over the horizon while
accumulating the energy ledger, and evaluate the inequality verdicts.  All
of it is deterministic for a fixed configuration and seed, so ledgers are
byte-identical across repeat runs on one platform.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import diagnostics as dg
from .configspace import (
    ConfigGrid,
    ConfigOperators,
    assemble_fp_operators,
    build_config_grid,
    spectral_gap,
)
from .flowspace import FlowGrid, build_flow_grid, dual_norm_sq, poincare_constant, smooth_initial_velocity
from .kinetic import KAPPA, ConstructionError, CutoffParams, DomainError, check_extensibility
from .stepping import (
    CoupledStepper,
    SmoothingReport,
    StepParams,
    SystemState,
    save_checkpoint,
    smooth_initial_density,
)

__all__ = [
    "SCENARIOS",
    "RunConfig",
    "ConfigError",
    "parse_config",
    "config_grid",
    "emit_config",
    "RunResult",
    "run_scenario",
]

SCENARIOS = ("equilibrium", "decay", "couette", "forced")
DT_FLOOR = 1.0e-8       # the smallest step the cut-off step rule may choose


class ConfigError(ValueError):
    """Invalid run configuration; ``violations`` lists every failed rule."""

    def __init__(self, violations: List[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


@dataclass
class RunConfig:
    """Everything a run needs, JSON keys = field names.

    The chain is one planar FENE spring (a dumbbell, ``d = 2``, Rouse
    matrix ``[1]``), so ``b`` is its only parameter.  ``dt`` (default
    0.01) is the step size whenever it is set; with ``dt = None`` the step
    comes from ``C0`` by the cut-off step rule ``dt <= C0 / (L log L)``.
    :meth:`schedule` is that rule's one home: it resolves the step and warns
    of a set ``dt`` above the rule's cap or not dividing ``T``; validation
    emits nothing, and strict validation rejects each warning.
    """

    scenario: str = "decay"
    # spring
    b: float = 4.0
    # physics
    nu: float = 1.0
    k: float = 1.0
    lam: float = 0.5
    eps: float = 0.1
    # scheme
    T: float = 2.0
    dt: Optional[float] = 0.01
    C0: Optional[float] = None
    L: float = 5.0
    delta: float = 1.0e-4
    N_x: int = 20
    N_r: int = 20
    N_theta: int = 20
    side: float = 1.0
    fp_tol: float = 1.0e-12
    fp_max_iter: int = 80
    record_every: int = 1
    seed: int = 0
    # scenario parameters
    amplitude: float = 0.1            # decay: a in 1 + a q_x / sqrt(b), |a| <= min(1, L - 1)
    stream_amplitude: float = 0.25    # decay: stream-function scale
    force_amplitude: float = 1.0      # couette / forced: body-force scale

    def _type_violations(self) -> List[str]:
        """Fields whose JSON value has the wrong type: integers (not bools)
        for ``int`` fields, finite numbers for ``float`` fields, ``None``
        only where the field is optional."""
        v: List[str] = []
        for f in fields(self):
            val = getattr(self, f.name)
            if val is None and f.type.startswith("Optional"):
                ok = True
            elif f.type == "str":
                ok = isinstance(val, str)
            elif f.type == "int":
                ok = isinstance(val, int) and not isinstance(val, bool)
            else:
                ok = _is_finite_number(val)
            if not ok:
                v.append(f"{f.name} must be {_TYPE_NAMES[f.type]}, got {val!r}")
        return v

    def schedule(self) -> Tuple[float, int, List[str]]:
        """``(dt, n_steps, warnings)`` of a valid config, or ConfigError.

        With ``dt = None`` the step is the largest ``dt <= C0 / (L log L)``
        that divides ``T`` exactly, no smaller than ``DT_FLOOR``; the rule
        needs ``L > e``, so a larger cut-off never allows a larger step.
        A set ``dt`` runs ``round(T / dt)`` steps.
        """
        if self.dt is None:
            if self.L <= math.e:
                raise ConfigError([f"the step rule needs L > e (so log L > 1), got L={self.L}"])
            if self.C0 <= 0.0 or self.T <= 0.0:
                raise ConfigError(["C0 and the horizon must be positive"])
        cap = math.inf if self.C0 is None else self.C0 / (self.L * math.log(self.L))
        if self.dt is None:
            n_min = self.T / cap if cap > 0.0 else math.inf
            if not math.isfinite(n_min):
                raise ConfigError([f"the step rule C0/(L log L) = {cap:.3e} gives no finite "
                                   f"step count for the horizon {self.T}"])
            n = max(1, math.ceil(n_min - 1.0e-12))
            dt = self.T / n
            if dt < DT_FLOOR:
                raise ConfigError([f"schedule for L={self.L} needs dt={dt:.3e} below the floor "
                                   f"{DT_FLOOR:.1e}"])
            return dt, n, []
        if not math.isfinite(self.T / self.dt):
            raise ConfigError([f"dt = {self.dt} is too small for T = {self.T}: "
                               f"the step count T / dt is not finite"])
        n = max(1, round(self.T / self.dt))
        notes = []
        if abs(n * self.dt - self.T) > 1.0e-9 * max(self.T, 1.0):
            notes.append(f"dt = {self.dt} does not divide T = {self.T}; "
                         f"running {n} steps to t = {n * self.dt:.6g}")
        if self.dt > cap * (1.0 + 1.0e-12):
            notes.append(f"dt = {self.dt} exceeds the step rule C0/(L log L) = {cap:.6g}")
        return self.dt, n, notes

    def validate(self, strict: bool = False) -> List[str]:
        v = self._type_violations()
        if v:
            return v
        if self.scenario not in SCENARIOS:
            v.append(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        try:
            check_extensibility(self.b)
        except DomainError as exc:
            v.append(str(exc))
        for name in ("nu", "lam", "eps", "T", "side", "dt", "C0"):
            if getattr(self, name) is not None and not getattr(self, name) > 0.0:
                v.append(f"{name} must be positive, got {getattr(self, name)}")
        if self.k < 0.0:
            v.append(f"k must be nonnegative, got {self.k}")
        try:
            cutoff = CutoffParams(self.L, self.delta)
        except ValueError as exc:
            v.append(str(exc))
            cutoff = None
        if not abs(self.amplitude) <= 1.0:
            v.append(f"amplitude must lie in [-1, 1], got {self.amplitude}")
        # the decay datum reaches 1 + |a| on the disc; a lower L would clip
        # configuration mass off it, and every verdict assumes that mass is 1
        if self.scenario == "decay" and not self.L >= 1.0 + abs(self.amplitude):
            v.append(f"decay needs L >= 1 + |amplitude| = {1.0 + abs(self.amplitude)}, "
                     f"got L = {self.L}")
        if self.dt is None and self.C0 is None:
            v.append("one of dt / C0 is required")
        elif cutoff is not None and all(x is None or x > 0.0 for x in (self.T, self.dt, self.C0)):
            try:
                notes = self.schedule()[2]
                if strict:
                    v += notes
            except ConfigError as exc:
                v += exc.violations
        if self.N_x < 4:
            v.append(f"N_x must be at least 4, got {self.N_x}")
        if self.N_r < 8 or self.N_theta < 8:
            v.append("configuration grid needs N_r >= 8 and N_theta >= 8")
        if self.record_every < 1:
            v.append(f"record_every must be >= 1, got {self.record_every}")
        if self.fp_max_iter < 1 or not self.fp_tol > 0.0:
            v.append(f"need fp_max_iter >= 1 and fp_tol > 0, got {self.fp_max_iter}, {self.fp_tol}")
        if self.seed < 0:
            v.append(f"seed must be nonnegative, got {self.seed}")
        return v


_TYPE_NAMES = {
    "str": "a string",
    "int": "an integer",
    "float": "a finite number",
    "Optional[float]": "a finite number or null",
}


def _is_finite_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)


def parse_config(text: str, strict: bool = False) -> RunConfig:
    """JSON text -> validated RunConfig; unknown keys and every violated
    invariant are reported together."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"configuration is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["configuration must be a JSON object"])
    known = set(RunConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    violations = [f"unknown key {k!r}" for k in unknown]
    cfg = RunConfig(**{k: v for k, v in raw.items() if k in known})
    violations += cfg.validate(strict=strict)
    if violations:
        raise ConfigError(violations)
    return cfg


def config_grid(cfg: RunConfig) -> ConfigGrid:
    """The configuration grid of a validated ``cfg``.  A ``b`` for which the
    grid cannot be built is a ConfigError, as is every other rejected value."""
    try:
        return build_config_grid(cfg.b, N_r=cfg.N_r, N_theta=cfg.N_theta)
    except ConstructionError as exc:
        raise ConfigError([f"b = {cfg.b} gives no configuration grid: {exc}"]) from exc


def emit_config(cfg: RunConfig) -> str:
    return json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# scenario library
# --------------------------------------------------------------------------


def _decay_velocity(cfg: RunConfig, fg: FlowGrid):
    """Curl of ``a [g(x) g(y)]^2`` with ``g(s) = 4 s (1 - s)`` on the unit
    square (rescaled to the configured side): divergence-free, vanishing to
    second order at the walls."""
    a, S = cfg.stream_amplitude, cfg.side

    def g(s):
        return 4.0 * s * (1.0 - s)

    def gp(s):
        return 4.0 - 8.0 * s

    def ux(x, y):
        return a * g(x / S) ** 2 * 2.0 * g(y / S) * gp(y / S) / S

    def uy(x, y):
        return -a * 2.0 * g(x / S) * gp(x / S) * g(y / S) ** 2 / S

    return fg.sample_faces(ux, uy)


def _scenario_data(cfg: RunConfig, fg: FlowGrid, grid: ConfigGrid, rng: np.random.Generator
                   ) -> Tuple[np.ndarray, np.ndarray, Optional[Callable[[float], np.ndarray]]]:
    """Raw ``(u0, psi0, forcing)`` for the configured scenario.

    Every density is mass-one at each cell; equilibrium and decay carry no
    forcing.
    """
    n_uv = fg.n_u + fg.n_v
    ones = np.ones((fg.n_c, grid.n_nodes))
    if cfg.scenario == "equilibrium":
        return np.zeros(n_uv), ones, None
    if cfg.scenario == "decay":
        psi0 = 1.0 + cfg.amplitude * grid.qx / math.sqrt(cfg.b)
        return _decay_velocity(cfg, fg), ones * psi0[None, :], None
    if cfg.scenario == "couette":
        # steady body force along x, varying across the channel: a shear
        # band with the no-slip walls retained
        amp, S = cfg.force_amplitude, cfg.side
        fvec = fg.sample_faces(lambda x, y: amp * np.sin(2.0 * np.pi * y / S),
                               lambda x, y: np.zeros_like(x))
        return np.zeros(n_uv), ones, lambda t: fvec
    if cfg.scenario == "forced":
        amp, S = cfg.force_amplitude, cfg.side
        ph1, ph2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        base1 = fg.sample_faces(lambda x, y: amp * np.sin(2.0 * np.pi * y / S + ph1),
                                lambda x, y: np.zeros_like(x))
        base2 = fg.sample_faces(lambda x, y: np.zeros_like(x),
                                lambda x, y: amp * np.sin(2.0 * np.pi * x / S + ph2))
        omega = 2.0 * math.pi / cfg.T
        return np.zeros(n_uv), ones, \
            lambda t: math.cos(omega * t) * base1 + math.sin(omega * t) * base2
    raise ConfigError([f"unknown scenario {cfg.scenario!r}"])


# --------------------------------------------------------------------------
# the run loop
# --------------------------------------------------------------------------


@dataclass
class RunResult:
    config: RunConfig
    state: SystemState
    ledger: dg.EnergyLedger
    decay: Optional[dg.DecayVerdict]
    exit_status: int
    verdicts: Dict[str, bool]
    gamma0: float
    poincare: float
    B2: float
    initial_budget: float
    decay_times: np.ndarray
    decay_energies: np.ndarray
    smoothing: SmoothingReport
    dt: float
    n_steps: int


def run_scenario(cfg: RunConfig, out_dir: Optional[str] = None,
                 progress: Optional[Callable[[int, int], None]] = None) -> RunResult:
    """Execute one configured run end to end.

    Returns the final state, the complete ledger, the decay verdict (decay
    scenario only) and an exit status: 0 when every applicable verdict
    holds, 2 otherwise.  A configuration that :func:`config_grid` cannot
    build raises ConfigError; stepper failures propagate with the step index.
    """
    violations = cfg.validate()
    if violations:
        raise ConfigError(violations)
    dt, n_steps, notes = cfg.schedule()
    for note in notes:
        warnings.warn(note, stacklevel=2)

    grid = config_grid(cfg)
    ops = assemble_fp_operators(grid)
    fg = build_flow_grid(cfg.N_x, side=cfg.side)
    params = StepParams(dt=dt, nu=cfg.nu, k=cfg.k, lam=cfg.lam, eps=cfg.eps,
                        cutoff=CutoffParams(delta=cfg.delta, L=cfg.L),
                        fp_tol=cfg.fp_tol, fp_max_iter=cfg.fp_max_iter)
    rng = np.random.default_rng(cfg.seed)

    u0_raw, psi0_raw, forcing = _scenario_data(cfg, fg, grid, rng)

    # data smoothing: velocity through one implicit constrained Helmholtz
    # step, density through clipping at L plus one unit-coefficient heat step.
    # The state is the one owner of the smoothed data, and the raw density
    # is released once smoothed, so neither stays on the steps' working set;
    # the stepper is built after the smoothing, so the smoothing's inverse
    # diagonal is never alive next to the stepper's
    u0 = smooth_initial_velocity(fg, u0_raw, dt)
    psi0, smooth_rep = smooth_initial_density(fg, ops, psi0_raw, dt, cfg.L)
    state = SystemState(u=u0, psi=psi0, t=0.0, n=0)
    del psi0_raw, psi0
    stepper = CoupledStepper(fg, ops, params)

    cp, _ = poincare_constant(cfg.N_x, cfg.side)
    g0 = dg.gamma0(cfg.nu, cp, cfg.lam)

    # data-only majorant: raw velocity, full-horizon forcing, raw entropy;
    # the forcing is sampled at each step's midpoint, here and in the loop
    ent_raw = smooth_rep.entropy_before
    f_dual_sum = 0.0
    if forcing is not None:
        for j in range(1, n_steps + 1):
            f_dual_sum += dt * dual_norm_sq(fg, forcing((j - 0.5) * dt))
    B2 = fg.norm_sq(u0_raw) + f_dual_sum / cfg.nu + 2.0 * cfg.k * ent_raw
    initial_budget = fg.norm_sq(u0_raw) + 2.0 * cfg.k * ent_raw

    ledger = dg.EnergyLedger()
    visc_hist = fx_hist = fq_hist = 0.0
    times = [0.0]
    energies = [dg.decay_energy(fg, grid, state.u, state.psi, cfg.k)]

    def record(fp_iters: int, ent: float, fx: float, fq: float) -> None:
        u_sq = fg.norm_sq(state.u)
        rho = state.psi @ grid.w
        ledger.append(
            t=state.t,
            kinetic=0.5 * u_sq,
            entropy=ent,
            fisher_x=fx,
            fisher_q=fq,
            free_energy=0.5 * u_sq + cfg.k * ent,
            energy_lhs=(u_sq + cfg.nu * visc_hist + cfg.k * ent
                        + cfg.k * cfg.eps * fx_hist
                        + (cfg.k / (4.0 * cfg.lam)) * fq_hist),
            B2=B2,
            rho_min=float(rho.min()),
            rho_max=float(rho.max()),
            psi_min=float(state.psi.min()),
            fp_iters=fp_iters,
            beta_saturation_fraction=float((state.psi > cfg.L).mean()),
        )

    # row 0: the smoothed density, whose terms the smoothing evaluated
    record(0, smooth_rep.entropy_after, smooth_rep.fisher_x, smooth_rep.fisher_q)
    for j in range(1, n_steps + 1):
        try:
            fj = forcing((j - 0.5) * dt) if forcing is not None else None
            state, rep = stepper.coupled_step(state, fj)
        except Exception as exc:
            raise RuntimeError(f"step {j}/{n_steps} failed: {exc}") from exc
        # the ledger terms clamp a dip below zero; the nonnegativity verdict
        # alone judges it, from psi_min
        fx = dg.fisher_x(fg, grid, state.psi, neg_tol=math.inf)
        fq = dg.fisher_q(fg, grid, state.psi, neg_tol=math.inf)
        visc_hist += dt * fg.grad_norm_sq(state.u)
        fx_hist += dt * fx
        fq_hist += dt * fq
        times.append(state.t)
        energies.append(dg.decay_energy(fg, grid, state.u, state.psi, cfg.k))
        if j % cfg.record_every == 0 or j == n_steps:
            record(rep.iterations, dg.relative_entropy(fg, grid, state.psi, neg_tol=math.inf),
                   fx, fq)
        if progress is not None:
            progress(j, n_steps)

    # ---- verdicts ----------------------------------------------------------
    verdicts: Dict[str, bool] = {}
    ok_energy, _ = dg.energy_inequality_check(ledger)
    verdicts["energy_inequality"] = ok_energy
    verdicts["mass_conservation"] = bool(
        max(abs(ledger.column("rho_min") - 1.0).max(),
            abs(ledger.column("rho_max") - 1.0).max()) <= 1.0e-8)
    verdicts["nonnegativity"] = bool(ledger.column("psi_min").min() >= -1.0e-8)
    decay = None
    if cfg.scenario == "decay":
        # once u has decayed, each step divides the slowest configuration
        # mode by 1 + dt g / (2 lam), so the entropy, quadratic in it, decays
        # at 2 log(1 + dt g / (2 lam)) / dt
        predicted = 2.0 * math.log1p(dt * spectral_gap(ops) / (2.0 * cfg.lam)) / dt
        decay = dg.decay_verdict(times, energies, initial_budget, g0, predicted)
        verdicts["exponential_decay"] = decay.satisfied

    exit_status = 0 if all(verdicts.values()) else 2
    result = RunResult(
        config=cfg, state=state, ledger=ledger, decay=decay,
        exit_status=exit_status, verdicts=verdicts, gamma0=g0, poincare=cp,
        B2=B2, initial_budget=initial_budget,
        decay_times=np.asarray(times), decay_energies=np.asarray(energies),
        smoothing=smooth_rep, dt=dt, n_steps=n_steps,
    )
    if out_dir is not None:
        _write_outputs(result, out_dir, fg, ops, params)
    return result


def _write_outputs(result: RunResult, out_dir: str, fg: FlowGrid,
                   ops: ConfigOperators, params: StepParams) -> None:
    import os

    os.makedirs(out_dir, exist_ok=True)
    result.ledger.write(os.path.join(out_dir, "ledger.tsv"))
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        fh.write(emit_config(result.config))
    save_checkpoint(os.path.join(out_dir, "final_state.npz"),
                    result.state, params, fg, ops)
    summary = {
        "exit_status": result.exit_status,
        "verdicts": result.verdicts,
        "gamma0": result.gamma0,
        "poincare": result.poincare,
        "kappa": KAPPA,
        "B2": result.B2,
        "initial_budget": result.initial_budget,
        "dt": result.dt,
        "n_steps": result.n_steps,
        "final_time": result.state.t,
        "final_energy": float(result.decay_energies[-1]),
        "smoothing": {
            "entropy_before": result.smoothing.entropy_before,
            "entropy_after": result.smoothing.entropy_after,
            "fisher_budget": result.smoothing.fisher_budget,
        },
    }
    if result.decay is not None:
        summary["decay"] = asdict(result.decay)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
