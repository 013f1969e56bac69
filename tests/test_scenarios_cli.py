"""Configuration parsing, the scenario library and the command-line entry
points (run / check / selftest with their exit-code contract)."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feneflow import (
    SCENARIOS,
    ConfigError,
    EnergyLedger,
    RunConfig,
    assemble_fp_operators,
    build_config_grid,
    build_flow_grid,
    config_grid,
    emit_config,
    parse_config,
    run_scenario,
    spectral_gap,
)
from feneflow.cli import main


def tiny(scenario, **over):
    base = dict(scenario=scenario, T=0.05, dt=0.01, N_x=8, N_r=10, N_theta=10)
    base.update(over)
    return RunConfig(**base)


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


def test_config_round_trip():
    cfg = RunConfig(scenario="decay", T=1.5, seed=7, eps=0.05)
    again = parse_config(emit_config(cfg))
    assert again == cfg


def test_config_defaults_are_valid():
    assert RunConfig().validate() == []
    assert set(SCENARIOS) == {"equilibrium", "decay", "couette", "forced"}


def test_config_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config('{"scenario": "decay", "nux": 1.0}')
    assert any("unknown key 'nux'" in v for v in err.value.violations)


def test_config_rejects_bad_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


def test_config_aggregates_violations():
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({"scenario": "vortex", "b": 2.0, "L": 0.5}))
    text = "\n".join(err.value.violations)
    assert "unknown scenario" in text
    assert "gamma = b/2 must exceed 1" in text
    assert "cutoff level must exceed 1" in text


@pytest.mark.parametrize("raw, field", [
    ('{"N_x": "12"}', "N_x"),
    ('{"N_x": 12.5}', "N_x"),
    ('{"N_r": true}', "N_r"),
    ('{"dt": true}', "dt"),
    ('{"T": Infinity}', "T"),
    ('{"T": NaN}', "T"),
    ('{"nu": "1.0"}', "nu"),
    ('{"scenario": 3}', "scenario"),
])
def test_config_rejects_wrong_types(raw, field):
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert any(v.startswith(f"{field} must be") for v in err.value.violations)


def test_config_rejects_removed_geometry_keys():
    # the run discretizes one planar spring, whose Rouse matrix is [1]:
    # K, d and rouse are no longer keys
    with pytest.raises(ConfigError) as err:
        parse_config('{"K": 1, "d": 2}')
    assert err.value.violations == ["unknown key 'K'", "unknown key 'd'"]
    with pytest.raises(ConfigError) as err:
        parse_config('{"rouse": [[1.0]]}')
    assert err.value.violations == ["unknown key 'rouse'"]


def test_config_rejects_the_retired_clip_level_key(tmp_path, capsys):
    # the smoothing clips at L; a config.json written while clip_level was a
    # key carries "clip_level": null, which is now an unknown key (exit 2)
    with pytest.raises(ConfigError) as err:
        parse_config('{"scenario": "decay", "clip_level": null}')
    assert err.value.violations == ["unknown key 'clip_level'"]
    old = tmp_path / "config.json"
    old.write_text(json.dumps(json.loads(emit_config(tiny("decay"))) | {"clip_level": None}))
    for command in ("check", "run"):
        assert main([command, str(old)]) == 2
        assert capsys.readouterr().err == "config error: unknown key 'clip_level'\n"


def test_readme_lists_every_config_key():
    # the "Configuration keys" paragraph of the README names each RunConfig
    # field once, in backquoted comma-separated groups
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = text[text.index("`RunConfig` fields):"):text.index("The step size is")]
    listing = listing[len("`RunConfig` fields):"):]
    keys = {k.strip() for group in re.findall(r"`([^`]+)`", listing) for k in group.split(",")}
    assert keys == {f.name for f in dataclasses.fields(RunConfig)}


def _json_containers(inner):
    """Lists and objects whose elements are drawn from ``inner``."""
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=5),
    _json_containers,
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@example({"N_x": [4, [5.0, None]], "dt": [[]]})
@example({"b": {"a": {"b": 3.0}}, "C0": {"": [1]}})
@given(st.dictionaries(st.sampled_from(sorted(RunConfig.__dataclass_fields__)), JSON_VALUES,
                       min_size=1, max_size=3))
def test_malformed_values_give_config_errors_only(raw):
    # any JSON value under any key is either accepted or rejected with
    # ConfigError; no other exception escapes validation
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            cfg = parse_config(json.dumps(raw))
        except ConfigError:
            return
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if f.type == "int":
            assert isinstance(val, int) and not isinstance(val, bool)
        elif f.type in ("float", "Optional[float]") and val is not None:
            assert not isinstance(val, bool) and math.isfinite(val)


def test_config_requires_a_step_rule():
    with pytest.raises(ConfigError, match="dt / C0"):
        parse_config(json.dumps({"scenario": "decay", "dt": None}))


def test_config_step_cap_warns_then_rejects():
    # dt above C0/(L log L) is a schedule warning, which fails strict validation
    raw = {"scenario": "decay", "dt": 0.5, "C0": 1.0, "L": 5.0}
    notes = parse_config(json.dumps(raw)).schedule()[2]
    assert len(notes) == 1 and "step rule" in notes[0]
    with pytest.raises(ConfigError, match="step rule"):
        parse_config(json.dumps(raw), strict=True)


SCHEDULE_WARNED = {"scenario": "decay", "T": 0.025, "dt": 0.01, "C0": 0.01,
                   "N_x": 4, "N_r": 8, "N_theta": 8}


def test_strict_rejects_a_dt_that_does_not_divide_T():
    raw = dict(SCHEDULE_WARNED, C0=None)
    with pytest.raises(ConfigError, match="does not divide") as info:
        parse_config(json.dumps(raw), strict=True)
    assert len(info.value.violations) == 1
    assert parse_config(json.dumps(raw)).schedule() == (
        0.01, 2, ["dt = 0.01 does not divide T = 0.025; running 2 steps to t = 0.02"])


def test_validation_emits_no_warning_and_a_run_emits_each_once():
    # an over-cap dt that does not divide T: parse_config only validates, so
    # an "error" filter raises nothing there; run_scenario emits each once
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(json.dumps(SCHEDULE_WARNED))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = parse_config(json.dumps(SCHEDULE_WARNED))
        assert caught == []
        run_scenario(cfg)
    assert [str(w.message) for w in caught] == cfg.schedule()[2]
    assert len(caught) == 2


def test_config_reports_both_nonpositive_step_rules():
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps({"scenario": "decay", "dt": -1, "C0": -1}))
    assert info.value.violations == ["dt must be positive, got -1", "C0 must be positive, got -1"]


def test_config_resolves_dt_from_c0():
    cfg = tiny("equilibrium", dt=None, C0=0.5, L=5.0)
    result = run_scenario(cfg)
    cap = 0.5 / (5.0 * np.log(5.0))
    assert result.dt <= cap
    assert result.n_steps * result.dt == pytest.approx(cfg.T, abs=1e-15)


# --------------------------------------------------------------------------
# scenarios
# --------------------------------------------------------------------------


def test_equilibrium_run_is_stationary():
    result = run_scenario(tiny("equilibrium", T=0.1))
    assert result.exit_status == 0
    assert all(result.verdicts.values())
    led = result.ledger
    assert np.abs(led.column("free_energy")).max() <= 1e-12
    assert np.abs(led.column("kinetic")).max() <= 1e-14
    assert np.abs(led.column("rho_min") - 1.0).max() <= 1e-10
    # a handful of fixed-point sweeps at most (rounding noise only)
    assert led.column("fp_iters")[1:].max() <= 4


def test_decay_run_satisfies_all_verdicts():
    result = run_scenario(tiny("decay", T=0.1, N_x=10, N_r=12, N_theta=12))
    assert result.exit_status == 0
    assert result.verdicts["energy_inequality"]
    assert result.verdicts["mass_conservation"]
    assert result.verdicts["nonnegativity"]
    assert result.verdicts["exponential_decay"]
    # energy history is recorded densely even when the ledger is thinned
    assert result.decay_energies.size == result.n_steps + 1
    assert result.decay_energies[-1] < result.decay_energies[0]


def test_driven_scenarios_run_clean():
    for name in ("couette", "forced"):
        result = run_scenario(tiny(name, force_amplitude=0.5))
        assert result.exit_status == 0, name
        assert result.verdicts["mass_conservation"], name
        # forcing puts energy in: the flow actually moves
        assert result.ledger.column("kinetic")[-1] > 0.0, name


def test_record_every_thins_the_ledger():
    cfg = tiny("equilibrium", T=0.1, record_every=4)
    result = run_scenario(cfg)
    # rows: t=0, every 4th step, and the final step
    assert len(result.ledger) == 2 + result.n_steps // 4
    assert result.ledger.column("t")[-1] == pytest.approx(cfg.T)


def test_same_seed_reproduces_the_ledger_exactly():
    cfg = tiny("forced", seed=11)
    first = run_scenario(cfg).ledger.to_text()
    second = run_scenario(cfg).ledger.to_text()
    assert first == second


def test_different_seed_changes_the_forced_run():
    a = run_scenario(tiny("forced", seed=0)).ledger.column("kinetic")[-1]
    b = run_scenario(tiny("forced", seed=1)).ledger.column("kinetic")[-1]
    assert a != b


def test_run_scenario_rejects_invalid_config():
    with pytest.raises(ConfigError):
        run_scenario(tiny("equilibrium", b=2.0))


def test_smoothing_report_attached():
    result = run_scenario(tiny("decay"))
    rep = result.smoothing
    assert rep.entropy_after <= rep.entropy_before + 1e-8
    assert rep.fisher_budget <= rep.entropy_before + 1e-8
    assert rep.min_value >= -1e-8


@pytest.mark.parametrize("dip,exit_status", [(-5e-9, 0), (-5e-8, 2)])
def test_a_density_dip_is_judged_by_the_nonnegativity_verdict_alone(
        dip, exit_status, tmp_path, monkeypatch):
    # every step ends with one density value at `dip`, its old value moved
    # onto its angular neighbour (same radius, same weight) so that no mass
    # moves; the ledger terms clamp the dip, and the run completes and
    # writes its ledger whichever way the nonnegativity verdict (psi_min >=
    # -1e-8) goes
    import feneflow.stepping as stepping

    step = stepping.CoupledStepper.coupled_step

    def dipping(self, state, f=None):
        new, report = step(self, state, f)
        new.psi[0, -2] += new.psi[0, -1] - dip
        new.psi[0, -1] = dip
        return new, report

    monkeypatch.setattr(stepping.CoupledStepper, "coupled_step", dipping)
    out = tmp_path / "out"
    result = run_scenario(tiny("decay"), out_dir=str(out))
    assert result.exit_status == exit_status
    assert result.verdicts.pop("nonnegativity") == (exit_status == 0)
    assert all(result.verdicts.values()), result.verdicts
    assert result.ledger.column("psi_min").min() == dip
    assert (out / "ledger.tsv").read_text() == result.ledger.to_text()


# --------------------------------------------------------------------------
# output directory
# --------------------------------------------------------------------------


def test_run_writes_the_output_contract(tmp_path):
    out = tmp_path / "out"
    result = run_scenario(tiny("decay"), out_dir=str(out))
    for name in ("ledger.tsv", "config.json", "final_state.npz", "summary.json"):
        assert (out / name).exists(), name
    text = (out / "ledger.tsv").read_text()
    assert EnergyLedger.from_text(text).to_text() == text
    summary = json.loads((out / "summary.json").read_text())
    assert summary["exit_status"] == result.exit_status
    assert set(summary["verdicts"]) == set(result.verdicts)
    cfg_again = parse_config((out / "config.json").read_text())
    assert cfg_again == result.config


def test_summary_records_the_curvature_and_the_decay_rate(tmp_path):
    # kappa = 1 for every FENE spring, and gamma0 is the smaller of the
    # viscous rate nu / C_P^2 and the configuration rate kappa / (2 lam),
    # bitwise as the run forms it from the recorded Poincare constant; the
    # decay block predicts the scheme's late rate 2 log(1 + dt g / (2 lam)) / dt
    # from the spectral gap g of the configuration stiffness
    cfg = tiny("decay")
    run_scenario(cfg, out_dir=str(tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["kappa"] == 1.0
    cp = summary["poincare"]
    assert summary["gamma0"] == min(cfg.nu / (cp * cp), 1.0 / (2.0 * cfg.lam))
    g = spectral_gap(assemble_fp_operators(config_grid(cfg)))
    assert summary["decay"]["predicted_rate"] \
        == 2.0 * math.log1p(cfg.dt * g / (2.0 * cfg.lam)) / cfg.dt


def test_emit_ledger_round_trip(tmp_path):
    result = run_scenario(tiny("equilibrium"))
    path = tmp_path / "ledger.tsv"
    result.ledger.write(str(path))
    reloaded = EnergyLedger.read(str(path))
    assert reloaded.to_text() == result.ledger.to_text()


def test_repeat_runs_write_identical_summaries(tmp_path):
    cfg = tiny("decay")
    for name in ("a", "b"):
        run_scenario(cfg, out_dir=str(tmp_path / name))
    assert (tmp_path / "a" / "summary.json").read_bytes() \
        == (tmp_path / "b" / "summary.json").read_bytes()


def test_run_builds_the_eigenbasis_once(monkeypatch):
    # the configuration eigenbasis is built once, with the operators, and
    # shared by the stepper and the initial-density smoothing; its one
    # eigensolve is batched over the N_theta // 2 + 1 radial blocks and no
    # matrix handed to it is larger than N_r x N_r
    import feneflow.scenarios as scenarios

    builds, calls = [], []
    assemble, eigh = scenarios.assemble_fp_operators, np.linalg.eigh

    def counting_assemble(grid):
        builds.append(grid.n_nodes)
        return assemble(grid)

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scenarios, "assemble_fp_operators", counting_assemble)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    run_scenario(tiny("decay"))
    assert builds == [100]
    assert calls == [(6, 10, 10)]


def test_run_evaluates_each_observable_once_per_state(monkeypatch):
    # 5 steps recorded every step: smoothing takes the raw entropy (which is
    # also the data majorant's) and the smoothed entropy and Fisher terms,
    # which ledger row 0 reuses; then each of the 5 stepped states gets one
    # entropy and one Fisher evaluation, shared by the history sums and the
    # ledger row
    import feneflow.diagnostics as dg

    counts = {}

    def counting(name):
        fn = getattr(dg, name)

        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fisher_x", "fisher_q", "relative_entropy"):
        monkeypatch.setattr(dg, name, counting(name))
    result = run_scenario(tiny("decay", record_every=1))
    assert result.n_steps == 5
    assert counts == {"fisher_x": 6, "fisher_q": 6, "relative_entropy": 7}


def test_secant_takes_the_flat_path_exactly_at_equilibrium(monkeypatch):
    # the equilibrium density stays flat at 1 to rounding, so every secant
    # call of an equilibrium run takes the flat path, its one edge_pairs
    # pass being the np.add of the midpoints; a decay run's density is not
    # flat, and every call of it differences [F^L_delta]' along the edges
    # (the np.subtract of psi itself comes with the sweep's shared pass)
    import feneflow.configspace as configspace
    import feneflow.stepping as stepping

    ops, passes = [], []
    edge_pairs, secant = configspace.ConfigGrid.edge_pairs, stepping.secant_cutoff_coefficient

    def recording_pairs(self, op, *args, **kwargs):
        ops.append(op)
        return edge_pairs(self, op, *args, **kwargs)

    def recording_secant(*args):
        before = len(ops)
        out = secant(*args)
        passes.append(ops[before:])
        return out

    monkeypatch.setattr(configspace.ConfigGrid, "edge_pairs", recording_pairs)
    monkeypatch.setattr(stepping, "secant_cutoff_coefficient", recording_secant)
    for scenario, flat in (("equilibrium", True), ("decay", False)):
        passes.clear()
        result = run_scenario(tiny(scenario, N_x=6, T=0.03))
        assert result.n_steps == 3 and len(passes) >= 3
        if flat:
            assert all(p == [np.add] for p in passes)
        else:
            assert all(np.subtract in p for p in passes)


def test_equilibrium_run_keeps_the_smoothed_density_bitwise(monkeypatch):
    # each density solve of an equilibrium run starts from a density whose
    # residual already meets the stop rule, and returns that start as it
    # is: the density is the smoothed one, bit for bit, after every step,
    # and every step takes one sweep and no preconditioner
    import feneflow.scenarios as scenarios
    import feneflow.stepping as stepping

    smoothed, densities, preconditions = [], [], []
    smooth, step = scenarios.smooth_initial_density, stepping.CoupledStepper.coupled_step
    precondition = stepping._DensitySystem.precondition

    def keeping(*args):
        smoothed.append(smooth(*args))
        return smoothed[-1]

    def stepping_on(self, *args):
        state, report = step(self, *args)
        densities.append(state.psi)
        return state, report

    monkeypatch.setattr(scenarios, "smooth_initial_density", keeping)
    monkeypatch.setattr(stepping.CoupledStepper, "coupled_step", stepping_on)
    monkeypatch.setattr(stepping._DensitySystem, "precondition",
                        lambda *args: preconditions.append(1) or precondition(*args))
    result = run_scenario(tiny("equilibrium"))
    [(psi0, _)] = smoothed
    assert len(densities) == result.n_steps == 5
    assert all(psi.tobytes() == psi0.tobytes() for psi in densities)
    assert list(result.ledger.column("fp_iters")[1:]) == [1] * 5
    # the smoothing's one exact solve is the only preconditioner applied
    assert len(preconditions) == 1


def test_ledger_row_zero_is_the_smoothing_evaluation(monkeypatch):
    # row 0 holds the smoothed density's entropy and Fisher terms as the
    # smoothing step computed them, bit for bit equal to evaluating them
    # afresh on the smoothed density
    import feneflow.diagnostics as dg
    import feneflow.scenarios as scenarios

    smoothed = []
    smooth = scenarios.smooth_initial_density

    def keeping(*args):
        smoothed.append(smooth(*args))
        return smoothed[-1]

    monkeypatch.setattr(scenarios, "smooth_initial_density", keeping)
    cfg = tiny("decay")
    result = run_scenario(cfg)
    [(psi0, rep)] = smoothed
    assert rep is result.smoothing
    fg = build_flow_grid(cfg.N_x, side=cfg.side)
    grid = build_config_grid(cfg.b, cfg.N_r, cfg.N_theta)
    row = result.ledger.rows[0]
    got = (row["entropy"], row["fisher_x"], row["fisher_q"])
    assert got == (rep.entropy_after, rep.fisher_x, rep.fisher_q)
    assert got == (dg.relative_entropy(fg, grid, psi0), dg.fisher_x(fg, grid, psi0),
                   dg.fisher_q(fg, grid, psi0))
    assert min(got) > 0.0


def test_run_clips_the_initial_density_at_L(monkeypatch):
    import feneflow.scenarios as scenarios

    clips = []
    smooth = scenarios.smooth_initial_density

    def keeping(flow, ops, psi0, dt, clip_level):
        clips.append(clip_level)
        return smooth(flow, ops, psi0, dt, clip_level)

    monkeypatch.setattr(scenarios, "smooth_initial_density", keeping)
    cfg = tiny("decay", L=7.5)
    run_scenario(cfg)
    assert clips == [cfg.L]


# --------------------------------------------------------------------------
# command line
# --------------------------------------------------------------------------


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(emit_config(cfg))
    return str(path)


def test_cli_check_exit_codes(tmp_path, capsys):
    good = write_config(tmp_path, tiny("decay"))
    assert main(["check", good]) == 0
    assert "config ok" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "decay", "b": 2.0}')
    assert main(["check", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    assert main(["check", str(tmp_path / "missing.json")]) == 1

    # bytes that are not UTF-8 text are a config error, not an execution error
    bad.write_bytes(b"\xff\xfe{")
    for command in ("check", "run"):
        assert main([command, str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    # a negative --seed is rejected by the parser with exit 2, for run and
    # selftest alike, before any file is read or any check runs
    for argv in (["run", good, "--seed", "-1"], ["selftest", "--seed", "-1"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "argument --seed: seed must be a nonnegative integer, got -1" in capsys.readouterr().err

    for text in ('{"N_x": "12"}', '{"N_x": 12.5}'):
        bad.write_text(text)
        assert main(["check", str(bad)]) == 2
        assert "config error: N_x must be an integer" in capsys.readouterr().err

    # a step count that overflows is a config error for check and run alike
    bad.write_text('{"dt": 5e-324, "T": 1.0}')
    for command in ("check", "run"):
        assert main([command, str(bad)]) == 2
        assert "config error: dt = 5e-324 is too small" in capsys.readouterr().err

    # so is a step schedule that cannot be met: L below e, or a dt below
    # the schedule's floor
    for text, message in (
        ('{"dt": null, "C0": 1.0, "L": 2.0, "T": 0.02, "N_x": 4, "N_r": 8, "N_theta": 8}',
         "the step rule needs L > e"),
        ('{"dt": null, "C0": 1e-12, "L": 5.0, "T": 1.0, "N_x": 4, "N_r": 8, "N_theta": 8}',
         "below the floor"),
    ):
        bad.write_text(text)
        for command in ("check", "run"):
            assert main([command, str(bad)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and message in err


def test_cli_rejects_an_amplitude_outside_the_unit_interval(tmp_path, capsys):
    # the decay density 1 + a q_x / sqrt(b) is nonnegative on the disc only
    # for |a| <= 1, so a larger amplitude is a config error (exit 2) for
    # check and run alike, not an execution error (exit 1) of the run
    bad = tmp_path / "bad.json"
    for amplitude in (1.5, -3):
        bad.write_text(json.dumps({"scenario": "decay", "amplitude": amplitude, "T": 0.02,
                                   "dt": 0.01, "N_x": 4, "N_r": 8, "N_theta": 8}))
        for command in ("check", "run"):
            assert main([command, str(bad)]) == 2
            assert "config error: amplitude" in capsys.readouterr().err
    for amplitude in (1.0, -1.0):
        assert RunConfig(amplitude=amplitude).validate() == []


def test_cli_rejects_an_L_that_clips_the_decay_datum(tmp_path, capsys):
    # the decay density reaches 1 + |a| on the disc, and the raw density is
    # clipped at L; below 1 + |a| the clip removes configuration mass, so
    # the run's mass verdict fails (it conserves 0.98956 at L = 1.5).  That
    # is a config error for check and run alike
    bad = tmp_path / "bad.json"
    for amplitude, L in ((1.0, 1.5), (1.0, 1.9), (-0.5, 1.4)):
        bad.write_text(json.dumps({"scenario": "decay", "amplitude": amplitude, "L": L,
                                   "T": 0.02, "dt": 0.01, "N_x": 4, "N_r": 8, "N_theta": 8}))
        for command in ("check", "run"):
            assert main([command, str(bad)]) == 2
            err = capsys.readouterr().err
            assert "config error: decay needs L >= 1 + |amplitude|" in err
            assert f"got L = {L}" in err
    assert RunConfig(amplitude=1.0, L=2.0).validate() == []
    # the other scenarios start at psi = 1 < L and ignore the amplitude
    assert RunConfig(scenario="couette", amplitude=1.0, L=1.5).validate() == []


def test_cli_rejects_a_b_the_configuration_grid_cannot_build(tmp_path, capsys):
    # b = 3000 passes every rule of RunConfig.validate, but its Gauss-Jacobi
    # weights overflow, so build_config_grid raises ConstructionError;
    # check builds the grid too, and both commands report a config error
    # (exit 2), as run_scenario raises ConfigError
    config = {"scenario": "decay", "b": 3000, "T": 0.02, "dt": 0.01,
              "N_x": 4, "N_r": 8, "N_theta": 8}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    for command in ("check", "run"):
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error: b = 3000 gives no configuration grid" in err
    with pytest.raises(ConfigError, match="normalized Maxwellian mass defect"):
        run_scenario(RunConfig(**config))


def test_cli_run_passes_and_writes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny("equilibrium", T=0.05))
    out = tmp_path / "runout"
    rc = main(["run", cfg_path, "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "PASS  energy_inequality" in captured.out
    assert (out / "ledger.tsv").exists()


def test_cli_run_seed_override(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny("forced", seed=0))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", cfg_path, "--seed", "5", "--out-dir", str(out1)]) == 0
    assert main(["run", cfg_path, "--seed", "5", "--out-dir", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "ledger.tsv").read_text() == (out2 / "ledger.tsv").read_text()
    cfg = parse_config((out1 / "config.json").read_text())
    assert cfg.seed == 5


def test_cli_run_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "warp"}')
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_execution_errors_exit_one(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, tiny("decay"))
    import feneflow.cli as cli_mod

    def boom(*a, **kw):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("feneflow.scenarios.run_scenario", boom)
    assert main(["run", cfg_path]) == 1
    assert "execution error" in capsys.readouterr().err
    assert cli_mod is not None


def test_cli_selftest(tmp_path, capsys):
    out = tmp_path / "st"
    assert main(["selftest", "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert "selftest: 9/9 passed" in captured.out
    report = json.loads((out / "selftest.json").read_text())
    assert len(report) == 9 and all(entry["ok"] for entry in report)


def test_cli_ends_quietly_when_stdout_is_closed():
    # `feneflow selftest | head -1`: the reader goes after the first line,
    # and the next print meets a broken pipe; the command ends with 1 and
    # writes nothing to stderr.  Unbuffered, each check's line is written
    # as it is printed, so the later checks write to the closed pipe.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), FENEFLOW_THREADS="1",
               PYTHONUNBUFFERED="1")
    with subprocess.Popen([sys.executable, "-m", "feneflow.cli", "selftest"], cwd=root,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.communicate(timeout=300)[1]
    assert first.startswith(b"PASS  maxwellian normalizer")
    assert proc.returncode == 1
    assert err == b""


def test_cli_prints_each_warning_once(tmp_path, capsys):
    # a dt above the step rule's cap that does not divide T: check and run
    # each print both warnings once, one line each and no source line
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), FENEFLOW_THREADS="1")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "decay", "T": 0.025, "dt": 0.01, "C0": 0.01,
                                "N_x": 4, "N_r": 8, "N_theta": 8}))
    expected = ["warning: dt = 0.01 does not divide T = 0.025; running 2 steps to t = 0.02",
                "warning: dt = 0.01 exceeds the step rule C0/(L log L) = 0.00124267"]
    for command in ("check", "run"):
        proc = subprocess.run([sys.executable, "-m", "feneflow.cli", command, str(path)],
                              cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == expected
    # the filter and the printer are main's alone
    before = (warnings.filters[:], warnings.showwarning)
    assert main(["check", str(path)]) == 0
    capsys.readouterr()
    assert (warnings.filters, warnings.showwarning) == before


@pytest.mark.parametrize("over", [{"T": 0.02, "dt": 0.01}, {"T": 0.025, "dt": 0.01},
                                  {"T": 0.02, "dt": None, "C0": 0.5}])
def test_cli_check_prints_the_schedule_that_run_takes(tmp_path, capsys, over):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict({"scenario": "decay", "N_x": 4, "N_r": 8, "N_theta": 8},
                                    **over)))
    assert main(["check", str(path)]) == 0
    match = re.search(r"config, (\d+) steps of dt=(\S+) to t=", capsys.readouterr().out)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (int(match[1]), float(match[2])) == (summary["n_steps"], summary["dt"])


def test_selftest_normalizer_check_integrates_the_profile(monkeypatch):
    # the check integrates the normalized profile by a quadrature of its own,
    # so a profile that the closed-form Z does not normalize fails it
    import feneflow
    from feneflow.cli import _selftest_checks

    assert dict(_selftest_checks(0))["maxwellian normalizer"]()[0]
    monkeypatch.setattr(feneflow, "maxwellian_value",
                        lambda r, b: (1.0 - r * r / b) ** (b / 2.0 + 1.0)
                        / feneflow.maxwellian_normalizer(b))
    ok, detail = dict(_selftest_checks(0))["maxwellian normalizer"]()
    assert not ok and detail.startswith("mass=")


def test_cli_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_the_package_republishes_each_module_all():
    # each module's __all__ is the one list of its public names: feneflow
    # re-exports exactly their union, and no name is listed twice
    import feneflow
    from feneflow import configspace, diagnostics, flowspace, kinetic, scenarios, stepping

    modules = (kinetic, configspace, flowspace, stepping, diagnostics, scenarios)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    for module in modules:
        for name in module.__all__:
            assert getattr(feneflow, name) is getattr(module, name)
    public = {name for name, value in vars(feneflow).items()
              if not name.startswith("_") and not isinstance(value, type(feneflow))}
    assert public == set(names)
