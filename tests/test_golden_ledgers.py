"""Golden-ledger guard: the four scenarios on a small grid reproduce the
ledgers recorded in ``tests/golden``.

A refactor of the scheme should leave ``ledger.tsv`` byte-identical; this
test checks every column to ``1e-12`` of the column's largest magnitude
(raised to ``1e-6``, below which a column holds round-off) and the
fixed-point sweep counts exactly, and that no density solve falls back to
the direct per-mode solve.
"""

from pathlib import Path

import numpy as np
import pytest

from feneflow import SCENARIOS, EnergyLedger, RunConfig, run_scenario, stepping
from feneflow.diagnostics import LEDGER_COLUMNS

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1.0e-12
SCALE_FLOOR = 1.0e-6


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_small_scenario_matches_golden_ledger(scenario, monkeypatch):
    fallbacks = []
    kron_solve = stepping._kron_solve
    monkeypatch.setattr(stepping, "_kron_solve",
                        lambda *args: fallbacks.append(args) or kron_solve(*args))
    cfg = RunConfig(scenario=scenario, N_x=8, N_r=10, N_theta=10, dt=0.01, T=0.05)
    got = run_scenario(cfg).ledger
    assert fallbacks == []
    want = EnergyLedger.read(str(GOLDEN / f"{scenario}.tsv"))
    assert len(got.rows) == len(want.rows)
    for name in LEDGER_COLUMNS:
        have, ref = got.column(name), want.column(name)
        if name == "fp_iters":
            np.testing.assert_array_equal(have, ref)
            continue
        scale = max(float(np.abs(ref).max()), SCALE_FLOOR)
        err = float(np.abs(have - ref).max())
        assert err <= RTOL * scale, f"{scenario}: column {name} deviates by {err:.3e}"
