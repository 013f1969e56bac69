"""Shared fixtures: small grids for unit tests and the expensive reference
runs reused across the acceptance criteria (session scoped, computed once)."""

import numpy as np
import pytest

from feneflow import (
    CutoffParams,
    RunConfig,
    StepParams,
    assemble_fp_operators,
    build_config_grid,
    build_flow_grid,
    run_scenario,
)


@pytest.fixture(scope="session")
def grid16():
    return build_config_grid(4.0, N_r=16, N_theta=16)


@pytest.fixture(scope="session")
def grid32():
    return build_config_grid(4.0, N_r=32, N_theta=32)


@pytest.fixture(scope="session")
def grid64():
    return build_config_grid(4.0, N_r=64, N_theta=64)


@pytest.fixture(scope="session")
def flow12():
    return build_flow_grid(12)


@pytest.fixture(scope="session")
def ops16(grid16):
    return assemble_fp_operators(grid16)


@pytest.fixture(scope="session")
def params16():
    return StepParams(dt=0.01, nu=1.0, k=1.0, lam=0.5, eps=0.1,
                      cutoff=CutoffParams(delta=1.0e-4, L=5.0))


def decay_config(**overrides) -> RunConfig:
    base = dict(scenario="decay", T=2.0, dt=0.01, N_x=20, N_r=20, N_theta=20,
                nu=1.0, k=1.0, lam=0.5, eps=0.1, L=5.0, delta=1.0e-4)
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def reference_decay():
    """The reference relaxation run: T=2 at the reference parameter set."""
    return run_scenario(decay_config())


@pytest.fixture(scope="session")
def decay_eps_variants():
    """Same run at the two alternative centre-of-mass diffusion levels."""
    return {eps: run_scenario(decay_config(eps=eps)) for eps in (0.05, 0.2)}


@pytest.fixture(scope="session")
def decay_delta_pair():
    """Shorter relaxation runs differing only in the regularization level."""
    return {delta: run_scenario(decay_config(T=0.5, N_x=16, N_r=16, N_theta=16,
                                             delta=delta))
            for delta in (1.0e-3, 1.0e-4)}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)
