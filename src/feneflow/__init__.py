"""Structure-preserving solver for dilute FENE bead-spring polymers coupled
to incompressible flow, with centre-of-mass diffusion.

The discrete scheme keeps the analytical backbone exactly at machine
precision: divergence-free velocities, conserved configuration mass, a
monotone free energy, and the a-priori energy inequality, all checkable
through the diagnostics module and the bundled scenario runner.
"""

# Thread-count override must land in the environment before the numerical
# stack loads its BLAS; this is the only environment knob the package reads.
import os as _os

_threads = _os.environ.get("FENEFLOW_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .kinetic import (                                   # noqa: E402
    CutoffParams,
    DomainError,
    InternalConsistencyError,
    bakry_emery_kappa,
    entropy_F,
    entropy_FLdelta,
    fene_potential,
    maxwellian_normalizer,
    maxwellian_value,
    secant_cutoff_coefficient,
)
from .configspace import (                               # noqa: E402
    ConfigGrid,
    ConfigOperators,
    GridConstructionError,
    assemble_fp_operators,
    build_config_grid,
    grid_metadata_from_json,
    grid_metadata_json,
    ibp_residual,
    kramers_stress,
    node_gradient,
    spectral_gap,
    weighted_integral,
)
from .flowspace import (                                 # noqa: E402
    FlowGrid,
    build_flow_grid,
    convection_matrix,
    dual_norm_sq,
    poincare_constant,
    project_divergence_free,
    smooth_initial_velocity,
)
from .stepping import (                                  # noqa: E402
    ConstructionError,
    CoupledStepper,
    FixedPointReport,
    ScheduleError,
    StepParams,
    SystemState,
    dt_schedule,
    load_checkpoint,
    save_checkpoint,
    smooth_initial_density,
)
from .diagnostics import (                               # noqa: E402
    LEDGER_COLUMNS,
    CKResult,
    DecayVerdict,
    EnergyLedger,
    LsiResult,
    csiszar_kullback_check,
    decay_energy,
    decay_verdict,
    energy_inequality_check,
    fisher_q,
    fisher_x,
    free_energy,
    gamma0,
    lsi_check,
    momentum_energy_residual,
    relative_entropy,
)
from .scenarios import (                                 # noqa: E402
    SCENARIOS,
    ConfigError,
    RunConfig,
    RunResult,
    emit_config,
    parse_config,
    run_scenario,
)

__version__ = "0.1.0"
