"""Matrix-free 2D unsteady Stokes solver with overlapping-strip time stepping."""

import os

# The solver runs in one thread.  A threaded BLAS splits a long dot product
# and sums its parts in another order, so a run's bytes would depend on the
# core count; each count is set to one before numpy loads the library,
# unless it is already set.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from .grid import (
    DecomposedVelocity,
    GridMismatchError,
    GridSpec,
    InvalidGridError,
    PressureField,
    VelocityField,
    deflate_pressure,
    dot_decomposed,
    dot_pressure,
    dot_velocity,
    make_grid,
    norm_decomposed,
    norm_pressure,
    norm_velocity,
    pressure_mean,
)
from .linsolve import NumericalBreakdownError, SolveConfig, SolveReport, cg_solve
from .operators import (
    MaskOperator,
    SizeGuardError,
    ViscousOperator,
    apply_block,
    apply_coupling,
    apply_coupling_lower,
    apply_coupling_upper,
    apply_divergence,
    apply_gradient,
    apply_mask,
    apply_viscous,
    assemble_dense,
    decomposed_to_vector,
    pressure_to_vector,
    spectral_lower_bound,
    vector_to_decomposed,
    vector_to_pressure,
    vector_to_velocity,
    velocity_to_vector,
)
from .partition import InvalidPartitionError, Partition, build_strips, decompose, recompose
from .schemes import (
    RunResult,
    SchemeConfig,
    StepReport,
    UnconvergedSolveError,
    blend_pressures,
    dd_backward_sweep,
    dd_forward_sweep,
    dd_pressure_substeps,
    pressure_projection,
    run,
    step_decomposed,
    step_monolithic,
    viscous_step_monolithic,
)
from .verify import (
    CheckResult,
    ManufacturedCase,
    StabilityReport,
    check_stability,
    error_norms,
    exact_forcing,
    exact_pressure,
    exact_velocity,
    forcing_of,
    make_rng,
    manufactured,
    oracle_step,
    random_decomposed,
    random_pressure,
    random_velocity,
    verification_checks,
)

__version__ = "0.1.0"
