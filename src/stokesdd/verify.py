"""Verification tools: exact solution, error norms, stability monitors, oracles.

The exact solution is built from the stream function

    psi = amplitude * sin^2(pi x1 / l1) * sin^2(pi x2 / l2) * exp(-decay t)

so that u = (d psi / d x2, -d psi / d x1) is divergence free and vanishes,
together with its normal derivatives, on the whole boundary.  The pressure is
cos(pi x1 / l1) * cos(pi x2 / l2) * exp(-decay t), which has zero mean.  The
forcing below is the closed form of du/dt + grad p - nu * Laplace(u); the
derivation was done symbolically and a test re-derives it with sympy, so the
expressions here are frozen but machine-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import (
    DecomposedVelocity,
    GridSpec,
    PressureField,
    VelocityField,
    norm_velocity,
)
from .linsolve import SolveConfig
from .operators import (
    assemble_dense,
    decomposed_to_vector,
    vector_to_decomposed,
    vector_to_velocity,
    velocity_to_vector,
)
from .schemes import SchemeConfig, StepReport, energy_estimate, run


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; doubles come from the 53 high bits per draw.

    PCG64 is a published generator with fixed constants, so the stream is
    reproducible from the seed alone, independent of platform.
    """
    return np.random.Generator(np.random.PCG64(seed))


def random_velocity(grid: GridSpec, rng: np.random.Generator, scale: float = 1.0) -> VelocityField:
    """Uniform(-scale, scale) interior values, drawn row-major, u1 then u2."""
    return random_decomposed(grid, 1, rng, scale).components[0]


def random_pressure(grid: GridSpec, rng: np.random.Generator, scale: float = 1.0) -> PressureField:
    p = PressureField.zeros(grid)
    p.p[1:, 1:] = rng.uniform(-scale, scale, (grid.n1, grid.n2))
    return p


def random_decomposed(grid: GridSpec, m: int, rng: np.random.Generator, scale: float = 1.0) -> DecomposedVelocity:
    """m random velocities, strip after strip, from one draw."""
    U = np.zeros((m, 2) + grid.shape)
    U[:, :, 1:-1, 1:-1] = rng.uniform(-scale, scale, (m, 2, grid.n1 - 1, grid.n2 - 1))
    return DecomposedVelocity.wrap(grid, U)


@dataclass(frozen=True)
class ManufacturedCase:
    """Parameters of the exact solution: stream amplitude, decay rate, viscosity."""

    amplitude: float = 1.0
    decay: float = 1.0
    nu: float = 1.0


def _trig(case: ManufacturedCase, grid: GridSpec, t: float):
    a = math.pi / grid.l1
    b = math.pi / grid.l2
    x = grid.coords1()[:, None]
    y = grid.coords2()[None, :]
    try:
        decay = math.exp(-case.decay * t)
    except OverflowError:  # the run then stops at its first non-finite stage
        decay = math.inf
    return a, b, x, y, decay


def exact_velocity(case: ManufacturedCase, grid: GridSpec, t: float) -> VelocityField:
    a, b, x, y, decay = _trig(case, grid, t)
    amp = case.amplitude
    data = np.empty((2,) + grid.shape)
    np.multiply(amp * b * np.sin(a * x) ** 2, np.sin(2 * b * y), out=data[0])
    np.multiply(-amp * a * np.sin(2 * a * x), np.sin(b * y) ** 2, out=data[1])
    data *= decay
    return VelocityField.wrap(grid, data)


def exact_pressure(case: ManufacturedCase, grid: GridSpec, t: float) -> PressureField:
    a, b, x, y, decay = _trig(case, grid, t)
    return PressureField.wrap(grid, np.cos(a * x) * np.cos(b * y) * decay)


def exact_forcing(case: ManufacturedCase, grid: GridSpec, t: float) -> VelocityField:
    a, b, x, y, decay = _trig(case, grid, t)
    amp, lam, nu = case.amplitude, case.decay, case.nu
    sin_ax2 = np.sin(a * x) ** 2
    sin_by2 = np.sin(b * y) ** 2
    data = np.empty((2,) + grid.shape)
    np.multiply(decay, (
        -lam * amp * b * sin_ax2 * np.sin(2 * b * y)
        - a * np.sin(a * x) * np.cos(b * y)
        - nu * (2 * a**2 * amp * b * np.cos(2 * a * x) * np.sin(2 * b * y) - 4 * amp * b**3 * sin_ax2 * np.sin(2 * b * y))
    ), out=data[0])
    np.multiply(decay, (
        lam * amp * a * np.sin(2 * a * x) * sin_by2
        - b * np.cos(a * x) * np.sin(b * y)
        - nu * (4 * amp * a**3 * np.sin(2 * a * x) * sin_by2 - 2 * amp * a * b**2 * np.sin(2 * a * x) * np.cos(2 * b * y))
    ), out=data[1])
    return VelocityField.wrap(grid, data)


def manufactured(case: ManufacturedCase, grid: GridSpec, t: float) -> tuple[VelocityField, PressureField, VelocityField]:
    """Exact velocity, pressure and forcing sampled on the grid at time t."""
    return exact_velocity(case, grid, t), exact_pressure(case, grid, t), exact_forcing(case, grid, t)


def forcing_of(case: ManufacturedCase, grid: GridSpec) -> Callable[[float], VelocityField]:
    """Forcing closure suitable for SchemeConfig.forcing."""
    return lambda t: exact_forcing(case, grid, t)


def error_norms(numeric: VelocityField, exact: VelocityField) -> float:
    """Velocity error in the discrete energy norm."""
    return norm_velocity(VelocityField.wrap(numeric.grid, numeric.data - exact.data))


# -- stability monitors

REL_SLACK = 1e-10


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of replaying the per-step energy estimates over a run."""

    passed: bool
    worst_margin: float
    margins: list[float]
    cumulative_margins: list[float]
    monotone_ok: bool
    message: str = ""


def check_stability(
    history: Sequence[StepReport],
    tau: float,
    mode: str,
    nu_delta_h: float | None = None,
) -> StabilityReport:
    """Replay the per-step bounds over a report series.

    Each step must satisfy the scheme's energy estimate (see
    schemes.energy_estimate, which needs nu_delta_h in monolithic mode), and
    so must the cumulative unrolling of it from the first state.  Steps
    without forcing must also be plainly non-increasing, up to a factor
    1 + REL_SLACK.  Margins are normalized by the bound; a step passes when
    its margin is at least -REL_SLACK.
    """
    growth, weight = energy_estimate(mode, tau, nu_delta_h)
    margins: list[float] = []
    cumulative: list[float] = []
    monotone_ok = True
    message = ""
    running = history[0].norm_state**2 if history else 0.0
    for rep in history:
        bound = growth * rep.norm_state**2 + weight * rep.norm_forcing**2
        scale = max(bound, 1e-300)
        margins.append((bound - rep.norm_end**2) / scale)
        if rep.norm_forcing == 0.0 and rep.norm_end > rep.norm_state * (1.0 + REL_SLACK):
            monotone_ok = False
            message = f"norm grew without forcing at step {rep.step}"

        running = growth * running + weight * rep.norm_forcing**2
        cscale = max(running, 1e-300)
        cumulative.append((running - rep.norm_end**2) / cscale)

    worst = min(margins + cumulative, default=0.0)
    passed = monotone_ok and worst >= -REL_SLACK
    if not passed and not message:
        message = f"worst normalized margin {worst:.3e} below -{REL_SLACK:.1e}"
    return StabilityReport(
        passed=passed,
        worst_margin=worst,
        margins=margins,
        cumulative_margins=cumulative,
        monotone_ok=monotone_ok,
        message=message,
    )


# -- dense single-step oracle

def _dense_project(mat: np.ndarray, x: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    # least squares pressure: minimizes ||mat p - x / tau||, correction tau mat p
    p, *_ = np.linalg.lstsq(mat, x / tau, rcond=None)
    return x - tau * (mat @ p), p


def oracle_step(
    state: VelocityField | DecomposedVelocity, cfg: SchemeConfig, t: float = 0.0
) -> VelocityField | DecomposedVelocity:
    """One step of the configured scheme using dense linear algebra only.

    Assembles every operator explicitly, solves the implicit stages by dense
    factorization and the projections by dense least squares.  Shares no
    solver code with the matrix-free path, so agreement between the two is a
    meaningful check.  Limited to small grids by the assembly size guard.
    """
    grid = cfg.grid
    tau = cfg.tau
    f = cfg.forcing(t + 0.5 * tau) if cfg.forcing is not None else None

    if isinstance(state, VelocityField):
        a = assemble_dense("viscous", grid, nu=cfg.nu)
        n = a.shape[0]
        rhs = velocity_to_vector(state)
        if f is not None:
            rhs = rhs + tau * velocity_to_vector(f)
        u_star = np.linalg.solve(np.eye(n) + tau * a, rhs)
        g = assemble_dense("gradient", grid)
        u_new, _ = _dense_project(g, u_star, tau)
        return vector_to_velocity(grid, u_new)

    part = cfg.partition
    masks = part.masks
    m = part.m
    a = assemble_dense("viscous", grid, nu=cfg.nu)
    n = a.shape[0]
    lower = assemble_dense("coupling_lower", grid, nu=cfg.nu, masks=masks)
    upper = assemble_dense("coupling_upper", grid, nu=cfg.nu, masks=masks)
    xs = [assemble_dense("mask", grid, eta=chi.eta) for chi in masks]

    vec = decomposed_to_vector(state)
    rhs = vec.copy()
    if f is not None:
        fvec = velocity_to_vector(f)
        for idx in range(m):
            rhs[idx * n : (idx + 1) * n] += tau * (xs[idx] @ fvec)
    quarter = np.linalg.solve(np.eye(m * n) + tau * lower, rhs)
    half = np.linalg.solve(np.eye(m * n) + tau * upper, quarter)

    g = assemble_dense("gradient", grid)
    out = half.copy()
    for idx in range(m):
        seg = slice(idx * n, (idx + 1) * n)
        out[seg], _ = _dense_project(xs[idx] @ g, half[seg], tau)
    return vector_to_decomposed(grid, m, out)


# -- built-in check suite, also used by the command line verify mode

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel(err: float, scale: float) -> float:
    return err / scale if scale > 0 else err


def verification_checks(seed: int = 2024) -> list[CheckResult]:
    """Small-grid correctness suite: returns one result per named check."""
    from .grid import (
        dot_decomposed,
        dot_pressure,
        dot_velocity,
        make_grid,
        norm_decomposed,
        norm_pressure,
    )
    from .operators import (
        ViscousOperator,
        apply_coupling_lower,
        apply_coupling_upper,
        apply_divergence,
        apply_gradient,
        apply_viscous,
        spectral_lower_bound,
    )
    from .partition import build_strips, decompose, recompose
    from .schemes import step_decomposed, step_monolithic

    rng = make_rng(seed)
    results: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        results.append(CheckResult(name, bool(passed), detail))

    # gradient and divergence are negated adjoints
    worst = 0.0
    for l1, l2, n1, n2 in [(1.0, 1.0, 8, 8), (2.5, 0.7, 10, 6)]:
        grid = make_grid(l1, l2, n1, n2)
        for _ in range(50):
            p = random_pressure(grid, rng)
            u = random_velocity(grid, rng)
            s = dot_velocity(apply_gradient(p), u) + dot_pressure(p, apply_divergence(u))
            worst = max(worst, _rel(abs(s), norm_pressure(p) * norm_velocity(u)))
    add("adjointness", worst <= 1e-13, f"worst relative defect {worst:.2e}")

    # viscous operator: selfadjoint, coercive, spectral bound attained
    grid = make_grid(1.0, 1.0, 8, 8)
    op = ViscousOperator(grid, 1.0)
    worst_sym = 0.0
    worst_coe = 0.0
    bound = spectral_lower_bound(grid)
    for _ in range(50):
        u = random_velocity(grid, rng)
        w = random_velocity(grid, rng)
        au = apply_viscous(op, u)
        worst_sym = max(
            worst_sym,
            _rel(abs(dot_velocity(au, w) - dot_velocity(u, apply_viscous(op, w))), norm_velocity(u) * norm_velocity(w)),
        )
        worst_coe = min(worst_coe, dot_velocity(au, u) - bound * dot_velocity(u, u))
    x = grid.coords1()[:, None]
    y = grid.coords2()[None, :]
    mode = np.sin(math.pi * x / grid.l1) * np.sin(math.pi * y / grid.l2)
    eig = VelocityField(grid, mode, mode)
    defect = error_norms(apply_viscous(op, eig), VelocityField.wrap(grid, bound * eig.data))
    add(
        "viscous operator",
        worst_sym <= 1e-12 and worst_coe >= -1e-10 and defect <= 1e-10 * norm_velocity(eig),
        f"symmetry {worst_sym:.2e}, coercivity slack {worst_coe:.2e}, eigen defect {defect:.2e}",
    )

    # strip masks square-sum to one and invert the decomposition
    worst_pou = 0.0
    worst_rt = 0.0
    grid = make_grid(1.0, 1.0, 12, 6)
    for m in (1, 2, 3):
        for overlap in (0, 1, 2):
            part = build_strips(grid, m, overlap)
            total = sum(chi.eta**2 for chi in part.masks)
            worst_pou = max(worst_pou, float(np.max(np.abs(total - 1.0))))
            u = random_velocity(grid, rng)
            worst_rt = max(worst_rt, _rel(error_norms(recompose(part, decompose(part, u)), u), norm_velocity(u)))
    add("partition of unity", worst_pou <= 1e-14 and worst_rt <= 1e-14, f"normalization {worst_pou:.2e}, roundtrip {worst_rt:.2e}")

    # triangular splitting: halves sum to the block operator, adjoint pair
    grid = make_grid(1.0, 1.0, 4, 4)
    op = ViscousOperator(grid, 1.0)
    ok_split = True
    worst_adj = 0.0
    for m in (2, 3):
        part = build_strips(grid, m, 1 if m == 2 else 0)
        full = assemble_dense("coupling", grid, nu=1.0, masks=part.masks)
        lo = assemble_dense("coupling_lower", grid, nu=1.0, masks=part.masks)
        up = assemble_dense("coupling_upper", grid, nu=1.0, masks=part.masks)
        ok_split = ok_split and np.array_equal(lo + up, full)
        ok_split = ok_split and np.allclose(full, full.T, rtol=0, atol=1e-12)
        for _ in range(20):
            U = random_decomposed(grid, m, rng)
            V = random_decomposed(grid, m, rng)
            lhs = dot_decomposed(apply_coupling_lower(part.masks, op, U), V)
            rhs = dot_decomposed(U, apply_coupling_upper(part.masks, op, V))
            worst_adj = max(worst_adj, _rel(abs(lhs - rhs), norm_decomposed(U) * norm_decomposed(V)))
    add("triangular splitting", ok_split and worst_adj <= 1e-12, f"split exact {ok_split}, adjoint defect {worst_adj:.2e}")

    # full steps agree with the dense oracle
    worst_mono = 0.0
    worst_dd = 0.0
    tight = SolveConfig(rel_tol=1e-12, abs_tol=1e-15)
    grid = make_grid(1.0, 1.0, 4, 4)
    for _ in range(5):
        v = random_velocity(grid, rng)
        fconst = random_velocity(grid, rng)
        forcing = lambda t, fconst=fconst: fconst
        cfg = SchemeConfig(v=v, tau=0.1, t_final=0.1, nu=1.0, scheme="monolithic", solver=tight, forcing=forcing)
        stepped, _, _ = step_monolithic(v, 0.0, cfg)
        ref = oracle_step(v, cfg, 0.0)
        worst_mono = max(worst_mono, _rel(error_norms(stepped, ref), norm_velocity(ref)))
        for m in (1, 2):
            cfg = SchemeConfig(
                v=v, tau=0.1, t_final=0.1, nu=1.0, scheme="decomposed", m=m, overlap=1, solver=tight, forcing=forcing
            )
            U0 = decompose(cfg.partition, v)
            Unew, _, _ = step_decomposed(U0, 0.0, cfg)
            Uref = oracle_step(U0, cfg, 0.0)
            gap = math.sqrt(
                sum(error_norms(cn, cr) ** 2 for cn, cr in zip(Unew.components, Uref.components))
            )
            worst_dd = max(worst_dd, _rel(gap, norm_decomposed(Uref)))
    add("oracle equivalence", worst_mono <= 1e-8 and worst_dd <= 1e-8, f"monolithic {worst_mono:.2e}, decomposed {worst_dd:.2e}")

    # projections leave a divergence residual at the solver tolerance
    grid = make_grid(1.0, 1.0, 8, 8)
    case = ManufacturedCase()
    cfg = SchemeConfig(
        v=exact_velocity(case, grid, 0.0),
        tau=0.05,
        t_final=0.25,
        nu=1.0,
        scheme="decomposed",
        m=2,
        overlap=2,
        forcing=forcing_of(case, grid),
    )
    result = run(cfg)
    tol = cfg.solver.rel_tol
    ok_div = result.completed and all(
        rep.div_residual <= 1e2 * tol * max(rep.div_scale, 1e-300) for rep in result.reports
    )
    stab = check_stability(result.reports, cfg.tau, "decomposed")
    add("projection residuals", ok_div, f"{len(result.reports)} steps checked")
    add("energy estimate", stab.passed, f"worst margin {stab.worst_margin:.2e}")

    return results
