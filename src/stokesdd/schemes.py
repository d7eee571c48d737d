"""Time stepping for the unsteady Stokes system in velocity and pressure.

Two engines share the spatial operators:

* monolithic: one implicit viscous solve per step, then a projection onto
  discretely divergence-free velocities through a pressure Poisson solve;
* decomposed: the viscous operator is split across overlapping strips into
  a block operator, advanced by a forward then a backward masked triangular
  sweep (one implicit strip system per strip), followed by one projection
  per strip.  Every strip system is separable and solved directly by a
  transform along x2 and tridiagonal elimination along x1.

Every step emits a StepReport with the norms entering the per-step energy
estimates, so stability monitors can replay a whole run from the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .grid import (
    DecomposedVelocity,
    GridSpec,
    PressureField,
    VelocityField,
    norm_decomposed,
    norm_pressure,
    norm_velocity,
)
from .linsolve import NumericalBreakdownError, SolveConfig, SolveReport, _dot, cg_solve
from .operators import (
    ViscousOperator,
    _divergence_raw,
    _gradient_raw,
    _viscous_raw,
    spectral_lower_bound,
)
from .partition import Partition, build_strips, decompose, recompose, weighted_sum
from .transforms import (
    _pressure_range,
    cosine_pressure_system,
    dirichlet_solve,
    from_cosine_basis,
    pressure_solve,
    sweep_solve_rows,
    to_cosine_basis,
)


# Even tiny grids take about a millisecond per step, so this many steps is
# hours of work; a longer run is taken to be a mistake in tau or t_final.
MAX_STEPS = 10_000_000


class UnconvergedSolveError(RuntimeError):
    """An implicit solve hit its iteration cap before reaching tolerance."""


@dataclass
class SchemeConfig:
    """Everything one run needs: initial state, time grid, physics, solver.

    The step count is round(t_final / tau), at least one step, and tau is
    adjusted so that the steps cover t_final exactly.  The forcing callable
    receives the midpoint time of the step being taken and returns a
    VelocityField; None means no forcing.

    Construction refuses, with ValueError, what cannot run: an unknown
    scheme, a spacing h whose 4 / h^2 (the solvers build it) is not a finite
    float, a non-positive or non-finite tau, t_final or nu, a bad m or
    overlap, more than MAX_STEPS steps (an infinite t_final / tau included),
    a non-finite energy estimate ``estimate`` = (growth, weight), which is
    fixed for the run, and a decomposed strip layout build_strips refuses.
    """

    v: VelocityField
    tau: float
    t_final: float
    nu: float = 1.0
    scheme: str = "monolithic"
    m: int = 1
    overlap: int = 0
    solver: SolveConfig = field(default_factory=SolveConfig)
    forcing: Callable[[float], VelocityField] | None = None

    def __post_init__(self) -> None:
        if self.scheme not in ("monolithic", "decomposed"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        g = self.grid
        if not all(0.0 < h * h < math.inf and math.isfinite(4.0 / (h * h)) for h in (g.h1, g.h2)):
            raise ValueError(f"side lengths {g.l1!r}, {g.l2!r} on {g.n1}x{g.n2} cells are out of range: 4 / h^2 is not a finite float")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"time step must be positive, got {self.tau}")
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError(f"final time must be positive, got {self.t_final}")
        self.viscous  # built now, so a viscosity ViscousOperator refuses is refused here
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"strip count must be a positive integer, got {self.m}")
        if int(self.overlap) != self.overlap or self.overlap < 0:
            raise ValueError(f"overlap must be a non-negative integer, got {self.overlap}")
        self.tau_requested = self.tau
        ratio = self.t_final / self.tau
        n_steps = round(ratio) if math.isfinite(ratio) else ratio
        if n_steps > MAX_STEPS:
            raise ValueError(f"t_final / tau gives {n_steps:.12g} steps, more than the limit {MAX_STEPS}")
        self.n_steps = max(1, n_steps)
        self.tau = self.t_final / self.n_steps
        monolithic = self.scheme == "monolithic"
        self.estimate = energy_estimate(self.scheme, self.tau, self.nu * spectral_lower_bound(self.grid) if monolithic else None)
        if not all(map(math.isfinite, self.estimate)):
            raise ValueError(f"time step {self.tau!r} and viscosity {self.nu!r} give the energy estimate (growth, weight) "
                             f"= {self.estimate}: tau / (nu * delta_h) or exp(tau) is not a finite float")
        if not monolithic:
            self.partition  # built now, so a strip layout build_strips refuses is refused here

    @property
    def grid(self) -> GridSpec:
        return self.v.grid

    @cached_property
    def viscous(self) -> ViscousOperator:
        return ViscousOperator(self.grid, self.nu)

    @cached_property
    def partition(self) -> Partition:
        return build_strips(self.grid, self.m, self.overlap)


@dataclass(frozen=True)
class StepReport:
    """Norms and diagnostics of one completed step.

    norm_state is taken before the step, norm_end after it; norm_quarter and
    norm_half are the stage norms (for the monolithic scheme there is a
    single intermediate stage and both carry its norm).  div_scale and
    div_residual are the divergence norms the projection stages record before
    and after projecting (for the decomposed scheme the largest over the
    strips of ||div(eta_a u_a)||), and bound_margin the slack left in the
    energy estimate: growth norm_state^2 + weight norm_forcing^2 - norm_end^2.
    """

    step: int
    t: float
    norm_state: float
    norm_quarter: float
    norm_half: float
    norm_end: float
    norm_forcing: float
    div_residual: float
    div_scale: float
    cg_iters_total: int
    bound_margin: float


@dataclass
class RunResult:
    """What run returns: the reports of the completed steps, and the fields of the last one.

    ``velocity`` is the last completed step's velocity (the initial one if
    none completed); a decomposed run also gives its strip velocities as
    ``state``.  ``pressure`` (monolithic) or ``pressures`` (decomposed, one
    full-grid field per strip) are those of the last completed step, None if
    none completed.  completed is False, and ``message`` says why, when a
    solver failure stopped the run early.
    """

    config: SchemeConfig
    reports: list[StepReport]
    velocity: VelocityField
    state: DecomposedVelocity | None
    pressure: PressureField | None
    pressures: list[PressureField] | None
    completed: bool
    message: str = ""


def energy_estimate(mode: str, tau: float, nu_delta_h: float | None = None) -> tuple[float, float]:
    """(growth, weight) of the scheme's per-step bound ||u_end||^2 <= growth ||u_start||^2 + weight ||f||^2; inf where that overflows."""
    if mode == "decomposed":
        try:
            return math.exp(tau), tau
        except OverflowError:
            return math.inf, tau
    if mode != "monolithic":
        raise ValueError(f"unknown mode {mode!r}")
    if nu_delta_h is None:
        raise ValueError("monolithic mode needs nu_delta_h")
    return 1.0, (tau / nu_delta_h if nu_delta_h else math.inf)


def _record(status: dict | None, key: str, div: np.ndarray, grid: GridSpec) -> None:
    """Keep in status[key] the largest pressure norm of the divergences recorded under it.

    ``div`` is wrapped as a PressureField, which changes no value: every
    divergence recorded is +0.0 on the lines i1 = 0 and i2 = 0 already.
    """
    if status is not None:
        norm = norm_pressure(PressureField.wrap(grid, div))
        status[key] = max(status.get(key, norm), norm)


def _tally(status: dict | None, report: SolveReport, what: str) -> None:
    if status is not None:
        status["cg_iters"] = status.get("cg_iters", 0) + report.iterations
    if not report.converged:
        raise UnconvergedSolveError(
            f"{what}: {report.iterations} iterations, residual {report.residual:.3e}"
        )


def _direct(status: dict | None, r: np.ndarray, what: str) -> None:
    """Report a direct solve: its true residual ``r``, zero iterations.

    A non-finite residual, an overflowing norm included, raises
    NumericalBreakdownError.
    """
    res = math.sqrt(_dot(r, r))
    if not math.isfinite(res):
        raise NumericalBreakdownError(f"{what}: residual norm is {res}")
    if status is not None:
        status.setdefault("cg_iters", 0)


def viscous_step_monolithic(
    u: VelocityField,
    f_half: VelocityField | None,
    tau: float,
    op: ViscousOperator,
    solver: SolveConfig | None = None,
    status: dict | None = None,
) -> VelocityField:
    """Implicit viscous step: solve (E + tau A) u_star = u + tau f directly.

    A 2-D sine transform diagonalizes the system, so no iteration is needed;
    ``solver`` is not used.  ``u`` and ``f_half`` are not written to: u, or
    u + tau f, is formed in a new array and solved in place, and the forced
    u + tau f once more for the residual, after the solve's workspace is
    freed.  The true residual, from one stencil apply, is reported with zero
    iterations, and a non-finite one raises NumericalBreakdownError.
    """
    grid = u.grid

    def forced_rhs() -> np.ndarray:
        rhs = np.multiply(f_half.data, tau)
        return np.add(rhs, u.data, out=rhs)

    x = u.data.copy() if f_half is None else forced_rhs()
    dirichlet_solve(x, grid, op.nu, tau, out=x)
    r = _viscous_raw(x, grid, op.nu)
    r *= tau
    r += x
    r -= u.data if f_half is None else forced_rhs()
    _direct(status, r, "viscous solve")
    return VelocityField.wrap(grid, x)


def pressure_projection(
    u_star: VelocityField,
    tau: float,
    solver: SolveConfig | None = None,
    status: dict | None = None,
) -> tuple[VelocityField, PressureField]:
    """Project onto discretely divergence-free fields.

    Solves the pressure Poisson system built from the divergence of the
    gradient by CG preconditioned with the Neumann Laplacian, then corrects
    u_star by tau times the pressure gradient.  The CG runs in the
    orthonormal cosine (DCT-II) basis that diagonalizes the preconditioner,
    where the system is that diagonal minus two rank-one boundary terms
    (transforms.cosine_pressure_system): the right-hand side is transformed
    once and the solution once back, with no transform inside the
    iteration.  Iterations and residuals are those of the same PCG in
    physical space up to rounding, which on strongly stretched cells can
    cost a few iterations more; the unknowns, and so the default max_iter,
    are the n1*n2 pressure nodes.  The iterates are kept in the range of the
    system, and the pressure transformed back is projected onto it once
    more, which fixes its gauge: the corner node (n1, n2), which no gradient
    reads, is exactly zero, and the mean over the pressure nodes is zero to
    round-off.  ``status`` gets the norms of div u_star and div u_new as
    "div_scale" and "div_res".
    """
    grid = u_star.grid
    div = _divergence_raw(u_star.data, grid)
    _record(status, "div_scale", div, grid)
    rhs = [to_cosine_basis(-(1.0 / tau) * div, grid)]
    del div  # freed before the system's buffers are made
    apply, precondition, project = cosine_pressure_system(grid)
    # popped into the call, the right-hand side is held by cg_solve alone, which drops it once copied
    coef, rep = cg_solve(apply, rhs.pop(), solver, project=project, precondition=precondition)
    del apply, precondition, project  # the system's buffers go before the transform back
    _tally(status, rep, "pressure solve")
    parr = _pressure_range(from_cosine_basis(coef, grid))
    del coef  # released before div u_new is taken
    u_new = VelocityField.wrap(grid, u_star.data - tau * _gradient_raw(parr, grid))
    _record(status, "div_res", _divergence_raw(u_new.data, grid), grid)
    return u_new, PressureField.wrap(grid, parr)


def _weigh(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a <- a * w in place, for a weight ``w`` that broadcasts against ``a``.

    numpy buffers the broadcast ``w`` in at most np.getbufsize() entries
    (64 kB of float64), less than a copy of ``w`` to a's shape would take.
    """
    return np.multiply(a, w, out=a)


def _sweep(
    U: DecomposedVelocity, F_half: DecomposedVelocity | None, tau: float, op: ViscousOperator,
    part: Partition, status: dict | None, order: range, what: str, out: np.ndarray | None,
) -> DecomposedVelocity:
    """Block triangular solve, one strip system per strip in ``order``.

    Ascending order solves (E + tau L) x = U + tau F, descending order
    (E + tau U) x = U, with L and U the triangles of the block operator.
    Each strip system E + (tau/2) eta A eta is solved directly.  Every
    right-hand side U + tau F is formed in ``out`` first, in one pass; then
    each strip works on its rows ± 1 (``part.slabs``).  Strip a's one
    stencil apply A(eta_a x_a) gives its residual, row a of the system, and
    the coupling of each later strip b, eta_b A(sum of the solved eta_a
    x_a); _couple adds each apply to that sum and takes it off the later
    strips as soon as it is formed.  The residual handed to _direct is
    full-grid, zero off the strip's interior rows; the strip's solution and
    apply are released before it.  The solution is copied once into the
    field's (component, row, i2) order, so that its products have no
    transposed or reversed operand; a broadcast weight is left to numpy's
    buffer (_weigh).
    """
    grid = U.grid
    factors = part.sweep_factors(op.nu, tau)
    if F_half is None:
        if out is None:
            out = U.data.copy()
        elif out is not U.data:
            np.copyto(out, U.data)
    elif out is U.data:
        for o, f in zip(out, F_half.data):
            o += tau * f
    else:
        out = np.multiply(F_half.data, tau, out=out)
        out += U.data
    held = None
    for k, a in enumerate(order):
        eta, x, slab = part.eta[a], out[a], part.slabs[a]
        if slab is None:  # no interior row: nothing to solve, and no window to add to the sum
            _direct(status, np.zeros(x.shape), f"{what}, strip {a}")
            continue
        rows, (near, sub) = factors[a].rows, slab
        # x keeps the right-hand side on the solved rows until the residual is taken
        solved = sweep_solve_rows(x, factors[a]).transpose(1, 0, 2).copy()
        own = x[:, near].copy()
        inner = slice(rows.start - near.start, rows.stop - near.start)
        own[:, inner] = solved
        applied = _viscous_raw(_weigh(eta[near], own), sub, op.nu)
        del own
        r = np.zeros(x.shape)  # the residual, zero off the solved rows
        res = r[:, rows]
        np.copyto(res, 0.5 * tau * eta[rows])  # the weight, then the product in place
        res *= applied[:, inner]
        res += solved
        res -= x[:, rows]
        x[:, rows] = solved
        del solved, res  # res is a view: it would keep r
        held = _couple(out, part, order[k + 1 :], slab, applied, held, tau)
        del applied
        _direct(status, r, f"{what}, strip {a}")
        del r  # not kept through the next strip's solve, where the step's memory peaks
    return DecomposedVelocity.wrap(grid, out)


def _couple(out: np.ndarray, part: Partition, later: range, slab: tuple[slice, GridSpec], applied: np.ndarray,
            held: tuple[slice, np.ndarray] | None, tau: float) -> tuple[slice, np.ndarray] | None:
    """Add a solved strip's apply to the coupling sum and take the sum off the later strips.

    The full-grid sweep keeps coupled, the sum of the solved strips'
    A(eta x), from +0.0 and takes tau eta_b coupled off every later strip b
    on every row.  Here the sum is formed in ``applied`` on the strip's
    window, the inner rows of ``slab`` where the apply is exact, plus
    ``held``, the sum the strip before carried on its band.  The windows in
    sweep order keep an invariant (tests/test_sweep_coupling.py and
    test_consecutive_windows.py): two consecutive windows meet; a row two
    windows share lies in every window between them; and no later strip has
    a positive weight on a row of this window that the next strip's window
    does not share.  Off that band every row is final, and tau eta_b coupled
    is coupled times +0.0 for every later strip b: it is taken off them now,
    which keeps the sign of every zero the full-grid sweep leaves.  On the
    band it is taken off the next strip now; the band's unweighted sum is
    returned for the next strip to add to its own only when a strip follows
    that one, and None otherwise.
    """
    if not later:
        return None
    lo, hi = slab[0].start + 1, slab[0].stop - 1
    coupled = applied[:, 1:-1]
    coupled += 0.0  # the sum starts from +0.0, which turns -0.0 into +0.0
    if held is not None:
        band, band_sum = held
        coupled[:, band.start - lo : band.stop - lo] += band_sum
    nxt = part.slabs[later[0]]
    start, stop = (max(lo, nxt[0].start + 1), min(hi, nxt[0].stop - 1)) if nxt is not None else (hi, hi)
    for first, last in ((lo, start), (stop, hi)):
        if first < last:
            final = coupled[:, first - lo : last - lo]
            final *= 0.0
            for b in later:
                out[b][:, first:last] -= final
    if start == stop:
        return None
    shared = coupled[:, start - lo : stop - lo]
    # copied before the view is weighed; the view itself would keep all of applied
    held = (slice(start, stop), shared.copy()) if len(later) > 1 else None
    out[later[0]][:, start:stop] -= _weigh(tau * part.eta[later[0]][start:stop], shared)
    return held


def dd_forward_sweep(
    U: DecomposedVelocity,
    F_half: DecomposedVelocity | None,
    tau: float,
    op: ViscousOperator,
    part: Partition,
    solver: SolveConfig | None = None,
    status: dict | None = None,
    *,
    out: np.ndarray | None = None,
) -> DecomposedVelocity:
    """Strip-by-strip implicit solves in increasing strip order.

    Strip a sees the already updated strips b < a through the coupling
    blocks; its own implicit system is E + (tau/2) chi_a A chi_a, solved
    directly (``solver`` is not used).  Its residual is row a of
    (E + tau L) x - b; its stencil apply also gives the later strips'
    coupling, exact as only neighbouring strips overlap.  The result goes
    into ``out`` (may be U's or F_half's array), or a new array when None.
    """
    return _sweep(U, F_half, tau, op, part, status, range(part.m), "forward sweep", out)


def dd_backward_sweep(
    U: DecomposedVelocity,
    tau: float,
    op: ViscousOperator,
    part: Partition,
    solver: SolveConfig | None = None,
    status: dict | None = None,
    *,
    out: np.ndarray | None = None,
) -> DecomposedVelocity:
    """Strip-by-strip implicit solves in decreasing strip order, no forcing.

    The strip systems are solved directly (``solver`` is not used).  Strip
    a's residual is row a of (E + tau U) x - b; its stencil apply also gives
    the lower strips' coupling, exact as only neighbouring strips overlap.
    The result goes into ``out`` (may be U's array), or a new array when None.
    """
    return _sweep(U, None, tau, op, part, status, range(part.m - 1, -1, -1), "backward sweep", out)


def dd_pressure_substeps(
    U: DecomposedVelocity,
    tau: float,
    part: Partition,
    solver: SolveConfig | None = None,
    status: dict | None = None,
    *,
    out: np.ndarray | None = None,
) -> tuple[DecomposedVelocity, list[PressureField]]:
    """Per-strip projections: strip a is corrected by its own pressure.

    Substeps do not interact, so the loop order is immaterial; each solves
    the masked Poisson system -div(eta^2 grad p) = -div(eta u) / tau
    directly (``solver`` is not used) and removes the masked gradient from
    its own component only; the residual checked is div(eta u_new), -tau
    times that of the Poisson system, and ``status`` gets the largest strip
    norms of div(eta u) and div(eta u_new) as "div_scale" and "div_res".
    Each strip pressure is the minimum-norm solution: zero outside the
    strip's box and on the box's isolated corner node, zero mean over the
    other box nodes.  Each strip takes its divergences, gradient and update
    on its rows ± 1 (``part.slabs``), where they are not zero; the
    divergences go into full-grid arrays, so that their norms sum the same
    entries in the same order as over the whole grid.  The result goes into
    ``out`` (may be U's array), or a new array when None.
    """
    grid = U.grid
    if out is None:
        out = U.data.copy()
    elif out is not U.data:
        np.copyto(out, U.data)
    pressures: list[PressureField] = []
    for a, (eta, x, factors, slab) in enumerate(zip(part.eta, out, part.pressure_factors, part.slabs)):
        div = np.zeros(grid.shape)
        if slab is not None:
            near, sub = slab
            _divergence_raw(_weigh(eta[near], x[:, near].copy()), sub, div[near])
        _record(status, "div_scale", div, grid)
        div[factors.rows] *= -(1.0 / tau)  # the solve reads the box only
        parr = pressure_solve(div, factors)
        del div
        r = np.zeros(grid.shape)
        if slab is not None:
            grad = _weigh(tau * eta[near], _gradient_raw(parr[near], sub))
            x[:, near.start + 1 : near.stop - 1] -= grad[:, 1:-1]
            del grad
            _divergence_raw(_weigh(eta[near], x[:, near].copy()), sub, r[near])
        _direct(status, r, f"pressure substep, strip {a}")
        _record(status, "div_res", r, grid)
        del r  # as in _sweep
        pressures.append(PressureField.wrap(grid, parr))
    return DecomposedVelocity.wrap(grid, out), pressures


def blend_pressures(part: Partition, pressures: list[PressureField]) -> PressureField:
    """Weighted blend of the strip pressures: sum of eta_a times p_a.

    Diagnostic only: the scheme never uses a single global pressure, this
    just gives one field to look at.
    """
    return PressureField.wrap(part.grid, weighted_sum(part, (p.p for p in pressures), part.grid.shape))


def _report(
    step: int, t: float, norms: tuple[float, float, float, float], norm_f: float,
    status: dict, growth: float, weight: float,
) -> StepReport:
    """Pack one step's diagnostics; norms are (state, quarter, half, end)."""
    margin = growth * norms[0] ** 2 + weight * norm_f**2 - norms[3] ** 2
    div_res = status["div_res"]
    for v in (*norms, div_res, margin):
        if not math.isfinite(v):
            raise NumericalBreakdownError(f"non-finite norm {v} in step report")
    return StepReport(step, t, *norms, norm_f, div_res, status["div_scale"], status.get("cg_iters", 0), margin)


def step_monolithic(
    u: VelocityField, t: float, cfg: SchemeConfig, step: int = 0
) -> tuple[VelocityField, PressureField, StepReport]:
    """One step: implicit viscous solve, then projection, with diagnostics."""
    tau = cfg.tau
    status: dict = {}
    f_half = cfg.forcing(t + 0.5 * tau) if cfg.forcing is not None else None
    norm_f = norm_velocity(f_half) if f_half is not None else 0.0
    norm_n = norm_velocity(u)

    u_star = viscous_step_monolithic(u, f_half, tau, cfg.viscous, cfg.solver, status)
    del f_half  # dropped once consumed, as in step_decomposed
    norm_star = norm_velocity(u_star)
    u_new, p_new = pressure_projection(u_star, tau, cfg.solver, status)
    norm_new = norm_velocity(u_new)

    norms = (norm_n, norm_star, norm_star, norm_new)
    return u_new, p_new, _report(step, t + tau, norms, norm_f, status, *cfg.estimate)


def step_decomposed(
    U: DecomposedVelocity, t: float, cfg: SchemeConfig, step: int = 0
) -> tuple[DecomposedVelocity, list[PressureField], StepReport]:
    """One step: forward sweep, backward sweep, per-strip projections, each
    written into one m-fold buffer, the forcing's array or a new one."""
    tau = cfg.tau
    part = cfg.partition
    status: dict = {}
    F_half = decompose(part, cfg.forcing(t + 0.5 * tau)) if cfg.forcing is not None else None
    norm_f = norm_decomposed(F_half) if F_half is not None else 0.0
    norm_n = norm_decomposed(U)

    buffer = F_half.data if F_half is not None else np.empty_like(U.data)
    U_quarter = dd_forward_sweep(U, F_half, tau, cfg.viscous, part, cfg.solver, status, out=buffer)
    del F_half  # each stage's input is dropped once consumed (U stays: run holds it)
    norm_quarter = norm_decomposed(U_quarter)
    U_half = dd_backward_sweep(U_quarter, tau, cfg.viscous, part, cfg.solver, status, out=buffer)
    del U_quarter
    norm_half = norm_decomposed(U_half)
    U_new, pressures = dd_pressure_substeps(U_half, tau, part, cfg.solver, status, out=buffer)
    norm_new = norm_decomposed(U_new)

    norms = (norm_n, norm_quarter, norm_half, norm_new)
    return U_new, pressures, _report(step, t + tau, norms, norm_f, status, *cfg.estimate)


def run(cfg: SchemeConfig) -> RunResult:
    """Advance from the initial state to t_final, collecting step reports.

    A solver failure aborts the run; the partial report series is returned
    with completed False rather than raised away, and with the velocity and
    pressures of the last completed step (None pressures if none completed).

    Between decomposed steps, each strip pressure is held as a copy of its
    box rows only (``pressure_factors[a].rows``): it is +0.0 on every other
    row, so the full fields are rebuilt, bit for bit, once on return.  The
    next step's strip pressures are built while only these boxes, about
    one plane for all strips, are alive.  The monolithic pressure has no
    box and is held whole.
    """
    monolithic = cfg.scheme == "monolithic"
    # looked up per call, so a caller may patch the module's step functions
    step_fn = step_monolithic if monolithic else step_decomposed
    state = cfg.v.copy() if monolithic else decompose(cfg.partition, cfg.v)
    pressure = None
    reports: list[StepReport] = []
    completed, message = True, ""
    try:
        for n in range(cfg.n_steps):
            state, pressure, rep = step_fn(state, n * cfg.tau, cfg, step=n + 1)
            reports.append(rep)
            if not monolithic:
                pressure = [p.p[f.rows].copy() for p, f in zip(pressure, cfg.partition.pressure_factors)]
    except (UnconvergedSolveError, NumericalBreakdownError) as exc:
        completed, message = False, str(exc)
    if monolithic:
        return RunResult(cfg, reports, state, None, pressure, None, completed, message)
    if pressure is not None:
        pressure = [_expand(cfg.grid, box, f.rows) for box, f in zip(pressure, cfg.partition.pressure_factors)]
    return RunResult(cfg, reports, recompose(cfg.partition, state), state, None, pressure, completed, message)


def _expand(grid: GridSpec, box: np.ndarray, rows: slice) -> PressureField:
    """The full strip pressure whose box rows ``rows`` are ``box`` and every other node +0.0."""
    p = np.zeros(grid.shape)
    p[rows] = box
    return PressureField.wrap(grid, p)
