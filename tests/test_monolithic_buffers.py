"""The monolithic step's solves work in arrays they already own.

cg_solve updates its iterate, residual and direction in place and uses the
operator's output as scratch; the basis pressure system writes into two
buffers per solve; the viscous stage solves u + tau f in place.  Each must
give the bits of the allocating code it replaced, kept here as the
reference, and one step's traced peak stays below eleven velocity
components above what was live before it.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from stokesdd import (
    ManufacturedCase,
    SchemeConfig,
    SolveConfig,
    VelocityField,
    ViscousOperator,
    cg_solve,
    forcing_of,
    make_grid,
    make_rng,
    random_velocity,
    schemes,
    step_monolithic,
    viscous_step_monolithic,
)
from stokesdd.linsolve import SolveReport
from stokesdd.operators import _divergence_raw, _viscous_raw
from stokesdd.transforms import _cosine_basis, cosine_pressure_system, dirichlet_solve, to_cosine_basis


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    # equal as floats would pass 0.0 against -0.0
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a.ravel(), b.ravel()))


def reference_cg(apply, rhs, cfg=None, project=None, precondition=None):
    """cg_solve as it was, with a fresh array for every update."""
    cfg = cfg or SolveConfig()
    r = rhs.astype(float, copy=True)
    if project is not None:
        r = project(r)
    x = np.zeros_like(r)
    res0 = math.sqrt(_dot(r, r))
    target = max(cfg.rel_tol * res0, cfg.abs_tol)
    if res0 <= target:
        return x, SolveReport(iterations=0, residual=res0, converged=True)

    def preconditioned(r, rr):
        if precondition is None:
            return r, rr
        z = precondition(r)
        if project is not None:
            z = project(z)
        return z, _dot(r, z)

    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * r.size
    z, rz = preconditioned(r, res0 * res0)
    d = z.copy()
    res = res0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        q = apply(d)
        alpha = rz / _dot(d, q)
        x += alpha * d
        r -= alpha * q
        rr_new = _dot(r, r)
        res = math.sqrt(rr_new)
        if res <= target:
            converged = True
            break
        z, rz_new = preconditioned(r, rr_new)
        d = z + (rz_new / rz) * d
        if project is not None:
            d = project(d)
        rz = rz_new
    if project is not None:
        x = project(x)
    return x, SolveReport(iterations=iterations, residual=res, converged=converged)


def reference_system(grid):
    """cosine_pressure_system as it was: every product a new array."""
    _, q1, lam1, _, q2, lam2 = _cosine_basis(grid)
    den = lam1[:, None] + lam2
    den[0, 0] = math.inf
    inv = 1.0 / den
    den[0, 0] = 0.0
    size = grid.n1 * grid.n2
    root = math.sqrt(size)
    kernel_left = np.zeros((grid.n1, 2))
    kernel_left[:, 0] = q1
    kernel_left[0, 1] = 1.0
    kernel_right = np.zeros((2, grid.n2))
    edge_left = np.empty((grid.n1, 2))
    edge_left[:, 1] = q1
    edge_right = np.empty((2, grid.n2))
    edge_right[0] = q2

    def project(y):
        a = float(q1 @ y @ q2)
        beta = (root * y[0, 0] - a) / (size - 1)
        np.multiply(q2, a - beta, out=kernel_right[0])
        kernel_right[1, 0] = root * beta
        y -= kernel_left @ kernel_right
        return y

    def apply(y):
        out = den * y
        np.multiply(y @ q2, lam1, out=edge_left[:, 0])
        np.multiply(q1 @ y, lam2, out=edge_right[1])
        out -= edge_left @ edge_right
        return project(out)

    def precondition(r):
        return inv * r

    return apply, precondition, project


def _basis_rhs(grid, seed: int, tau: float = 0.05) -> np.ndarray:
    div = _divergence_raw(random_velocity(grid, make_rng(seed)).data, grid)
    return to_cosine_basis(-(1.0 / tau) * div, grid)


def _check_solves_alike(got, want) -> None:
    (x, rep), (x_ref, rep_ref) = got, want
    assert _same_bits(x, x_ref)
    assert rep == rep_ref


@pytest.mark.parametrize("grid", [
    make_grid(1.0, 1.0, 16, 16), make_grid(1.0, 1.0, 24, 17), make_grid(4.0, 1.0, 64, 64), make_grid(1.0, 1.0, 128, 128),
], ids=["16x16", "24x17", "64x64-4x1", "128x128"])
def test_basis_pcg_gives_the_bits_of_the_allocating_loop(grid):
    rhs = _basis_rhs(grid, grid.n1 + grid.n2)
    before = rhs.copy()
    apply, precondition, project = cosine_pressure_system(grid)
    got = cg_solve(apply, rhs, project=project, precondition=precondition)
    apply, precondition, project = reference_system(grid)
    want = reference_cg(apply, rhs, project=project, precondition=precondition)
    _check_solves_alike(got, want)
    assert got[1].converged and got[1].iterations > 1
    assert _same_bits(rhs, before)


@pytest.mark.parametrize("cfg", [SolveConfig(), SolveConfig(rel_tol=1e-14, max_iter=3)])
def test_plain_cg_gives_the_bits_of_the_allocating_loop(cfg):
    rng = make_rng(7)
    a = rng.standard_normal((30, 30))
    mat = a @ a.T + 30 * np.eye(30)
    rhs = rng.standard_normal((5, 6))
    op = lambda v: (mat @ v.ravel()).reshape(v.shape)  # noqa: E731
    _check_solves_alike(cg_solve(op, rhs, cfg), reference_cg(op, rhs, cfg))


def test_identity_operator_gives_the_bits_of_the_allocating_loop():
    """The identity returns its argument, the direction itself, which
    cg_solve must not use as scratch."""
    rhs = make_rng(3).standard_normal(9)
    x, rep = cg_solve(lambda v: v, rhs)
    _check_solves_alike((x, rep), reference_cg(lambda v: v, rhs))
    assert rep.iterations == 1 and np.allclose(x, rhs)


def test_pcg_loop_allocates_nothing_of_the_unknowns_size():
    """Inside cg_solve only x, r and the direction are new (n1, n2) arrays;
    the system's buffers exist before it is called."""
    grid = make_grid(1.0, 1.0, 128, 128)
    rhs = _basis_rhs(grid, 11)
    apply, precondition, project = cosine_pressure_system(grid)
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        _, rep = cg_solve(apply, rhs, project=project, precondition=precondition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.iterations > 10
    assert (peak - live) / rhs.nbytes < 3.5


# -- the viscous stage

GRID = make_grid(1.3, 0.7, 40, 24)
NU = 0.8


@pytest.fixture
def residuals(monkeypatch) -> list:
    """Every (what, residual) a stage reports, in order."""
    seen: list = []
    direct = schemes._direct

    def recording(status, r, what):
        seen.append((what, r.copy()))
        direct(status, r, what)

    monkeypatch.setattr(schemes, "_direct", recording)
    return seen


def reference_viscous(u, f_half, tau, op, status):
    """viscous_step_monolithic as it was: u + tau f held beside its solve's copy."""
    rhs = u.data
    if f_half is not None:
        rhs = rhs + tau * f_half.data
    x = dirichlet_solve(rhs, u.grid, op.nu, tau)
    r = _viscous_raw(x, u.grid, op.nu)
    r *= tau
    r += x
    r -= rhs
    schemes._direct(status, r, "viscous solve")
    return VelocityField.wrap(u.grid, x)


def test_dirichlet_solve_into_its_right_hand_side_gives_the_same_bits():
    rhs = make_rng(4).standard_normal((2,) + GRID.shape)  # boundary entries too, which the solve ignores
    want = dirichlet_solve(rhs, GRID, NU, 0.07)
    other = np.empty_like(rhs)
    assert dirichlet_solve(rhs, GRID, NU, 0.07, out=other) is other
    assert _same_bits(other, want)
    got = dirichlet_solve(rhs, GRID, NU, 0.07, out=rhs)
    assert got is rhs
    assert _same_bits(rhs, want)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_viscous_stage_gives_the_bits_of_the_allocating_stage(residuals, forced):
    rng = make_rng(20 + forced)
    u = random_velocity(GRID, rng)
    f = random_velocity(GRID, rng) if forced else None
    u_before, f_before = u.data.copy(), f.data.copy() if forced else None
    op = ViscousOperator(GRID, NU)

    status: dict = {}
    got = viscous_step_monolithic(u, f, 0.09, op, status=status)
    seen = list(residuals)
    residuals.clear()
    ref_status: dict = {}
    want = reference_viscous(u, f, 0.09, op, ref_status)

    assert _same_bits(got.data, want.data)
    assert status == ref_status
    assert [w for w, _ in seen] == [w for w, _ in residuals] == ["viscous solve"]
    assert _same_bits(seen[0][1], residuals[0][1])
    assert got.data is not u.data
    assert _same_bits(u.data, u_before)
    assert not forced or _same_bits(f.data, f_before)


# -- one step's peak

@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("grid", [make_grid(1.3, 0.7, 40, 24), make_grid(1.0, 1.0, 64, 64)], ids=["40x24", "64x64"])
def test_one_step_peaks_below_eleven_velocity_components(grid, forced):
    """The traced peak of one step after a warm-up step, less what was live
    before it (the input state), in velocity components: the forcing, the
    viscous state, the projected state, the pressure and the work of the
    solves."""
    cfg = SchemeConfig(
        v=random_velocity(grid, make_rng(5)), tau=0.05, t_final=1.0,
        forcing=forcing_of(ManufacturedCase(), grid) if forced else None,
    )
    u, _, _ = step_monolithic(cfg.v, 0.0, cfg, step=1)
    component = 8 * (grid.n1 + 1) * (grid.n2 + 1)
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        step_monolithic(u, cfg.tau, cfg, step=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - live) / component < 11.0
