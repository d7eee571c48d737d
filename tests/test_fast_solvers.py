"""The fast monolithic solves: sine-transform viscous solve, cosine-preconditioned projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd import (
    NumericalBreakdownError,
    PressureField,
    SchemeConfig,
    SolveConfig,
    ViscousOperator,
    apply_gradient,
    assemble_dense,
    cg_solve,
    make_grid,
    norm_velocity,
    pressure_projection,
    run,
    velocity_to_vector,
    viscous_step_monolithic,
)
from stokesdd import schemes
from stokesdd.operators import _divergence_raw, _gradient_raw
from stokesdd.schemes import _pressure_range
from stokesdd.transforms import dirichlet_solve, neumann_preconditioner
from stokesdd.verify import ManufacturedCase, exact_velocity, forcing_of, make_rng, random_velocity

TIGHT = SolveConfig(rel_tol=1e-12, abs_tol=1e-15)
EPS = np.finfo(float).eps


@st.composite
def viscous_problems(draw):
    n1 = draw(st.integers(2, 20))
    n2 = draw(st.integers(2, 20).filter(lambda n: n != n1))
    aspect = draw(st.floats(0.25, 4.0))
    tau = 10.0 ** draw(st.floats(-4.0, 2.0))
    nu = 10.0 ** draw(st.floats(-2.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_grid(1.0, aspect, n1, n2), tau, nu, seed


@settings(deadline=None, max_examples=60)
@given(viscous_problems())
def test_viscous_direct_solve_matches_dense(problem):
    grid, tau, nu, seed = problem
    u = random_velocity(grid, make_rng(seed))
    mat = np.eye(2 * grid.num_interior) + tau * assemble_dense("viscous", grid, nu=nu)
    want = np.linalg.solve(mat, velocity_to_vector(u))
    status: dict = {}
    got = velocity_to_vector(viscous_step_monolithic(u, None, tau, ViscousOperator(grid, nu), status=status))
    # both solves are backward stable: the gap is bounded by the condition number
    kappa = np.linalg.cond(mat)
    assert np.max(np.abs(got - want)) <= 100 * kappa * EPS * np.max(np.abs(want))
    assert status["cg_iters"] == 0


def test_viscous_solve_ignores_rhs_boundary_and_zeroes_it():
    grid = make_grid(1.0, 2.0, 6, 9)
    clean = random_velocity(grid, make_rng(1)).data
    dirty = clean.copy()
    dirty[:, 0, :] = 5.0
    dirty[:, :, -1] = -3.0
    x = dirichlet_solve(dirty, grid, 0.5, 0.3)
    assert np.array_equal(x, dirichlet_solve(clean, grid, 0.5, 0.3))
    assert not (x[:, 0, :].any() or x[:, -1, :].any() or x[:, :, 0].any() or x[:, :, -1].any())
    assert dirty[0, 0, 0] == 5.0


def test_viscous_solve_with_nan_input_raises():
    grid = make_grid(1.0, 1.0, 8, 8)
    u = random_velocity(grid, make_rng(2))
    u.data[0, 3, 3] = np.nan
    with pytest.raises(NumericalBreakdownError, match="viscous solve"):
        viscous_step_monolithic(u, None, 0.1, ViscousOperator(grid, 1.0))


def _deflate_block(arr):
    arr[1:, 1:] -= arr[1:, 1:].mean()
    return arr


def _plain_projection(u_star, tau):
    """The projection by unpreconditioned CG with constant deflation."""
    grid = u_star.grid
    rhs = -(1.0 / tau) * _divergence_raw(u_star.data, grid)
    cfg = SolveConfig(rel_tol=TIGHT.rel_tol, abs_tol=TIGHT.abs_tol)
    p, rep = cg_solve(lambda q: -_divergence_raw(_gradient_raw(q, grid), grid), rhs, cfg, project=_deflate_block)
    assert rep.converged
    return u_star.data - tau * _gradient_raw(p, grid), p


def test_preconditioned_projection_matches_plain_cg():
    for n1, n2, l2, seed in ((8, 8, 1.0, 3), (12, 7, 0.5, 4), (9, 16, 3.0, 5)):
        grid = make_grid(1.0, l2, n1, n2)
        u_star = random_velocity(grid, make_rng(seed))
        tau = 0.05
        u_new, p = pressure_projection(u_star, tau, TIGHT)
        want_u, want_p = _plain_projection(u_star, tau)
        assert np.max(np.abs(u_new.data - want_u)) <= 1e-9 * np.max(np.abs(want_u))
        got_g, want_g = _gradient_raw(p.p, grid), _gradient_raw(want_p, grid)
        assert np.max(np.abs(got_g - want_g)) <= 1e-9 * np.max(np.abs(want_g))


def test_identity_preconditioner_reproduces_plain_cg():
    rng = make_rng(11)
    b = rng.standard_normal((30, 30))
    mat = b @ b.T + np.eye(30)
    rhs = rng.standard_normal(30)
    plain, rep_plain = cg_solve(lambda v: mat @ v, rhs, TIGHT)
    pcg, rep_pcg = cg_solve(lambda v: mat @ v, rhs, TIGHT, precondition=lambda r: r.copy())
    assert rep_pcg.iterations == rep_plain.iterations
    assert np.max(np.abs(pcg - plain)) <= 1e-12 * np.max(np.abs(plain))


def test_preconditioned_iterates_stay_in_the_range():
    grid = make_grid(2.0, 1.0, 10, 6)
    directions = []

    def system(q):
        directions.append(q.copy())
        return -_divergence_raw(_gradient_raw(q, grid), grid)

    rhs = -_divergence_raw(random_velocity(grid, make_rng(6)).data, grid)
    cfg = SolveConfig(rel_tol=1e-12)
    p, rep = cg_solve(system, rhs, cfg, project=_pressure_range, precondition=neumann_preconditioner(grid))
    assert rep.converged and 0 < rep.iterations < 30
    for arr in directions + [p]:
        assert arr[-1, -1] == 0.0
        assert abs(arr[1:, 1:].sum()) <= 1e-13 * arr[1:, 1:].size * np.max(np.abs(arr))
        assert not arr[0, :].any() and not arr[:, 0].any()


def test_preconditioner_output_leaves_the_range_without_projection():
    # the Neumann pseudo-inverse gives zero mean but a non-zero corner, which
    # is why the pressure solve needs the range projection
    grid = make_grid(1.0, 1.0, 8, 8)
    r = _pressure_range(-_divergence_raw(random_velocity(grid, make_rng(7)).data, grid))
    z = neumann_preconditioner(grid)(r)
    assert abs(z[1:, 1:].mean()) <= 1e-13 * np.max(np.abs(z))
    assert abs(z[-1, -1]) > 1e-6 * np.max(np.abs(z))


def assert_gauge(p: PressureField) -> None:
    """Corner node pinned at zero, zero mean over the pressure nodes."""
    norm = math.sqrt(float(np.sum(p.p**2)))
    assert abs(p.p[p.grid.n1, p.grid.n2]) <= 1e-12 * norm
    assert abs(p.p[1:, 1:].mean()) <= 1e-14 * norm


def test_pressure_gauge_pins_corner_and_mean():
    case = ManufacturedCase()
    for n1, n2 in ((16, 16), (12, 20)):
        grid = make_grid(1.0, 1.0, n1, n2)
        _, p = pressure_projection(random_velocity(grid, make_rng(n1 + n2)), 0.1)
        assert_gauge(p)
        cfg = SchemeConfig(v=exact_velocity(case, grid, 0.0), tau=0.05, t_final=0.1, forcing=forcing_of(case, grid))
        res = run(cfg)
        assert res.completed
        assert_gauge(res.pressure)


def test_projection_removes_pure_gradient_in_few_iterations():
    grid = make_grid(1.0, 1.0, 32, 32)
    u_star = apply_gradient(PressureField(grid, make_rng(8).uniform(-1, 1, grid.shape)))
    status: dict = {}
    u_new, _ = pressure_projection(u_star, 0.1, SolveConfig(), status)
    assert norm_velocity(u_new) <= 1e-8 * norm_velocity(u_star)
    assert status["cg_iters"] <= 30


def test_starved_run_stops_in_the_pressure_solve():
    grid = make_grid(1.0, 1.0, 16, 16)
    starved = SolveConfig(rel_tol=1e-14, abs_tol=0.0, max_iter=1)
    cfg = SchemeConfig(v=random_velocity(grid, make_rng(9)), tau=0.5, t_final=2.0, solver=starved)
    res = run(cfg)
    assert not res.completed
    assert "pressure solve" in res.message
    assert res.reports == []


def test_monolithic_iterations_count_only_the_pressure_solve(monkeypatch):
    grid = make_grid(1.0, 1.0, 16, 16)
    cfg = SchemeConfig(v=random_velocity(grid, make_rng(10)), tau=0.1, t_final=0.3)
    seen = []
    inner = schemes.cg_solve

    def counting(*args, **kwargs):
        x, rep = inner(*args, **kwargs)
        seen.append(rep.iterations)
        return x, rep

    monkeypatch.setattr(schemes, "cg_solve", counting)
    res = run(cfg)
    assert res.completed and len(seen) == cfg.n_steps
    assert [r.cg_iters_total for r in res.reports] == seen
