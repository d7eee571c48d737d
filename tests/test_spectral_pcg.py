"""The monolithic pressure PCG in the orthonormal cosine basis.

Every check compares against an independent form: the basis operator
against Q (-div grad) Q^T from the dense assembly and explicit cosine
matrices, and the projection against the same PCG run in physical space
with the stencils, ``_pressure_range`` and ``neumann_preconditioner``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokesdd import SolveConfig, assemble_dense, cg_solve, make_grid, pressure_projection
from stokesdd import schemes
from stokesdd.operators import _divergence_raw, _gradient_raw
from stokesdd.transforms import (
    _pressure_range,
    cosine_pressure_system,
    from_cosine_basis,
    neumann_preconditioner,
    to_cosine_basis,
)
from stokesdd.verify import make_rng, random_velocity

TIGHT = SolveConfig(rel_tol=1e-12, abs_tol=1e-15)


def orthonormal_dct(n: int) -> np.ndarray:
    """Q[k, j] = s_k cos(pi k (2j+1) / (2n)), built from the formula."""
    k, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    q = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * j + 1) / (2 * n))
    q[0] /= math.sqrt(2.0)
    return q


def physical_system(grid):
    return lambda q: -_divergence_raw(_gradient_raw(q, grid), grid)


@st.composite
def problems(draw):
    n1 = draw(st.integers(2, 40))
    n2 = draw(st.integers(2, 40).filter(lambda n: n != n1))
    aspect = draw(st.floats(0.25, 4.0))
    tau = 10.0 ** draw(st.floats(-4.0, 2.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return n1, n2, aspect, tau, seed


EXAMPLES = ((2, 3, 1.0, 0.1, 1), (3, 2, 4.0, 1e-4, 2), (2, 40, 0.25, 1e2, 3), (40, 3, 4.0, 0.5, 4))


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


@settings(deadline=None, max_examples=25)
@given(problems())
@with_examples
def test_basis_operator_is_the_transformed_dense_operator(case):
    n1, n2, aspect, _, seed = case
    grid = make_grid(1.0, aspect, n1, n2)
    size = n1 * n2
    dense = -assemble_dense("divergence", grid) @ assemble_dense("gradient", grid)
    q1, q2 = orthonormal_dct(n1), orthonormal_dct(n2)
    # Q (-div grad) Q^T with Q = Q1 (x) Q2, one index at a time
    t = dense.reshape(n1, n2, n1, n2)
    t = np.einsum("ai,ijkl->ajkl", q1, t)
    t = np.einsum("bj,ajkl->abkl", q2, t)
    t = np.einsum("ck,abkl->abcl", q1, t)
    want = np.einsum("dl,abcl->abcd", q2, t).reshape(size, size)

    apply, precondition, project = cosine_pressure_system(grid)
    got = np.empty((size, size))
    for k in range(size):
        unit = np.zeros(size)
        unit[k] = 1.0
        got[:, k] = apply(unit.reshape(n1, n2)).ravel()
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # the transforms are Q1 P Q2^T and its inverse
    p = np.zeros(grid.shape)
    p[1:, 1:] = make_rng(seed).standard_normal((n1, n2))
    y = to_cosine_basis(p, grid)
    assert np.max(np.abs(y - q1 @ p[1:, 1:] @ q2.T)) <= 1e-13 * np.max(np.abs(p))
    back = from_cosine_basis(y.copy(), grid)
    assert np.max(np.abs(back - p)) <= 1e-13 * np.max(np.abs(p))
    assert not back[0].any() and not back[:, 0].any()

    # the diagonal preconditioner is the physical Neumann pseudo-inverse
    z_phys = to_cosine_basis(neumann_preconditioner(grid)(from_cosine_basis(y.copy(), grid)), grid)
    z = precondition(y)
    assert np.max(np.abs(z - z_phys)) <= 1e-12 * np.max(np.abs(z_phys))

    # the projection is the orthogonal projection onto the range of the operator
    kernel = np.stack([np.eye(1, size).ravel(), np.outer(q1[:, -1], q2[:, -1]).ravel()], axis=1)
    basis, _ = np.linalg.qr(kernel)
    want_proj = y.ravel() - basis @ (basis.T @ y.ravel())
    got_proj = project(y.copy()).ravel()
    assert np.max(np.abs(got_proj - want_proj)) <= 1e-13 * np.max(np.abs(y))


def physical_pcg(u_star, tau, cfg):
    """The projection's pressure by PCG in physical space, as before the basis change."""
    grid = u_star.grid
    rhs = -(1.0 / tau) * _divergence_raw(u_star.data, grid)
    p, rep = cg_solve(physical_system(grid), rhs, cfg, project=_pressure_range,
                      precondition=neumann_preconditioner(grid))
    assert rep.converged
    return p, rep


@settings(deadline=None, max_examples=30)
@given(problems())
@with_examples
def test_projection_matches_the_physical_space_pcg(case):
    n1, n2, aspect, tau, seed = case
    grid = make_grid(1.0, aspect, n1, n2)
    u_star = random_velocity(grid, make_rng(seed))

    _, p = pressure_projection(u_star, tau, TIGHT)
    want, _ = physical_pcg(u_star, tau, TIGHT)
    assert np.max(np.abs(p.p - want)) <= 1e-9 * np.max(np.abs(want))
    got_g, want_g = _gradient_raw(p.p, grid), _gradient_raw(want, grid)
    assert np.max(np.abs(got_g - want_g)) <= 1e-9 * np.max(np.abs(want_g))
    assert p.p[-1, -1] == 0.0
    assert abs(p.p[1:, 1:].mean()) <= 1e-14 * np.max(np.abs(p.p))

    # default tolerance: the true physical residual within the tolerance (the
    # recurrence residual is below the target; the true one differs from it
    # by rounding)
    cfg = SolveConfig()
    status: dict = {}
    _, p = pressure_projection(u_star, tau, cfg, status)
    rhs = -(1.0 / tau) * _divergence_raw(u_star.data, grid)
    true_res = np.linalg.norm(rhs - physical_system(grid)(p.p))
    assert true_res <= 1.01 * max(cfg.rel_tol * np.linalg.norm(rhs), cfg.abs_tol)

    # the same iterations as in physical space, up to rounding: on strongly
    # stretched cells the basis operator's diagonal and rank-two terms cancel
    # on the near-null modes, and the basis PCG can take up to about a
    # quarter more iterations (measured: at most 7 more, where the physical
    # PCG took 36 to 60)
    _, rep = physical_pcg(u_star, tau, cfg)
    assert abs(status["cg_iters"] - rep.iterations) <= 2 + rep.iterations // 4


@pytest.mark.parametrize("l1, l2, n, seed", [(1.0, 1.0, 128, 1), (1.0, 1.0, 256, 2), (4.0, 1.0, 64, 3), (1.0, 1.0, 32, 4)])
def test_iterations_match_on_square_cells(l1, l2, n, seed):
    # the benchmark's grid, a larger one, criterion 9's channel and a small
    # one: cells of aspect at most 4, where the two bases agree to one
    # iteration
    grid = make_grid(l1, l2, n, n)
    u_star = random_velocity(grid, make_rng(seed))
    status: dict = {}
    pressure_projection(u_star, 0.05, SolveConfig(), status)
    _, rep = physical_pcg(u_star, 0.05, SolveConfig())
    assert abs(status["cg_iters"] - rep.iterations) <= 1


@settings(deadline=None, max_examples=15)
@given(problems())
@with_examples
def test_basis_directions_stay_orthogonal_to_the_kernel(case):
    n1, n2, aspect, tau, seed = case
    grid = make_grid(1.0, aspect, n1, n2)
    corner = np.outer(orthonormal_dct(n1)[:, -1], orthonormal_dct(n2)[:, -1])
    seen = []
    inner = schemes.cg_solve

    def recording(apply, rhs, *args, **kwargs):
        def wrapped(d):
            seen.append(d.copy())
            return apply(d)

        return inner(wrapped, rhs, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "cg_solve", recording)
        pressure_projection(random_velocity(grid, make_rng(seed)), tau, TIGHT)
    assert seen
    for d in seen:
        scale = np.linalg.norm(d)
        assert abs(d[0, 0]) <= 1e-13 * scale
        assert abs(float(np.sum(d * corner))) <= 1e-13 * scale
