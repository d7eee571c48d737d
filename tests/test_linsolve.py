import numpy as np
import pytest

from stokesdd import NumericalBreakdownError, SolveConfig, cg_solve
from stokesdd.verify import make_rng


def spd_matrix(n, seed, shift=1.0):
    rng = make_rng(seed)
    b = rng.standard_normal((n, n))
    return b @ b.T + shift * np.eye(n)


def test_identity_converges_in_one_step():
    rhs = make_rng(1).standard_normal(20)
    x, rep = cg_solve(lambda v: v, rhs)
    assert rep.converged and rep.iterations == 1
    assert np.allclose(x, rhs, rtol=1e-14)


def test_zero_rhs_short_circuits():
    x, rep = cg_solve(lambda v: v, np.zeros(7))
    assert rep.converged and rep.iterations == 0 and rep.residual == 0.0
    assert np.all(x == 0.0)


def test_matches_direct_solve():
    mat = spd_matrix(40, seed=2)
    rhs = make_rng(3).standard_normal(40)
    x, rep = cg_solve(lambda v: mat @ v, rhs, SolveConfig(rel_tol=1e-12))
    assert rep.converged
    want = np.linalg.solve(mat, rhs)
    assert np.max(np.abs(x - want)) <= 1e-9 * np.max(np.abs(want))


def test_preserves_rhs_shape():
    mat = spd_matrix(12, seed=4)
    rhs = make_rng(5).standard_normal((3, 4))
    x, rep = cg_solve(lambda v: (mat @ v.ravel()).reshape(v.shape), rhs)
    assert x.shape == (3, 4)
    assert rep.converged


def test_energy_error_decreases_with_iteration_budget():
    # CG minimizes the operator-norm error over growing Krylov spaces, so
    # truncated runs must not beat longer ones
    mat = spd_matrix(30, seed=6, shift=0.1)
    rhs = make_rng(7).standard_normal(30)
    exact = np.linalg.solve(mat, rhs)
    errs = []
    for k in range(1, 12):
        x, _ = cg_solve(lambda v: mat @ v, rhs, SolveConfig(max_iter=k))
        e = x - exact
        errs.append(float(e @ mat @ e))
    for a, b in zip(errs, errs[1:]):
        assert b <= a * (1 + 1e-12)


def test_unconverged_reported_not_raised():
    mat = spd_matrix(50, seed=8, shift=1e-4)
    rhs = make_rng(9).standard_normal(50)
    x, rep = cg_solve(lambda v: mat @ v, rhs, SolveConfig(rel_tol=1e-14, max_iter=2))
    assert not rep.converged
    assert rep.iterations == 2
    assert np.all(np.isfinite(x))


def test_singular_system_with_constant_kernel():
    # 1D periodic-style Laplacian: kernel is the constant vector; with a
    # consistent rhs the deflated solve matches the pseudoinverse solution
    n = 16
    mat = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    mat[0, -1] = mat[-1, 0] = -1.0
    rhs = make_rng(10).standard_normal(n)
    rhs -= rhs.mean()
    cfg = SolveConfig(rel_tol=1e-12)
    x, rep = cg_solve(lambda v: mat @ v, rhs, cfg, project=lambda a: np.subtract(a, a.mean(), out=a))
    assert rep.converged
    want = np.linalg.pinv(mat) @ rhs
    assert np.max(np.abs(x - want)) <= 1e-9
    assert abs(x.mean()) <= 1e-13


def test_custom_projection_hook():
    # deflate against a non-constant kernel vector via the project argument
    n = 12
    kern = np.ones(n)
    kern[: n // 2] = -1.0
    kern /= np.linalg.norm(kern)
    base = spd_matrix(n, seed=11)
    proj = np.eye(n) - np.outer(kern, kern)
    mat = proj @ base @ proj

    def project(arr):
        arr -= (arr @ kern) * kern
        return arr

    rhs = project(make_rng(12).standard_normal(n))
    cfg = SolveConfig(rel_tol=1e-12)
    x, rep = cg_solve(lambda v: mat @ v, rhs, cfg, project=project)
    assert rep.converged
    assert abs(x @ kern) <= 1e-12
    assert np.max(np.abs(mat @ x - rhs)) <= 1e-9


def test_breakdown_on_indefinite_operator():
    mat = np.diag([1.0, -1.0, 2.0])
    rhs = np.array([0.0, 1.0, 0.0])
    with pytest.raises(NumericalBreakdownError):
        cg_solve(lambda v: mat @ v, rhs)


def test_breakdown_on_nan():
    def bad(v):
        out = v.copy()
        out[0] = np.nan
        return out

    with pytest.raises(NumericalBreakdownError):
        cg_solve(bad, np.ones(4))
    with pytest.raises(NumericalBreakdownError):
        cg_solve(lambda v: v, np.array([np.inf, 1.0]))


def test_bitwise_determinism():
    mat = spd_matrix(35, seed=13)
    rhs = make_rng(14).standard_normal(35)
    x1, r1 = cg_solve(lambda v: mat @ v, rhs)
    x2, r2 = cg_solve(lambda v: mat @ v, rhs)
    assert np.array_equal(x1, x2)
    assert r1 == r2


def test_rhs_not_mutated():
    mat = spd_matrix(10, seed=15)
    rhs = make_rng(16).standard_normal(10)
    keep = rhs.copy()
    cg_solve(lambda v: mat @ v, rhs, SolveConfig(), project=lambda a: np.subtract(a, a.mean(), out=a))
    assert np.array_equal(rhs, keep)


@pytest.mark.parametrize("bad", [
    {"rel_tol": float("nan")}, {"rel_tol": float("inf")}, {"rel_tol": -1e-12},
    {"abs_tol": float("nan")}, {"abs_tol": -1.0}, {"max_iter": 0}, {"max_iter": -3},
])
def test_solve_config_rejects_tolerances_that_cannot_stop_a_solve(bad):
    with pytest.raises(ValueError):
        SolveConfig(**bad)


def test_solve_config_accepts_zero_tolerances():
    cfg = SolveConfig(rel_tol=0.0, abs_tol=0.0, max_iter=1)
    _, rep = cg_solve(lambda v: v, np.ones(3), cfg)
    assert rep.iterations == 1
