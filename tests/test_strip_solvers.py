"""The direct strip solves of the decomposed scheme: the sweep systems against
their dense matrices, the strip pressures against plain CG, breakdown on
non-finite input, and the factor cache on the partition."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd import (
    NumericalBreakdownError,
    SchemeConfig,
    SolveConfig,
    ViscousOperator,
    assemble_dense,
    build_strips,
    cg_solve,
    dd_backward_sweep,
    dd_forward_sweep,
    dd_pressure_substeps,
    decompose,
    make_grid,
    pressure_to_vector,
    run,
    velocity_to_vector,
)
from stokesdd import cli, partition
from stokesdd.operators import _divergence_raw, _gradient_raw
from stokesdd.transforms import sweep_solve
from stokesdd.verify import make_rng, random_decomposed, random_velocity

TIGHT = SolveConfig(rel_tol=1e-12, abs_tol=1e-15)
EPS = np.finfo(float).eps


@st.composite
def strip_problems(draw):
    """(grid, m, overlap, tau, nu, seed) with n1 != n2 and floor(n1 / m) > overlap."""
    m = draw(st.integers(1, 4))
    overlap = draw(st.integers(0, 3))
    n1 = draw(st.integers(max(2, m * (overlap + 1)), 20))
    n2 = draw(st.integers(2, 20).filter(lambda n: n != n1))
    aspect = draw(st.floats(0.25, 4.0))
    tau = 10.0 ** draw(st.floats(-4.0, 2.0))
    nu = 10.0 ** draw(st.floats(-2.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_grid(aspect, 1.0, n1, n2), m, overlap, tau, nu, seed


@settings(deadline=None, max_examples=40)
@given(strip_problems())
def test_sweep_strip_solves_match_dense(problem):
    grid, m, overlap, tau, nu, seed = problem
    part = build_strips(grid, m, overlap)
    rng = make_rng(seed)
    for chi, factors in zip(part.masks, part.sweep_factors(nu, tau)):
        rhs = random_velocity(grid, rng)
        mat = assemble_dense("implicit", grid, nu=nu, tau=tau, eta=chi.eta)
        want = np.linalg.solve(mat, velocity_to_vector(rhs))
        got = sweep_solve(rhs.data, factors)[:, 1:-1, 1:-1].ravel()
        # both solves are backward stable: the gap is bounded by the condition number
        bound = 100 * np.linalg.cond(mat) * EPS * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= bound


def _strip_pressure_matrix(grid, eta):
    """-div(eta^2 grad) on the pressure nodes, assembled densely."""
    mask = assemble_dense("mask", grid, eta=eta)
    return -assemble_dense("divergence", grid) @ mask @ mask @ assemble_dense("gradient", grid)


@settings(deadline=None, max_examples=40)
@given(strip_problems())
def test_strip_pressures_match_plain_cg(problem):
    grid, m, overlap, tau, _, seed = problem
    part = build_strips(grid, m, overlap)
    U = random_decomposed(grid, m, make_rng(seed))
    status: dict = {}
    U_new, pressures = dd_pressure_substeps(U, tau, part, TIGHT, status)
    assert status["cg_iters"] == 0
    for chi, comp, new, p in zip(part.masks, U.components, U_new.components, pressures):
        eta = chi.eta
        rhs = -(1.0 / tau) * _divergence_raw(eta * comp.data, grid)
        want, rep = cg_solve(lambda q: -_divergence_raw(eta * eta * _gradient_raw(q, grid), grid), rhs, TIGHT)
        assert rep.converged

        # CG's residual test, ||r|| <= 1e-12 ||rhs||, bounds its error by the
        # condition number on the range; the direct solve adds kappa * eps
        lam = np.linalg.eigvalsh(_strip_pressure_matrix(grid, eta))
        kernel = lam <= 1e-9 * lam[-1]
        kappa = lam[-1] / lam[~kernel][0] if (~kernel).any() else 1.0
        scale = np.linalg.norm(want) + 1e-300
        err = np.linalg.norm(p.p - want)
        assert err <= kappa * (10 * TIGHT.rel_tol + 1e3 * EPS) * scale

        grad_err = np.linalg.norm(eta * _gradient_raw(p.p - want, grid))
        assert grad_err <= np.sqrt(lam[-1]) * kappa * (10 * TIGHT.rel_tol + 1e3 * EPS) * scale
        correction = comp.data - tau * eta * _gradient_raw(p.p, grid)
        assert np.array_equal(new.data, correction)


@settings(deadline=None, max_examples=25)
@given(strip_problems())
def test_strip_pressures_are_in_the_minimum_norm_gauge(problem):
    # orthogonal to the kernel of the strip system: zero outside the strip's
    # box and on its isolated corner node, zero mean over the other box nodes
    grid, m, overlap, tau, _, seed = problem
    part = build_strips(grid, m, overlap)
    _, pressures = dd_pressure_substeps(random_decomposed(grid, m, make_rng(seed)), tau, part)
    for chi, p in zip(part.masks, pressures):
        lam, vecs = np.linalg.eigh(_strip_pressure_matrix(grid, chi.eta))
        kernel = vecs[:, lam <= 1e-9 * lam[-1]]
        vec = pressure_to_vector(p)
        assert np.linalg.norm(kernel.T @ vec) <= 1e-12 * max(np.linalg.norm(vec), 1e-300)
        assert not p.p[0].any() and not p.p[:, 0].any()


def test_strip_pressure_of_a_single_strip_is_the_monolithic_gauge():
    grid = make_grid(2.0, 1.0, 9, 7)
    part = build_strips(grid, 1, 0)
    _, (p,) = dd_pressure_substeps(random_decomposed(grid, 1, make_rng(3)), 0.1, part)
    assert p.p[-1, -1] == 0.0
    assert abs(p.p[1:, 1:].sum()) <= 1e-13 * np.abs(p.p).sum()


@pytest.mark.parametrize("stage", ["forward sweep", "backward sweep", "pressure substep"])
def test_non_finite_right_hand_side_raises(stage):
    grid = make_grid(4.0, 1.0, 16, 8)
    part = build_strips(grid, 2, 2)
    op = ViscousOperator(grid, 1.0)
    U = decompose(part, random_velocity(grid, make_rng(4)))
    U.components[1].data[0, 9, 4] = np.inf
    with pytest.raises(NumericalBreakdownError, match=f"{stage}, strip 1"), np.errstate(all="ignore"):
        if stage == "forward sweep":
            dd_forward_sweep(U, None, 0.1, op, part)
        elif stage == "backward sweep":
            dd_backward_sweep(U, 0.1, op, part)
        else:
            dd_pressure_substeps(U, 0.1, part)


def test_decomposed_steps_report_no_cg_iterations():
    grid = make_grid(2.0, 1.0, 12, 9)
    part = build_strips(grid, 3, 1)
    op = ViscousOperator(grid, 0.5)
    U = random_decomposed(grid, 3, make_rng(5))
    status: dict = {}
    dd_backward_sweep(dd_forward_sweep(U, U, 0.2, op, part, None, status), 0.2, op, part, None, status)
    assert status == {"cg_iters": 0}
    cfg = SchemeConfig(v=random_velocity(grid, make_rng(6)), tau=0.2, t_final=0.6, scheme="decomposed", m=3, overlap=1)
    res = run(cfg)
    assert res.completed and [r.cg_iters_total for r in res.reports] == [0, 0, 0]


def test_factor_cache_follows_each_partition():
    # partitions with different m built one after another, each dropped
    # before the next: a cache keyed by object identity would hand a new
    # partition the factors of a freed one at the same address
    grid = make_grid(3.0, 1.0, 12, 7)
    nu, tau = 0.8, 0.3
    rhs = random_velocity(grid, make_rng(6))
    want = {}
    for m in (1, 2, 3):
        masks = build_strips(grid, m, 1).masks
        mats = [assemble_dense("implicit", grid, nu=nu, tau=tau, eta=chi.eta) for chi in masks]
        want[m] = [np.linalg.solve(mat, velocity_to_vector(rhs)) for mat in mats]
    for m in (1, 2, 3, 1, 3, 2, 1, 2, 3, 1, 2, 3):
        part = build_strips(grid, m, 1)
        factors = part.sweep_factors(nu, tau)
        assert len(factors) == m
        for a in range(m):
            got = sweep_solve(rhs.data, factors[a])[:, 1:-1, 1:-1].ravel()
            assert np.max(np.abs(got - want[m][a])) <= 1e-12 * np.max(np.abs(want[m][a]))
        del part, factors
        gc.collect()


def test_factor_cache_is_keyed_by_nu_and_tau():
    grid = make_grid(1.0, 1.0, 10, 6)
    part = build_strips(grid, 2, 1)
    first = part.sweep_factors(1.0, 0.1)
    assert part.sweep_factors(1.0, 0.1) is first
    assert part.sweep_factors(1.0, 0.2) is not first
    assert part.sweep_factors(2.0, 0.1) is not first
    assert part.sweep_factors(1.0, 0.1) is first


def test_set_up_builds_no_factors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("strip factors built during set-up")

    monkeypatch.setattr(partition, "sweep_factors", refuse)
    monkeypatch.setattr(partition, "pressure_factors", refuse)
    conf = {key: default for key, (_, default) in cli._KEYS.items()}
    conf.update(scheme="decomposed", n1=16, n2=8, m=2, overlap=2)
    cfg = cli.build_scheme_config(conf)
    assert cfg.partition.m == 2
    with pytest.raises(AssertionError, match="set-up"):
        cfg.partition.sweep_factors(cfg.nu, cfg.tau)
