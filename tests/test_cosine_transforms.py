"""The half-length DCT-II pair against the even-extension transforms it
replaced, the explicit cosine matrix and the preconditioner built on the old
pair; and the strip pressure solves on grids whose DCT has length 1 or 2."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokesdd import (
    SchemeConfig,
    SolveConfig,
    assemble_dense,
    build_strips,
    cg_solve,
    dd_pressure_substeps,
    make_grid,
    pressure_to_vector,
    run,
)
from stokesdd.operators import _divergence_raw, _gradient_raw
from stokesdd.transforms import _along, _cosine, _cosine_inverse, _twiddles, neumann_preconditioner
from stokesdd.verify import ManufacturedCase, exact_velocity, forcing_of, make_rng, random_decomposed

TIGHT = SolveConfig(rel_tol=1e-12, abs_tol=1e-15)
EPS = np.finfo(float).eps


# -- the even-extension pair, kept as the reference: an rfft of length 2n

def _reference_twiddles(n):
    tw = np.exp(-0.5j * math.pi * np.arange(n + 1) / n)
    return tw, np.conj(tw[:n])


def _reference_cosine(b, axis, tw):
    """b <- 2 DCT-II of b along axis: Re(tw * rfft(even extension of b))."""
    n = b.shape[axis]
    ext = np.concatenate([b, np.flip(b, axis)], axis=axis)
    spec = np.fft.rfft(ext, axis=axis) * tw
    np.copyto(b, spec.real[_along(axis, slice(0, n))])


def _reference_cosine_inverse(b, axis, twc):
    """First half of irfft(conj(tw) * b, padded with a zero mode)."""
    n = b.shape[axis]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (0, 1)
    spec = np.pad(b * twc, pad)
    np.copyto(b, np.fft.irfft(spec, n=2 * n, axis=axis)[_along(axis, slice(0, n))])


def _shaped(v, axis):
    return v.reshape((-1, 1) if axis == 0 else (1, -1))


def _reference_preconditioner(grid, r):
    z = np.zeros_like(r)
    block = z[1:, 1:]
    block[...] = r[1:, 1:]
    lams = []
    for axis, (n, h) in enumerate(((grid.n1, grid.h1), (grid.n2, grid.h2))):
        tw, _ = _reference_twiddles(n)
        _reference_cosine(block, axis, _shaped(tw, axis))
        lams.append(_shaped((4.0 / h**2) * np.sin(0.5 * math.pi * np.arange(n) / n) ** 2, axis))
    den = lams[0] + lams[1]
    den[0, 0] = math.inf
    block /= den
    for axis, n in ((1, grid.n2), (0, grid.n1)):
        _, twc = _reference_twiddles(n)
        _reference_cosine_inverse(block, axis, _shaped(twc, axis))
    return z


# -- the half-length pair

def _transform(b, axis, inverse=False):
    """Run _cosine (or its inverse) on a copy of b with freshly sized work arrays."""
    n = b.shape[axis]
    out = b.copy()
    spec_shape = list(b.shape)
    spec_shape[axis] = n // 2 + 1
    tw, twc = _twiddles(n)
    ext, spec = np.empty(b.shape), np.empty(spec_shape, dtype=complex)
    if inverse:
        _cosine_inverse(out, axis, ext, spec, _shaped(twc, axis))
    else:
        _cosine(out, axis, ext, spec, _shaped(tw, axis))
    return out


@st.composite
def blocks(draw):
    """(b, axis): a block of 1-5 batch rows, each of length n = 1..64 along axis."""
    n = draw(st.integers(1, 64))
    rows = draw(st.integers(1, 5))
    axis = draw(st.sampled_from((0, 1)))
    seed = draw(st.integers(0, 2**32 - 1))
    b = make_rng(seed).uniform(-1.0, 1.0, (n, rows) if axis == 0 else (rows, n))
    return b, axis


def _block(n, rows, axis, seed=0):
    return make_rng(seed).uniform(-1.0, 1.0, (n, rows) if axis == 0 else (rows, n)), axis


# n = 1 and 2 (the strip DCT on n2 = 2 and 3), odd, even and prime lengths
EDGES = [_block(n, rows, axis) for n, rows, axis in ((1, 1, 0), (1, 5, 1), (2, 3, 0), (2, 1, 1), (3, 2, 1), (61, 4, 0), (64, 5, 1))]


def _with_edges(test):
    for case in EDGES:
        test = example(case)(test)
    return test


@settings(deadline=None, max_examples=150)
@given(blocks())
@_with_edges
def test_cosine_matches_the_cosine_matrix(case):
    b, axis = case
    n = b.shape[axis]
    j = np.arange(n)
    mat = np.cos(math.pi * np.outer(j, 2 * j + 1) / (2 * n))
    want = mat @ b if axis == 0 else b @ mat.T
    got = _transform(b, axis)
    assert np.max(np.abs(got - want)) <= 10 * n * EPS * np.max(np.abs(b))


@settings(deadline=None, max_examples=150)
@given(blocks())
@_with_edges
def test_cosine_matches_the_even_extension(case):
    b, axis = case
    n = b.shape[axis]
    want = b.copy()
    tw, _ = _reference_twiddles(n)
    _reference_cosine(want, axis, _shaped(tw, axis))
    got = _transform(b, axis)
    assert np.max(np.abs(2.0 * got - want)) <= 10 * n * EPS * np.max(np.abs(b))


@settings(deadline=None, max_examples=150)
@given(blocks())
@_with_edges
def test_cosine_inverse_undoes_cosine(case):
    b, axis = case
    n = b.shape[axis]
    back = _transform(_transform(b, axis), axis, inverse=True)
    assert np.max(np.abs(back - b)) <= 10 * n * EPS * np.max(np.abs(b))


@st.composite
def stretched_grids(draw):
    n1 = draw(st.integers(2, 48))
    n2 = draw(st.integers(2, 48).filter(lambda n: n != n1))
    aspect = draw(st.floats(0.25, 4.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_grid(aspect, 1.0, n1, n2), seed


@settings(deadline=None, max_examples=80)
@given(stretched_grids())
@example((make_grid(4.0, 1.0, 64, 63), 1))
@example((make_grid(1.0, 4.0, 2, 3), 2))
def test_neumann_preconditioner_matches_the_even_extension(case):
    grid, seed = case
    r = make_rng(seed).uniform(-1.0, 1.0, grid.shape)
    want = _reference_preconditioner(grid, r)
    apply = neumann_preconditioner(grid)
    got = apply(r)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert not got[0].any() and not got[:, 0].any()
    assert np.array_equal(apply(r), got)  # the reused work arrays carry nothing over


# -- strip pressure solves whose DCT along x2 has length n2 - 1 = 1 or 2

def _strip_pressure_matrix(grid, eta):
    """-div(eta^2 grad) on the pressure nodes, assembled densely."""
    mask = assemble_dense("mask", grid, eta=eta)
    return -assemble_dense("divergence", grid) @ mask @ mask @ assemble_dense("gradient", grid)


@pytest.mark.parametrize("n2", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_short_strip_pressures_match_plain_cg_in_the_minimum_norm_gauge(n2, m):
    grid = make_grid(3.0, 1.0, 9, n2)
    part = build_strips(grid, m, 1)
    tau = 0.1
    U = random_decomposed(grid, m, make_rng(10 * n2 + m))
    status: dict = {}
    _, pressures = dd_pressure_substeps(U, tau, part, TIGHT, status)
    assert status["cg_iters"] == 0
    for chi, comp, p in zip(part.masks, U.components, pressures):
        eta = chi.eta
        rhs = -(1.0 / tau) * _divergence_raw(eta * comp.data, grid)
        want, rep = cg_solve(lambda q: -_divergence_raw(eta * eta * _gradient_raw(q, grid), grid), rhs, TIGHT)
        assert rep.converged
        lam, vecs = np.linalg.eigh(_strip_pressure_matrix(grid, eta))
        kernel = lam <= 1e-9 * lam[-1]
        kappa = lam[-1] / lam[~kernel][0] if (~kernel).any() else 1.0
        scale = np.linalg.norm(want) + 1e-300
        assert np.linalg.norm(p.p - want) <= kappa * (10 * TIGHT.rel_tol + 1e3 * EPS) * scale
        vec = pressure_to_vector(p)
        assert np.linalg.norm(vecs[:, kernel].T @ vec) <= 1e-12 * max(np.linalg.norm(vec), 1e-300)
        assert not p.p[0].any() and not p.p[:, 0].any()


def test_decomposed_run_on_a_grid_two_cells_high():
    case = ManufacturedCase()
    grid = make_grid(4.0, 1.0, 8, 2)
    cfg = SchemeConfig(
        v=exact_velocity(case, grid, 0.0), tau=0.025, t_final=0.25, scheme="decomposed", m=2, overlap=1,
        forcing=forcing_of(case, grid),
    )
    res = run(cfg)
    assert res.completed and len(res.reports) == 10
    assert all(rep.div_scale > 0.0 and rep.div_residual <= 1e-12 for rep in res.reports)
    assert np.isfinite(res.velocity.data).all()
