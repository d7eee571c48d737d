"""Storage of a decomposed velocity and of the strip weights.

A decomposed velocity is one (m, 2, n1+1, n2+1) array with per-strip views;
the strip weights are one (m, n1+1, 1) table.  The operations on them must
give, bit for bit, what a per-strip loop over full-grid masks gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd import (
    DecomposedVelocity,
    GridMismatchError,
    VelocityField,
    ViscousOperator,
    apply_coupling,
    apply_coupling_lower,
    apply_coupling_upper,
    apply_viscous,
    blend_pressures,
    build_strips,
    decompose,
    make_grid,
    recompose,
)
from stokesdd.verify import make_rng, random_decomposed, random_pressure, random_velocity

grids = st.builds(
    make_grid,
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.integers(2, 16),
    st.integers(2, 16),
)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def partitions(draw):
    """(partition, seed) with m in 1..5 and overlap in 0..3."""
    m = draw(st.integers(1, 5))
    overlap = draw(st.integers(0, 3))
    n1 = draw(st.integers(max(2, m * (overlap + 1)), 30))
    n2 = draw(st.integers(2, 12))
    grid = make_grid(draw(st.floats(0.25, 4.0)), 1.0, n1, n2)
    return build_strips(grid, m, overlap), draw(seeds)


def boundary_is_zero(arr: np.ndarray) -> bool:
    return not (arr[..., 0, :].any() or arr[..., -1, :].any() or arr[..., :, 0].any() or arr[..., :, -1].any())


@settings(deadline=None)
@given(grids, st.integers(1, 4), seeds)
def test_wrap_takes_the_array_without_copying(grid, m, seed):
    data = np.random.default_rng(seed).uniform(1.0, 2.0, (m, 2) + grid.shape)
    interior = data[:, :, 1:-1, 1:-1].copy()
    U = DecomposedVelocity.wrap(grid, data)
    assert U.data is data
    assert U.m == m and U.grid == grid
    assert boundary_is_zero(data)
    assert np.array_equal(data[:, :, 1:-1, 1:-1], interior)


@settings(deadline=None)
@given(grids, st.sampled_from([(0, 1, 0), (0, 0, 1), (0, -1, 0), (1, 0, 0), (-1, 0, 0)]))
def test_wrap_rejects_wrong_shapes(grid, delta):
    shape = (2 + delta[0], grid.shape[0] + delta[1], grid.shape[1] + delta[2])
    with pytest.raises(GridMismatchError):
        DecomposedVelocity.wrap(grid, np.ones((3,) + shape))
    with pytest.raises(GridMismatchError):
        DecomposedVelocity.wrap(grid, np.ones((2,) + grid.shape))
    with pytest.raises(ValueError):
        DecomposedVelocity.wrap(grid, np.ones((0, 2) + grid.shape))


@settings(deadline=None)
@given(grids, st.integers(1, 4), seeds)
def test_list_constructor_copies_and_components_write_through(grid, m, seed):
    rng = make_rng(seed)
    fields = [random_velocity(grid, rng) for _ in range(m)]
    before = [u.data.copy() for u in fields]
    U = DecomposedVelocity(fields)
    assert U.data.shape == (m, 2) + grid.shape
    for a, u in enumerate(fields):
        assert not np.shares_memory(U.data, u.data)
        assert np.array_equal(U.data[a], u.data)
        assert np.shares_memory(U.components[a].data, U.data)
    U.components[m - 1].u2[1, 1] = 7.0
    U.data[0, 0, 1, 1] = -3.0
    assert U.data[m - 1, 1, 1, 1] == 7.0 and U.components[0].u1[1, 1] == -3.0
    assert all(np.array_equal(u.data, b) for u, b in zip(fields, before))
    c = U.copy()
    assert not np.shares_memory(c.data, U.data) and np.array_equal(c.data, U.data)


def test_list_constructor_rejects_mixed_grids_and_no_fields():
    u = VelocityField.zeros(make_grid(1.0, 1.0, 4, 4))
    w = VelocityField.zeros(make_grid(1.0, 1.0, 4, 5))
    with pytest.raises(GridMismatchError):
        DecomposedVelocity([u, w])
    with pytest.raises(ValueError):
        DecomposedVelocity([])


@settings(deadline=None)
@given(partitions())
def test_masks_are_the_weight_table_broadcast_over_x2(case):
    part, _ = case
    assert part.eta.shape == (part.m, part.grid.n1 + 1, 1)
    assert len(part.masks) == part.m
    for chi, eta in zip(part.masks, part.eta):
        assert chi.eta.shape == part.grid.shape
        assert np.array_equal(chi.eta, np.broadcast_to(eta, part.grid.shape))


@settings(deadline=None)
@given(partitions())
def test_decompose_and_recompose_equal_the_mask_loop(case):
    part, seed = case
    u = random_velocity(part.grid, make_rng(seed))
    U = decompose(part, u)
    assert np.array_equal(U.data, np.stack([chi.eta * u.data for chi in part.masks]))
    want = np.zeros((2,) + part.grid.shape)
    for chi, x in zip(part.masks, U.data):
        want += chi.eta * x
    assert np.array_equal(recompose(part, U).data, want)


@settings(deadline=None)
@given(partitions())
def test_blend_pressures_equals_the_mask_loop(case):
    part, seed = case
    rng = make_rng(seed)
    pressures = [random_pressure(part.grid, rng) for _ in range(part.m)]
    want = np.zeros(part.grid.shape)
    for chi, p in zip(part.masks, pressures):
        want += chi.eta * p.p
    assert np.array_equal(blend_pressures(part, pressures).p, want)


@settings(deadline=None)
@given(partitions(), st.floats(0.1, 10.0))
def test_coupling_operators_equal_the_mask_loop(case, nu):
    part, seed = case
    grid = part.grid
    op = ViscousOperator(grid, nu)
    U = random_decomposed(grid, part.m, make_rng(seed))

    def viscous(x):
        return apply_viscous(op, VelocityField.wrap(grid, x)).data

    w = np.zeros((2,) + grid.shape)
    for chi, x in zip(part.masks, U.data):
        w += chi.eta * x
    aw = viscous(w)
    assert np.array_equal(apply_coupling(part.masks, op, U).data, np.stack([chi.eta * aw for chi in part.masks]))

    for apply, order in ((apply_coupling_lower, range(part.m)), (apply_coupling_upper, range(part.m - 1, -1, -1))):
        rows = [None] * part.m
        before = np.zeros((2,) + grid.shape)
        for a in order:
            eta = part.masks[a].eta
            own = eta * U.data[a]
            rows[a] = eta * viscous(before + 0.5 * own)
            before += own
        assert np.array_equal(apply(part.masks, op, U).data, np.stack(rows))


@settings(deadline=None)
@given(grids, st.integers(1, 5), seeds, st.floats(0.1, 3.0))
def test_random_decomposed_is_m_successive_velocity_draws(grid, m, seed, scale):
    got = random_decomposed(grid, m, make_rng(seed), scale)
    rng = make_rng(seed)
    want = [random_velocity(grid, rng, scale) for _ in range(m)]
    assert np.array_equal(got.data, np.stack([u.data for u in want]))
