"""Storage of a velocity: one (2, n1+1, n2+1) array with component views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd import GridMismatchError, VelocityField, make_grid

grids = st.builds(
    make_grid,
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.integers(2, 24),
    st.integers(2, 24),
)
seeds = st.integers(0, 2**32 - 1)


def boundary_is_zero(arr: np.ndarray) -> bool:
    return not (arr[..., 0, :].any() or arr[..., -1, :].any() or arr[..., :, 0].any() or arr[..., :, -1].any())


@settings(deadline=None)
@given(grids, seeds)
def test_component_views_write_through(grid, seed):
    rng = np.random.default_rng(seed)
    u = VelocityField.zeros(grid)
    a, b = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    u.u1[...] = a
    u.u2[...] = b
    assert u.data.shape == (2,) + grid.shape
    assert np.array_equal(u.data[0], a) and np.array_equal(u.data[1], b)
    u.data[1, 1, 1] = 7.0
    assert u.u2[1, 1] == 7.0


@settings(deadline=None)
@given(grids, seeds)
def test_copy_shares_no_memory(grid, seed):
    rng = np.random.default_rng(seed)
    u = VelocityField(grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape))
    c = u.copy()
    assert not np.shares_memory(c.data, u.data)
    assert np.array_equal(c.data, u.data)
    before = u.data.copy()
    c.u1[1, 1] += 1.0
    c.u2[...] = 0.0
    assert np.array_equal(u.data, before)


@settings(deadline=None)
@given(grids, seeds)
def test_constructor_copies_and_zeroes_boundary(grid, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 2.0, grid.shape)
    b = rng.uniform(-2.0, -1.0, grid.shape)
    a_in, b_in = a.copy(), b.copy()
    u = VelocityField(grid, a, b)
    assert np.array_equal(a, a_in) and np.array_equal(b, b_in)
    assert not np.shares_memory(u.data, a) and not np.shares_memory(u.data, b)
    assert boundary_is_zero(u.data)
    assert np.array_equal(u.u1[1:-1, 1:-1], a[1:-1, 1:-1])
    assert np.array_equal(u.u2[1:-1, 1:-1], b[1:-1, 1:-1])


@settings(deadline=None)
@given(grids, seeds)
def test_wrap_takes_the_array_without_copying(grid, seed):
    data = np.random.default_rng(seed).uniform(1.0, 2.0, (2,) + grid.shape)
    interior = data[:, 1:-1, 1:-1].copy()
    u = VelocityField.wrap(grid, data)
    assert u.data is data
    assert boundary_is_zero(data)
    assert np.array_equal(data[:, 1:-1, 1:-1], interior)


@settings(deadline=None)
@given(grids, st.sampled_from([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)]))
def test_wrong_shape_rejected_by_both_entry_points(grid, delta):
    shape = (grid.shape[0] + delta[0], grid.shape[1] + delta[1])
    with pytest.raises(GridMismatchError):
        VelocityField(grid, np.ones(shape), np.ones(shape))
    with pytest.raises(GridMismatchError):
        VelocityField(grid, np.ones(grid.shape), np.ones(shape))
    with pytest.raises(GridMismatchError):
        VelocityField.wrap(grid, np.ones((2,) + shape))
    with pytest.raises(GridMismatchError):
        VelocityField.wrap(grid, np.ones(grid.shape))
