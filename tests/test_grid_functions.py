"""One contract for the three grid-function types.

A velocity, a pressure and a decomposed velocity are each a grid and one
float array.  Constructors and ``copy`` copy; ``wrap`` adopts the array and
zeroes it outside the node set in place; ``zeros`` makes the zero field.  A
decomposed velocity's per-strip views are made when first read, and its
inner product sums the strips from ``data`` exactly as a loop of
``dot_velocity`` over those views does.
"""

import math

import numpy as np
import pytest

from stokesdd import (
    DecomposedVelocity,
    GridMismatchError,
    PressureField,
    VelocityField,
    dot_decomposed,
    dot_velocity,
    make_grid,
    norm_decomposed,
)
from stokesdd.verify import make_rng

GRID = make_grid(1.3, 0.7, 9, 7)


def _boundary(shape: tuple[int, ...]) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[..., 1:-1, 1:-1] = False
    return mask


def _pressure_outside(shape: tuple[int, ...]) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[..., 1:, 1:] = False
    return mask


# type, leading axes, lines outside the node set, constructor from an array of that shape
KINDS = {
    "velocity": (VelocityField, (2,), _boundary, lambda arr: VelocityField(GRID, arr[0], arr[1])),
    "pressure": (PressureField, (), _pressure_outside, lambda arr: PressureField(GRID, arr)),
    "decomposed": (DecomposedVelocity, (3, 2), _boundary,
                   lambda arr: DecomposedVelocity([VelocityField(GRID, *x) for x in arr])),
}


@pytest.fixture(params=list(KINDS))
def kind(request):
    return KINDS[request.param]


def test_wrap_adopts_and_zeroes_outside_the_node_set(kind):
    cls, lead, outside, _ = kind
    arr = make_rng(1).uniform(1.0, 2.0, lead + GRID.shape)
    before = arr.copy()
    field = cls.wrap(GRID, arr)
    assert type(field) is cls and field.data is arr and field.grid == GRID
    mask = outside(arr.shape)
    assert not arr[mask].any()
    assert np.array_equal(arr[~mask], before[~mask])


def test_pressure_p_is_the_field_array():
    arr = np.ones(GRID.shape)
    field = PressureField.wrap(GRID, arr)
    assert field.p is field.data is arr


def test_wrap_rejects_wrong_shapes(kind):
    cls, lead, _, _ = kind
    n1, n2 = GRID.shape
    shapes = [lead + (n1 + 1, n2), lead + (n1, n2 - 1), lead + (n1 * n2,), (1,) + lead + GRID.shape, ()]
    if lead:  # the first leading axis missing, or of length zero
        shapes += [lead[1:] + GRID.shape, (0,) + lead[1:] + GRID.shape]
    for shape in shapes:
        with pytest.raises(GridMismatchError):
            cls.wrap(GRID, np.zeros(shape))


def test_constructor_and_copy_copy(kind):
    cls, lead, outside, construct = kind
    arr = make_rng(2).uniform(-2.0, -1.0, lead + GRID.shape)
    before = arr.copy()
    field = construct(arr)
    assert type(field) is cls and field.grid == GRID
    assert not np.shares_memory(field.data, arr) and np.array_equal(arr, before)
    mask = outside(arr.shape)
    assert not field.data[mask].any() and np.array_equal(field.data[~mask], before[~mask])
    dup = field.copy()
    assert type(dup) is cls and dup.grid == GRID
    assert not np.shares_memory(dup.data, field.data) and np.array_equal(dup.data, field.data)


def test_zeros(kind):
    cls, lead, _, _ = kind
    field = cls.zeros(GRID)
    assert type(field) is cls and field.grid == GRID
    assert field.data.shape == ((1, 2) if cls is DecomposedVelocity else lead) + GRID.shape  # one strip
    assert field.data.dtype == float and not field.data.any()


def _signed_zero_data(m: int, seed: int) -> np.ndarray:
    """Random values, about a third of them +0.0 or -0.0, and one strip all -0.0."""
    rng = make_rng(seed)
    data = rng.uniform(-1.0, 1.0, (m, 2) + GRID.shape)
    data[rng.random(data.shape) < 0.3] = 0.0
    data[rng.random(data.shape) < 0.3] = -0.0
    data[m // 2] = -0.0
    return data


def _bits(x: float) -> str:
    return float(x).hex() + ("-" if math.copysign(1.0, x) < 0 else "+")


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decomposed_dot_and_norm_equal_the_strip_loop_bit_for_bit(m, seed):
    U = DecomposedVelocity.wrap(GRID, _signed_zero_data(m, seed))
    V = DecomposedVelocity.wrap(GRID, _signed_zero_data(m, seed + 100))
    for a, b in ((U, V), (V, U), (U, U)):
        want = sum(dot_velocity(ca, cb) for ca, cb in zip(a.components, b.components))
        assert _bits(dot_decomposed(a, b)) == _bits(want)
    norm = math.sqrt(sum(dot_velocity(c, c) for c in U.components))
    assert _bits(norm_decomposed(U)) == _bits(norm)


@pytest.mark.parametrize("m", [1, 3])
def test_components_are_built_on_first_read_and_write_through(m):
    data = make_rng(3).uniform(1.0, 2.0, (m, 2) + GRID.shape)
    U = DecomposedVelocity.wrap(GRID, data)
    assert "components" not in vars(U)
    views = U.components
    assert U.components is views and len(views) == m
    for a, view in enumerate(views):
        assert type(view) is VelocityField and view.grid == GRID and np.shares_memory(view.data, data)
        view.u2[2, 3] = 7.0 + a
        assert data[a, 1, 2, 3] == 7.0 + a
    data[m - 1, 0, 4, 4] = -5.0
    assert views[m - 1].u1[4, 4] == -5.0
