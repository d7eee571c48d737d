"""The five-point viscous kernel on flattened shifted slices against its two-axis form."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd import make_grid
from stokesdd.operators import _viscous_raw


def two_axis(x, grid, nu):
    """The stencil written with 2-D slices; the same operations in the same order."""
    out = np.zeros_like(x)
    c1 = nu / grid.h1**2
    c2 = nu / grid.h2**2
    inner = x[:, 1:-1, 1:-1]
    out[:, 1:-1, 1:-1] = c1 * (2.0 * inner - x[:, 2:, 1:-1] - x[:, :-2, 1:-1]) + c2 * (
        2.0 * inner - x[:, 1:-1, 2:] - x[:, 1:-1, :-2]
    )
    return out


@settings(deadline=None, max_examples=40)
@given(
    st.integers(2, 30), st.integers(2, 30), st.floats(0.25, 4.0), st.floats(1e-2, 10.0),
    st.integers(0, 2**32 - 1), st.booleans(),
)
def test_flat_kernel_is_bit_identical_to_the_two_axis_form(n1, n2, aspect, nu, seed, fortran):
    grid = make_grid(1.0, aspect, n1, n2)
    x = np.random.default_rng(seed).standard_normal((2,) + grid.shape)
    if fortran:
        x = np.asfortranarray(x)
    got = _viscous_raw(x, grid, nu)
    assert np.array_equal(got, two_axis(x, grid, nu))
    assert not (got[:, 0].any() or got[:, -1].any() or got[:, :, 0].any() or got[:, :, -1].any())
