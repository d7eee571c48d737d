"""The inner products' sums are np.sum's, bit for bit.

dot_velocity, dot_decomposed and dot_pressure reduce each product with
np.add.reduce over all axes, the reduction np.sum makes behind its python
wrapper.  Each is checked against the same expression written with np.sum,
compared as bytes (so the sign of a zero and a nan count), on random planes:
plain, with -0.0 entries and a whole -0.0 component, with one entry whose
square overflows, and with one nan.
"""

import numpy as np
import pytest

from stokesdd import DecomposedVelocity, PressureField, VelocityField, dot_decomposed, dot_pressure, dot_velocity, make_grid

SIZES = [(2, 2), (2, 3), (16, 16), (43, 7), (128, 128), (257, 64)]
KINDS = ["random", "negative_zero", "overflow", "nan"]
SPECIAL = {"overflow": np.isposinf, "nan": np.isnan}


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _planes(kind: str, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Random planes of ``shape``; the special entry sits on node (1, 1), an interior node of every field."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    if kind == "negative_zero":
        x[rng.random(shape) < 0.3] = -0.0
        x[..., 0, :, :] = -0.0
    elif kind == "overflow":
        x[..., 1, 1] = 1e200
    elif kind == "nan":
        x[..., 1, 1] = np.nan
    return x


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.sum(x * y))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n1,n2", SIZES)
def test_inner_products_keep_np_sums_bits(kind, n1, n2):
    grid = make_grid(1.3, 0.7, n1, n2)
    rng = np.random.default_rng(n1 * 1000 + n2 + KINDS.index(kind))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            u, v = (VelocityField.wrap(grid, _planes(kind, (2, n1 + 1, n2 + 1), rng)) for _ in range(2))
            for a, b in ((u, u), (u, v)):
                want = grid.cell_area * (_sum_of_products(a.data[0], b.data[0]) + _sum_of_products(a.data[1], b.data[1]))
                assert _bits(dot_velocity(a, b)) == _bits(want)
            U, V = (DecomposedVelocity.wrap(grid, _planes(kind, (3, 2, n1 + 1, n2 + 1), rng)) for _ in range(2))
            want = sum(grid.cell_area * (_sum_of_products(x[0], y[0]) + _sum_of_products(x[1], y[1]))
                       for x, y in zip(U.data, V.data))
            assert _bits(dot_decomposed(U, V)) == _bits(want)
            p, q = (PressureField.wrap(grid, _planes(kind, (1, n1 + 1, n2 + 1), rng)[0]) for _ in range(2))
            for a, b in ((p, p), (p, q)):
                assert _bits(dot_pressure(a, b)) == _bits(grid.cell_area * _sum_of_products(a.p, b.p))
        if kind in SPECIAL:  # the last planes' squares reach the special entry
            assert SPECIAL[kind](dot_velocity(u, u)) and SPECIAL[kind](dot_decomposed(U, U)) and SPECIAL[kind](dot_pressure(p, p))
