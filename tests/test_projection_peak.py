"""The monolithic projection holds no right-hand side through its PCG.

cg_solve copies the right-hand side into its residual and drops it, and
pressure_projection hands it over without keeping a reference, so the
traced peak of a projection is the PCG's iterate, residual and direction
plus the basis system's diagonal, inverse diagonal and two buffers: seven
(n1, n2) arrays, where holding the right-hand side made eight.
"""

import gc
import tracemalloc

import pytest

from stokesdd import make_grid, make_rng, pressure_projection, random_velocity


@pytest.mark.parametrize("n", [64, 128])
def test_projection_peaks_below_seven_and_a_half_pressure_arrays(n):
    grid = make_grid(1.0, 1.0, n, n)
    u = random_velocity(grid, make_rng(5))
    pressure_projection(u, 0.05)
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        pressure_projection(u, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - live) / (8 * (n + 1) ** 2) < 7.5
