"""The basis system of the monolithic pressure PCG keeps its diagonal only.

cosine_pressure_system holds the diagonal den = lam1 (+) lam2, two (n1, n2)
buffers and vectors; precondition forms 1 / den in its output buffer on each
call, with den[0, 0] set to inf for that division and put back to 0.0, so it
returns the bits of a stored inverse times r without holding that inverse.
A projection then peaks at six (n1, n2) arrays: the PCG's iterate, residual
and direction, the diagonal and the two buffers.
"""

import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from stokesdd import cli, make_grid, make_rng, pressure_projection, random_velocity, schemes
from stokesdd.transforms import _cosine_basis, cosine_pressure_system


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("n", [64, 128, 256])
def test_system_holds_fewer_than_three_and_a_half_arrays(n):
    grid = make_grid(1.0, 1.0, n, n)
    cosine_pressure_system(grid)  # fills the shared basis cache
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system = cosine_pressure_system(grid)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(system) == 3
    assert held / (8 * n * n) < 3.5


@pytest.mark.parametrize("l1, n1, n2", [(1.0, 128, 128), (1.0, 256, 256), (2.0, 128, 96)])
def test_projection_peaks_below_six_and_a_half_pressure_arrays(l1, n1, n2):
    grid = make_grid(l1, 1.0, n1, n2)
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
    assert (peak - live) / (8 * (n1 + 1) * (n2 + 1)) < 6.5


def _den_inf(grid):
    _, _, lam1, _, _, lam2 = _cosine_basis(grid)
    den = lam1[:, None] + lam2
    den[0, 0] = np.inf
    return den


@pytest.mark.parametrize("n1, n2", [(2, 2), (24, 17), (64, 64)])
def test_precondition_gives_the_bits_of_the_stored_inverse(n1, n2):
    grid = make_grid(1.0, 1.0, n1, n2)
    _, precondition, _ = cosine_pressure_system(grid)
    r = make_rng(3).standard_normal((n1, n2))
    r[0, 0] = -2.5  # mode (0, 0) gives -0.0
    r[1, 1] = -0.0
    r[-1, 0] = 0.0
    expected = (1.0 / _den_inf(grid)) * r
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = precondition(r.copy())
    assert _bits(z) == _bits(expected)
    assert np.signbit(z[0, 0]) and z[0, 0] == 0.0
    assert np.signbit(z[1, 1])


@pytest.mark.parametrize("n1, n2", [(2, 2), (24, 17), (64, 64)])
def test_apply_is_unchanged_by_a_precondition_call(n1, n2):
    grid = make_grid(1.0, 1.0, n1, n2)
    apply, precondition, _ = cosine_pressure_system(grid)
    rng = make_rng(4)
    y = rng.standard_normal((n1, n2))
    before = apply(y).copy()
    precondition(rng.standard_normal((n1, n2)))
    assert _bits(apply(y)) == _bits(before)


@pytest.mark.parametrize("l1, n1, n2", [(1.0, 16, 16), (1.0, 24, 17), (4.0, 64, 64)])
def test_three_monolithic_steps_raise_no_warning(l1, n1, n2):
    conf = {key: default for key, (_, default) in cli._KEYS.items()}
    conf.update(l1=l1, n1=n1, n2=n2, tau=0.1, t_final=0.3)
    cfg = cli.build_scheme_config(conf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = schemes.run(cfg)
    assert result.completed, result.message
    assert len(result.reports) == 3
