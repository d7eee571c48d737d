"""The direct solvers allocate their stated workspace and nothing hidden.

numpy 2.4 buffers an operand of a ufunc when it cannot run the whole loop
over one stride, a broadcast or reversed operand included, with up to 64 kB
per operand.  The kernels avoid those operations; what tracemalloc sees
above the arrays live at the call is the workspace their docstrings state,
plus the row views of the elimination and a few small objects.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from stokesdd import build_strips, make_grid, make_rng
from stokesdd.transforms import dirichlet_solve, pressure_solve, sweep_solve_rows

GRID = make_grid(1.0, 1.0, 64, 64)  # 65 x 65 nodes
PART = build_strips(GRID, 1, 0)
FLOAT, COMPLEX = 8, 16
# row views of the elimination (two per row), rfft's line buffers, small objects
SLACK_PER_ROW, SLACK = 320, 4096


def _extra(call) -> int:
    """Traced peak of a second call above what was live before it."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_sweep_solve_allocates_its_solution_ext_and_spec():
    f = PART.sweep_factors(1.0, 0.01)[0]
    rows, w = f.rows.stop - f.rows.start, GRID.n2 + 1
    x = make_rng(1).uniform(-1.0, 1.0, (2,) + GRID.shape)
    workspace = (2 * rows * w + 4 * rows * (w - 1)) * FLOAT + 2 * rows * w * COMPLEX
    assert _extra(lambda: sweep_solve_rows(x, f)) <= workspace + SLACK_PER_ROW * rows + SLACK


def test_pressure_solve_allocates_its_result_box_spec_and_ext():
    f = PART.pressure_factors[0]
    rows, n2 = f.rows.stop - f.rows.start, GRID.n2
    rhs = make_rng(2).uniform(-1.0, 1.0, GRID.shape)
    modes = (n2 - 1) // 2 + 1
    result = GRID.shape[0] * GRID.shape[1] * FLOAT
    workspace = rows * (n2 - 1) * FLOAT + 2 * rows * modes * COMPLEX
    gauge_sum = min(rows * n2, 8192) * FLOAT  # numpy's buffer for the sum over the strided box
    assert _extra(lambda: pressure_solve(rhs, f)) <= result + workspace + gauge_sum + SLACK_PER_ROW * rows + SLACK


@pytest.mark.parametrize("into", ["new", "rhs"])
def test_dirichlet_solve_allocates_its_two_work_arrays(into):
    n1, n2 = GRID.n1, GRID.n2
    rhs = make_rng(3).uniform(-1.0, 1.0, (2,) + GRID.shape)
    workspace = 2 * max(n1 * (n2 + 1), n2 * (n1 + 1)) * FLOAT + (n1 + 1) * (n2 + 1) * COMPLEX
    if into == "new":
        workspace += rhs.nbytes
        call = lambda: dirichlet_solve(rhs, GRID, 1.0, 0.01)  # noqa: E731
    else:
        call = lambda: dirichlet_solve(rhs, GRID, 1.0, 0.01, out=rhs)  # noqa: E731
    assert _extra(call) <= workspace + SLACK
