"""The strip windows the sweeps' coupling sum runs on, and the narrowest strip layouts.

A strip's window is its slab's inner rows, where its stencil apply is exact;
a strip with no slab has no window.  schemes._couple adds each solved strip's
apply to the coupling sum on its window, takes the sum off the next strip on
the rows their windows share, carries those rows on, and treats every other
row as final.  That is exact only under the invariant checked here for both
sweep orders.
"""

import numpy as np
import pytest

from stokesdd import build_strips, make_grid
from test_box_local_step import _check_step, residuals  # noqa: F401  (residuals is a fixture)


def _layouts(max_n1):
    """Every (n1, m, overlap) build_strips accepts with n1 <= max_n1."""
    return [(n1, m, overlap) for n1 in range(2, max_n1 + 1) for m in range(1, n1 + 1) for overlap in range(n1 // m)]


def _windows(part):
    """(m, n1 + 1) rows of booleans: True on the rows of each strip's window."""
    rows = np.arange(part.grid.n1 + 1)
    return np.array([
        np.zeros(rows.shape, bool) if slab is None else (rows > slab[0].start) & (rows < slab[0].stop - 1)
        for slab in part.slabs
    ])


def test_a_row_leaves_the_coupling_sum_only_where_no_later_strip_weighs_it():
    layouts = _layouts(32)
    assert len(layouts) == 1723
    for n1, m, overlap in layouts:
        part = build_strips(make_grid(1.0, 1.0, n1, 2), m, overlap)
        windows, weighed = _windows(part), part.eta[:, :, 0] > 0
        for order in (range(m), range(m - 1, -1, -1)):
            w = windows[list(order)]
            # a row two windows share lies in every window between them: on
            # each row the windows holding it form one run in sweep order
            runs = w[0].astype(int) + (w[1:] & ~w[:-1]).sum(axis=0)
            assert (runs <= 1).all(), (n1, m, overlap, order)
            for k in range(m - 1):
                final = w[k] & ~w[k + 1]
                later = weighed[list(order[k + 1 :])]
                assert not (later & final).any(), (n1, m, overlap, order, k)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_every_layout_up_to_twelve_rows_matches_the_full_grid_step_bit_for_bit(residuals, forced):
    """Strips one row wide carry a band through three windows or more."""
    layouts = _layouts(12)
    assert len(layouts) == 190
    for n1, m, overlap in layouts:
        grid = make_grid(1.0, 1.0, n1, 3)
        _check_step(grid, m, overlap, forced, np.random.default_rng(1000 * n1 + 10 * m + overlap), residuals)
        residuals.clear()
