"""``Partition.rows``: the one place strip extents become the rows a strip works on.

For every layout build_strips accepts with n1 <= 32, each strip's rows are
the interior rows where its weight is positive; the sweep factors solve on
exactly those rows, the pressure factors on them plus the next row (their
box), and the slab is the rows widened by two and cut to the grid.  A strip
with no interior row has empty rows, empty factors and no slab.
"""

import numpy as np

from stokesdd import build_strips, make_grid
from test_sweep_coupling import _layouts


def test_rows_decide_the_factor_rows_and_the_slab_of_every_strip():
    layouts = _layouts(32)
    assert len(layouts) == 1723
    for n1, m, overlap in layouts:
        part = build_strips(make_grid(1.0, 1.0, n1, 2), m, overlap)
        strips = zip(part.eta[:, :, 0], part.rows, part.sweep_factors(0.8, 0.03), part.pressure_factors, part.slabs, strict=True)
        for a, (eta, rows, sweep, pressure, slab) in enumerate(strips):
            where = (n1, m, overlap, a)
            interior = np.flatnonzero(eta[1:n1] > 0) + 1
            assert list(range(n1 + 1)[rows]) == list(interior), where
            assert sweep.rows == rows, where
            if not interior.size:
                assert not range(n1 + 1)[pressure.rows] and slab is None, where
                continue
            assert pressure.rows == slice(rows.start, rows.stop + 1), where
            cut, grid = slab
            assert cut == slice(max(rows.start - 2, 0), min(rows.stop + 2, n1 + 1)), where
            assert (grid.n1, grid.h1, grid.n2) == (cut.stop - cut.start - 1, part.grid.h1, part.grid.n2), where
