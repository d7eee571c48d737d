"""Overlapping strip decomposition of the grid with normalized weights.

The domain is cut into m vertical strips along direction 1.  Each strip gets
a nodal weight eta_a >= 0 supported on the strip; the squares of the weights
form a partition of unity, sum_a eta_a(x)^2 = 1 at every node.  Masking a
velocity by eta_a restricts it to the strip; summing the masked restrictions
recovers the original field because the squares sum to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .grid import DecomposedVelocity, GridMismatchError, GridSpec, VelocityField
from .operators import MaskOperator
from .transforms import StripFactors, _interior_rows, pressure_factors, sweep_factors


class InvalidPartitionError(ValueError):
    """Strip counts or overlaps that do not fit the grid."""


@dataclass
class Partition:
    """Strip decomposition: the strip weights plus the node extent of each strip.

    Every weight depends on i1 alone, so ``eta`` holds them as one
    (m, n1+1, 1) table that broadcasts against a field.  It also keeps the
    factors of the strip solves, built on first use: the sweep factors per
    (nu, tau), the pressure factors once, and the rows each strip works on.
    """

    grid: GridSpec
    eta: np.ndarray
    extents: list[tuple[int, int]]
    _sweep: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.eta)

    @cached_property
    def masks(self) -> list[MaskOperator]:
        """The weights as full-grid mask operators, for the dense path and the apply_* operators."""
        return [MaskOperator(self.grid, np.broadcast_to(eta, self.grid.shape)) for eta in self.eta]

    def sweep_factors(self, nu: float, tau: float) -> list[StripFactors]:
        """Per-strip factors of the sweep systems E + (tau/2) eta A eta."""
        key = (nu, tau)
        if key not in self._sweep:
            self._sweep[key] = [
                sweep_factors(self.grid, eta[:, 0], ext, nu, tau) for eta, ext in zip(self.eta, self.extents)
            ]
        return self._sweep[key]

    @cached_property
    def slabs(self) -> list[tuple[slice, GridSpec] | None]:
        """Per strip, the rows its work in a step runs on, and their grid.

        The slab is the strip's interior rows widened by two rows on each
        side, cut to the grid, so that a stencil or a difference taken on it
        is exact on the slab's inner rows: the interior rows widened by one.
        Its grid has the slab's cells and the full grid's spacings.  A strip
        with no interior row gets None: its work is empty.
        """
        slabs: list[tuple[slice, GridSpec] | None] = []
        for extent in self.extents:
            first, last = _interior_rows(self.grid, extent)
            if last < first:
                slabs.append(None)
                continue
            lo, hi = max(first - 2, 0), min(last + 2, self.grid.n1)
            slabs.append((slice(lo, hi + 1), replace(self.grid, n1=hi - lo, l1=(hi - lo) * self.grid.h1)))
        return slabs

    @cached_property
    def pressure_factors(self) -> list[StripFactors]:
        """Per-strip factors of the pressure systems -div(eta^2 grad)."""
        return [pressure_factors(self.grid, eta[:, 0], ext) for eta, ext in zip(self.eta, self.extents)]


def build_strips(grid: GridSpec, m: int, overlap: int) -> Partition:
    """Cut the grid into m vertical strips with the given node overlap.

    Parameters
    ----------
    m : int
        Number of strips, at least 1.
    overlap : int
        Number of nodes shared by adjacent strips, at least 0.  The shared
        nodes sit symmetrically about each strip interface; for odd overlaps
        the extra node goes to the lower-index strip.

    The raw strip weights are piecewise linear ramps that sum to one, equal
    to one on each strip core; the stored weights are their square roots so
    the squares sum to one.  Requires floor(n1 / m) > overlap so that only
    adjacent strips overlap; raises InvalidPartitionError otherwise.
    """
    if int(m) != m or m < 1:
        raise InvalidPartitionError(f"strip count must be a positive integer, got {m}")
    if int(overlap) != overlap or overlap < 0:
        raise InvalidPartitionError(f"overlap must be a non-negative integer, got {overlap}")
    m, overlap = int(m), int(overlap)
    if grid.n1 // m <= overlap:
        raise InvalidPartitionError(
            f"strips of width {grid.n1 // m} cannot carry an overlap of {overlap} nodes"
        )

    # interface positions: wider strips first when n1 is not divisible by m
    base, extra = divmod(grid.n1, m)
    cuts = [0]
    for a in range(m):
        cuts.append(cuts[-1] + base + (1 if a < extra else 0))

    # ramp interval [lo_k, hi_k] around interface k, hi - lo = overlap + 1
    width = overlap + 1
    ramp_lo = [cuts[k] - (width + 1) // 2 for k in range(1, m)]
    ramp_hi = [lo + width for lo in ramp_lo]

    # strip a rises on ramp a-1 and falls on ramp a; the outer strips miss one
    nodes = np.arange(grid.n1 + 1, dtype=float)
    rise = (nodes - np.array([-np.inf, *ramp_lo])[:, None]) / width
    fall = (np.array([*ramp_hi, np.inf])[:, None] - nodes) / width
    w = np.clip(np.minimum(rise, fall), 0.0, 1.0)
    extents = list(zip([0, *(lo + 1 for lo in ramp_lo)], [*(hi - 1 for hi in ramp_hi), grid.n1]))
    return Partition(grid=grid, eta=np.sqrt(w)[:, :, None], extents=extents)


def decompose(part: Partition, u: VelocityField) -> DecomposedVelocity:
    """Restrict a velocity to every strip: component a is eta_a times u."""
    if part.grid != u.grid:
        raise GridMismatchError("partition and field grids differ")
    return DecomposedVelocity.wrap(part.grid, part.eta[:, None] * u.data)


def recompose(part: Partition, U: DecomposedVelocity) -> VelocityField:
    """Blend strip components back into one field: sum of eta_a times u_a.

    Inverse of decompose because the squared weights sum to one.
    """
    if part.grid != U.grid:
        raise GridMismatchError("partition and field grids differ")
    if part.m != U.m:
        raise GridMismatchError(f"{part.m} strips but {U.m} components")
    return VelocityField.wrap(part.grid, weighted_sum(part, U.data, (2,) + part.grid.shape))


def weighted_sum(part: Partition, xs, shape: tuple[int, ...]) -> np.ndarray:
    """Sum of eta_a x_a over the strips, accumulated from zero in strip order."""
    out = np.zeros(shape)
    for eta, x in zip(part.eta, xs):
        out += eta * x
    return out
