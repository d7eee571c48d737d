"""Uniform rectangular grid and the discrete fields that live on it.

The domain is the rectangle (0, l1) x (0, l2), discretized by a uniform
non-staggered grid with nodes x = (i1*h1, i2*h2), i_a = 0..n_a.  Three node
sets matter:

* all nodes                  (i_a = 0..n_a),
* interior nodes             (i_a = 1..n_a-1), where velocities live,
* pressure nodes             (i_a = 1..n_a), interior plus the top and right
                             boundary lines.

Velocity components vanish on the boundary; pressure is defined on the
pressure set only.  Fields store the full node rectangle so stencil code can
use plain array slices; entries outside a field's node set are kept at zero.

The three field types (the grid-function spaces of the scheme) share one
contract: a field is ``grid`` and one float array ``data``, its leading axes
ahead of the node rectangle.  A velocity is a (2, n1+1, n2+1) array,
component first, with ``u1`` and ``u2`` views into it; a pressure is an
(n1+1, n2+1) array, also named ``p``; a decomposed velocity stacks one
velocity per strip into an (m, 2, n1+1, n2+1) array, and builds its
per-strip VelocityField views ``components`` on first access.  Constructors
copy; ``wrap`` adopts an array without copying, after checking its shape
and zeroing it outside the node set in place; ``zeros`` and ``copy`` make
new arrays.  The stencil kernels and the solvers work on ``data`` directly.
The dense assembly path in ``operators`` does not use this layout: it
flattens fields into its own canonical vectors, so it stays an independent
check on the stencil path.

Inner products integrate with the cell weight h1*h2 over the owning node set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class InvalidGridError(ValueError):
    """Grid dimensions or node counts that do not define a valid grid."""


class GridMismatchError(ValueError):
    """Fields or operators combined across different grids."""


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a uniform grid: side lengths, node counts, spacings."""

    l1: float
    l2: float
    n1: int
    n2: int
    h1: float
    h2: float

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape holding every node, (n1 + 1, n2 + 1)."""
        return (self.n1 + 1, self.n2 + 1)

    @property
    def num_interior(self) -> int:
        return (self.n1 - 1) * (self.n2 - 1)

    @property
    def num_pressure(self) -> int:
        return self.n1 * self.n2

    @property
    def cell_area(self) -> float:
        return self.h1 * self.h2

    def coords1(self) -> np.ndarray:
        return np.arange(self.n1 + 1) * self.h1

    def coords2(self) -> np.ndarray:
        return np.arange(self.n2 + 1) * self.h2


def make_grid(l1: float, l2: float, n1: int, n2: int) -> GridSpec:
    """Build a GridSpec for the rectangle (0, l1) x (0, l2).

    n1 and n2 are cell counts per direction; both must be at least 2 so the
    interior is nonempty.  Raises InvalidGridError otherwise.
    """
    if not (math.isfinite(l1) and math.isfinite(l2) and l1 > 0 and l2 > 0):
        raise InvalidGridError(f"side lengths must be positive and finite, got {l1}, {l2}")
    if int(n1) != n1 or int(n2) != n2 or n1 < 2 or n2 < 2:
        raise InvalidGridError(f"need at least 2 cells per direction, got {n1}, {n2}")
    n1, n2 = int(n1), int(n2)
    return GridSpec(l1=float(l1), l2=float(l2), n1=n1, n2=n2, h1=l1 / n1, h2=l2 / n2)


def _as_field_array(grid: GridSpec, data: np.ndarray | None) -> np.ndarray:
    """A float copy of ``data`` (zeros for None) of the grid's node shape."""
    if data is None:
        return np.zeros(grid.shape)
    arr = np.array(data, dtype=float)
    if arr.shape != grid.shape:
        raise GridMismatchError(f"array shape {arr.shape} does not match grid {grid.shape}")
    return arr


class _GridFunction:
    """A grid function: ``grid`` and one float array ``data``, zero outside the node set.

    A subclass states only its leading axes ``_lead``, ahead of the two node
    axes (None is a strip count m >= 1, taken from the array), and the lines
    outside its node set, ``_outside``, as index expressions into ``data``.
    Constructors copy their input; ``wrap`` adopts an array.
    """

    _lead: tuple[int | None, ...] = ()
    _outside: tuple = ()

    def __init__(self, grid: GridSpec, data: np.ndarray) -> None:
        m = len(data) if data.ndim else 0  # the strip count, where _lead leaves it open
        shape = self._shape(grid, m)
        if not m or data.shape != shape:
            raise GridMismatchError(f"array shape {data.shape} does not match grid {shape}")
        for line in self._outside:
            data[line] = 0.0
        self.grid, self.data = grid, data

    @classmethod
    def _shape(cls, grid: GridSpec, m: int) -> tuple[int, ...]:
        return tuple(m if k is None else k for k in cls._lead) + grid.shape

    @classmethod
    def wrap(cls, grid: GridSpec, data: np.ndarray):
        """Use a float array of the field's shape as the field, without copying.

        Its entries outside the node set are set to zero in place; a wrong
        shape raises GridMismatchError.
        """
        field = cls.__new__(cls)
        _GridFunction.__init__(field, grid, data)
        return field

    @classmethod
    def zeros(cls, grid: GridSpec):
        """The zero field on a new array (of one strip for a DecomposedVelocity)."""
        return cls.wrap(grid, np.zeros(cls._shape(grid, 1)))

    def copy(self):
        return self.wrap(self.grid, self.data.copy())


_BOUNDARY = (np.s_[..., 0, :], np.s_[..., -1, :], np.s_[..., 0], np.s_[..., -1])


class VelocityField(_GridFunction):
    """Both velocity components in one (2, n1+1, n2+1) array, zero on the boundary.

    ``data[0]`` and ``data[1]`` are the components; ``u1`` and ``u2`` are views
    of them, so a write through either name is a write to ``data``.
    Construction from two component arrays copies them and leaves the
    boundary at zero, so every VelocityField satisfies the no-slip constraint
    by construction.
    """

    _lead = (2,)
    _outside = _BOUNDARY

    def __init__(self, grid: GridSpec, u1: np.ndarray | None, u2: np.ndarray | None) -> None:
        super().__init__(grid, np.stack([_as_field_array(grid, values) for values in (u1, u2)]))

    @property
    def u1(self) -> np.ndarray:
        return self.data[0]

    @property
    def u2(self) -> np.ndarray:
        return self.data[1]


class PressureField(_GridFunction):
    """Scalar field on the pressure nodes (i_a = 1..n_a).

    ``p`` is the stored (n1+1, n2+1) array, ``data``; the lines i1 = 0 and
    i2 = 0 are outside the pressure set and are kept at zero.
    """

    _outside = (np.s_[0, :], np.s_[:, 0])

    def __init__(self, grid: GridSpec, p: np.ndarray | None) -> None:
        super().__init__(grid, _as_field_array(grid, p))

    @property
    def p(self) -> np.ndarray:
        return self.data


class DecomposedVelocity(_GridFunction):
    """Per-strip velocities stacked in one (m, 2, n1+1, n2+1) array, zero on the boundary.

    ``components[a]`` is a VelocityField view of strip a's velocity ``data[a]``,
    made on first access.  The list constructor stacks (copies) its fields.
    """

    _lead = (None, 2)
    _outside = _BOUNDARY

    def __init__(self, components: list[VelocityField]) -> None:
        if not components or any(comp.grid != components[0].grid for comp in components):
            raise GridMismatchError("need one or more components, all on one grid")
        super().__init__(components[0].grid, np.stack([comp.data for comp in components]))

    @cached_property
    def components(self) -> list[VelocityField]:
        return [VelocityField.wrap(self.grid, x) for x in self.data]

    @property
    def m(self) -> int:
        return len(self.data)


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


def dot_velocity(a: VelocityField, b: VelocityField) -> float:
    """Inner product over interior nodes of both components, weight h1*h2.

    Boundary entries are structurally zero, so the sum may run over the full
    arrays without changing the value.
    """
    _require_same_grid(a, b)
    return _dot_stacked(a.grid, a.data, b.data)


def _dot_stacked(grid: GridSpec, x: np.ndarray, y: np.ndarray) -> float:
    """h1*h2 times the sum of x*y over both components of (2, n1+1, n2+1) arrays; inf on overflow."""
    return grid.cell_area * (float(np.sum(x[0] * y[0])) + float(np.sum(x[1] * y[1])))


def norm_velocity(a: VelocityField) -> float:
    return math.sqrt(dot_velocity(a, a))


def dot_pressure(p: PressureField, q: PressureField) -> float:
    """Inner product over the pressure nodes with the same h1*h2 weight; inf on overflow."""
    _require_same_grid(p, q)
    return p.grid.cell_area * float(np.sum(p.p * q.p))


def norm_pressure(p: PressureField) -> float:
    return math.sqrt(dot_pressure(p, p))


def pressure_mean(p: PressureField) -> float:
    """Weighted mean over the pressure nodes; the weights sum to l1*l2."""
    return p.grid.cell_area * float(np.sum(p.p)) / (p.grid.l1 * p.grid.l2)


def deflate_pressure(p: PressureField) -> PressureField:
    """Remove the weighted mean so the result has mean zero."""
    out = p.copy()
    out.p[1:, 1:] -= pressure_mean(p)
    return out


def dot_decomposed(a: DecomposedVelocity, b: DecomposedVelocity) -> float:
    """Product-space inner product: the strips' velocity dots, summed in strip order."""
    if a.m != b.m:
        raise GridMismatchError(f"component counts differ: {a.m} vs {b.m}")
    _require_same_grid(a, b)
    return sum(_dot_stacked(a.grid, x, y) for x, y in zip(a.data, b.data))


def norm_decomposed(a: DecomposedVelocity) -> float:
    return math.sqrt(dot_decomposed(a, a))
