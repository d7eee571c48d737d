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

A velocity is one array of shape (2, n1+1, n2+1), component first; the
stencil kernels and the solvers work on that array directly, and ``u1`` and
``u2`` are views into it.  A decomposed velocity stacks one such array per
strip into an (m, 2, n1+1, n2+1) array.  The dense assembly path in
``operators`` does not use this layout: it flattens fields into its own
canonical vectors, so it stays an independent check on the stencil path.

Inner products integrate with the cell weight h1*h2 over the owning node set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _as_field_array(grid: GridSpec, data: np.ndarray | None, copy: bool = True) -> np.ndarray:
    if data is None:
        return np.zeros(grid.shape)
    arr = np.array(data, dtype=float, copy=copy)
    if arr.shape != grid.shape:
        raise GridMismatchError(f"array shape {arr.shape} does not match grid {grid.shape}")
    return arr


class VelocityField:
    """Both velocity components in one (2, n1+1, n2+1) array, zero on the boundary.

    ``data[0]`` and ``data[1]`` are the components; ``u1`` and ``u2`` are views
    of them, so a write through either name is a write to ``data``.
    Construction from two component arrays copies them and leaves the
    boundary at zero, so every VelocityField satisfies the no-slip constraint
    by construction; ``wrap`` takes ownership of a stacked array instead.
    """

    def __init__(self, grid: GridSpec, u1: np.ndarray | None, u2: np.ndarray | None) -> None:
        self.grid = grid
        self.data = np.zeros((2,) + grid.shape)
        for comp, values in zip(self.data, (u1, u2)):
            comp[1:-1, 1:-1] = _as_field_array(grid, values)[1:-1, 1:-1]

    @classmethod
    def wrap(cls, grid: GridSpec, data: np.ndarray) -> "VelocityField":
        """Use a stacked (2, n1+1, n2+1) float array as the field, without copying.

        The boundary entries of ``data`` are set to zero in place.
        """
        if data.shape != (2,) + grid.shape:
            raise GridMismatchError(f"array shape {data.shape} does not match grid {(2,) + grid.shape}")
        data[:, 0, :] = 0.0
        data[:, -1, :] = 0.0
        data[:, :, 0] = 0.0
        data[:, :, -1] = 0.0
        field = cls.__new__(cls)
        field.grid = grid
        field.data = data
        return field

    @property
    def u1(self) -> np.ndarray:
        return self.data[0]

    @property
    def u2(self) -> np.ndarray:
        return self.data[1]

    @classmethod
    def zeros(cls, grid: GridSpec) -> "VelocityField":
        return cls.wrap(grid, np.zeros((2,) + grid.shape))

    def copy(self) -> "VelocityField":
        return VelocityField.wrap(self.grid, self.data.copy())


@dataclass
class PressureField:
    """Scalar field on the pressure nodes (i_a = 1..n_a).

    The stored array covers the full node rectangle; the lines i1 = 0 and
    i2 = 0 are outside the pressure set and are kept at zero.
    """

    grid: GridSpec
    p: np.ndarray

    def __post_init__(self, copy: bool = True) -> None:
        self.p = _as_field_array(self.grid, self.p, copy)
        self.p[0, :] = 0.0
        self.p[:, 0] = 0.0

    @classmethod
    def wrap(cls, grid: GridSpec, p: np.ndarray) -> "PressureField":
        """Adopt an (n1+1, n2+1) float array without copying, as VelocityField.wrap does; its lines i1 = 0 and i2 = 0 are zeroed in place."""
        field = cls.__new__(cls)
        field.grid, field.p = grid, p
        field.__post_init__(copy=False)
        return field

    @classmethod
    def zeros(cls, grid: GridSpec) -> "PressureField":
        return cls.wrap(grid, np.zeros(grid.shape))

    def copy(self) -> "PressureField":
        return PressureField.wrap(self.grid, self.p.copy())


class DecomposedVelocity:
    """Per-strip velocities stacked in one (m, 2, n1+1, n2+1) array, zero on the boundary.

    ``components[a]`` is a VelocityField view of strip a's velocity ``data[a]``.
    The list constructor stacks (copies) its fields; ``wrap`` adopts a stacked array.
    """

    def __init__(self, components: list[VelocityField]) -> None:
        if not components or any(comp.grid != components[0].grid for comp in components):
            raise GridMismatchError("need one or more components, all on one grid")
        self._adopt(components[0].grid, np.stack([comp.data for comp in components]))

    @classmethod
    def wrap(cls, grid: GridSpec, data: np.ndarray) -> "DecomposedVelocity":
        """Adopt a stacked (m, 2, n1+1, n2+1) float array, m >= 1, without copying; its boundary is zeroed in place."""
        if data.ndim != 4 or not len(data) or data.shape[1:] != (2,) + grid.shape:
            raise GridMismatchError(f"array shape {data.shape} does not match grid (m, 2) + {grid.shape}")
        state = cls.__new__(cls)
        state._adopt(grid, data)
        return state

    def _adopt(self, grid: GridSpec, data: np.ndarray) -> None:
        self.grid, self.data = grid, data
        self.components = [VelocityField.wrap(grid, comp) for comp in data]  # each view zeroes its boundary

    @property
    def m(self) -> int:
        return len(self.data)

    def copy(self) -> "DecomposedVelocity":
        return DecomposedVelocity.wrap(self.grid, self.data.copy())


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


def dot_velocity(a: VelocityField, b: VelocityField) -> float:
    """Inner product over interior nodes of both components, weight h1*h2.

    Boundary entries are structurally zero, so the sum may run over the full
    arrays without changing the value.
    """
    _require_same_grid(a, b)
    s = float(np.sum(a.u1 * b.u1)) + float(np.sum(a.u2 * b.u2))
    return a.grid.cell_area * s


def norm_velocity(a: VelocityField) -> float:
    return math.sqrt(dot_velocity(a, a))


def dot_pressure(p: PressureField, q: PressureField) -> float:
    """Inner product over the pressure nodes with the same h1*h2 weight."""
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
    """Product-space inner product: sum of the componentwise velocity dots."""
    if a.m != b.m:
        raise GridMismatchError(f"component counts differ: {a.m} vs {b.m}")
    return sum(dot_velocity(ca, cb) for ca, cb in zip(a.components, b.components))


def norm_decomposed(a: DecomposedVelocity) -> float:
    return math.sqrt(dot_decomposed(a, a))
