"""Matrix-free finite difference operators and their dense counterparts.

Conventions, fixed once here and relied on everywhere else:

* The viscous operator is nu times the negative five-point Laplacian with
  homogeneous Dirichlet values; it acts on interior nodes and is selfadjoint
  positive definite in the velocity inner product.
* The pressure gradient uses forward differences and lives on interior nodes.
* The divergence uses backward differences and lives on the pressure nodes.
  Signs are chosen so that for any pressure p and any velocity u vanishing on
  the boundary

      (grad p, u) + (p, div u) = 0

  holds exactly (summation by parts): the divergence is the negated adjoint
  of the gradient.
* Masks multiply both velocity components by a fixed nodal weight; they are
  diagonal, hence selfadjoint.

Dense assembly enumerates unknowns canonically: row-major over (i1, i2),
velocity components concatenated u1-block then u2-block, subdomain blocks in
subdomain order.  The dense path shares no code with the stencil path, so the
two serve as independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    DecomposedVelocity,
    GridMismatchError,
    GridSpec,
    PressureField,
    VelocityField,
)


class SizeGuardError(ValueError):
    """Dense assembly requested on a grid too large to assemble explicitly."""


_DENSE_NODE_LIMIT = 10_000


@dataclass(frozen=True)
class ViscousOperator:
    """nu times the negative discrete Laplacian on interior nodes."""

    grid: GridSpec
    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"viscosity must be positive, got {self.nu}")


@dataclass
class MaskOperator:
    """Diagonal operator scaling both velocity components by a nodal weight."""

    grid: GridSpec
    eta: np.ndarray

    def __post_init__(self) -> None:
        self.eta = np.array(self.eta, dtype=float)
        if self.eta.shape != self.grid.shape:
            raise GridMismatchError(f"mask shape {self.eta.shape} does not match grid {self.grid.shape}")


# -- raw kernels on stacked (2, n1+1, n2+1) velocity arrays (VelocityField.data);
#    shared by the field-level operations and the solver hot loops

def _viscous_raw(x: np.ndarray, grid: GridSpec, nu: float) -> np.ndarray:
    """The five-point stencil on contiguous shifted slices of each flattened component.

    Rows 1..n1-1 of a component are one contiguous run of the flat array,
    and its x1 and x2 neighbours are the runs shifted by n2+1 and by 1.  The
    two boundary columns get wrapped-around values and are zeroed after.
    The operations and their order are those of the stencil written with
    2-D slices, so the result is bit-identical to it (the tests keep that
    form as the reference), with one temporary.
    """
    n1, w = grid.n1, grid.n2 + 1
    out = np.zeros(x.shape)
    flat = x.reshape(len(x), -1)
    inner = flat[:, w : n1 * w]
    o = out.reshape(len(x), -1)[:, w : n1 * w]
    np.multiply(inner, 2.0, out=o)
    o -= flat[:, 2 * w :]
    o -= flat[:, : (n1 - 1) * w]
    o *= nu / grid.h1**2
    across = inner * 2.0
    across -= flat[:, w + 1 : n1 * w + 1]
    across -= flat[:, w - 1 : n1 * w - 1]
    across *= nu / grid.h2**2
    o += across
    out[:, 1:-1, 0] = out[:, 1:-1, -1] = 0.0
    return out


# The pressure kernels run three times per monolithic step and per strip of the
# pressure substeps (two divergences, one gradient) and keep their temporaries
# few: _divergence_raw's ``across`` is one of the monolithic step's memory peaks.

def _gradient_raw(p: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = np.zeros((2,) + grid.shape)
    np.subtract(p[2:, 1:-1], p[1:-1, 1:-1], out=out[0, 1:-1, 1:-1])
    np.subtract(p[1:-1, 2:], p[1:-1, 1:-1], out=out[1, 1:-1, 1:-1])
    out[0] /= grid.h1
    out[1] /= grid.h2
    return out


def _divergence_raw(x: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """div x on the pressure nodes, into ``out`` (a new array if None; if given, zero on row and column 0)."""
    out = np.zeros(grid.shape) if out is None else out
    np.subtract(x[0, 1:, 1:], x[0, :-1, 1:], out=out[1:, 1:])
    out /= grid.h1
    across = x[1, 1:, 1:] - x[1, 1:, :-1]
    across /= grid.h2
    out[1:, 1:] += across
    return out


def apply_viscous(op: ViscousOperator, u: VelocityField) -> VelocityField:
    """Apply the viscous operator componentwise; result is zero on the boundary."""
    if op.grid != u.grid:
        raise GridMismatchError("operator and field grids differ")
    return VelocityField.wrap(u.grid, _viscous_raw(u.data, u.grid, op.nu))


def spectral_lower_bound(grid: GridSpec) -> float:
    """Smallest eigenvalue of the negative discrete Laplacian on this grid.

    Closed form: sum over directions of (4 / h_a^2) sin^2(pi h_a / (2 l_a)).
    The viscous operator then satisfies (A u, u) >= nu * bound * (u, u).
    """
    t1 = (4.0 / grid.h1**2) * math.sin(math.pi * grid.h1 / (2.0 * grid.l1)) ** 2
    t2 = (4.0 / grid.h2**2) * math.sin(math.pi * grid.h2 / (2.0 * grid.l2)) ** 2
    return t1 + t2


def apply_gradient(p: PressureField) -> VelocityField:
    """Forward-difference pressure gradient, defined on interior nodes."""
    return VelocityField.wrap(p.grid, _gradient_raw(p.p, p.grid))


def apply_divergence(u: VelocityField) -> PressureField:
    """Backward-difference divergence on the pressure nodes.

    Satisfies (grad p, u) + (p, div u) = 0 for every p and every u that
    vanishes on the boundary.
    """
    return PressureField.wrap(u.grid, _divergence_raw(u.data, u.grid))


def apply_mask(chi: MaskOperator, u: VelocityField) -> VelocityField:
    if chi.grid != u.grid:
        raise GridMismatchError("mask and field grids differ")
    return VelocityField.wrap(u.grid, chi.eta * u.data)


def apply_block(chi_a: MaskOperator, op: ViscousOperator, chi_b: MaskOperator, u: VelocityField) -> VelocityField:
    """One coupling block: mask by chi_b, apply the viscous operator, mask by chi_a."""
    return apply_mask(chi_a, apply_viscous(op, apply_mask(chi_b, u)))


def apply_coupling(masks: Sequence[MaskOperator], op: ViscousOperator, U: DecomposedVelocity) -> DecomposedVelocity:
    """Full block operator on the product space: row a is chi_a A (sum_b chi_b u_b)."""
    if len(masks) != U.m:
        raise GridMismatchError(f"{len(masks)} masks for {U.m} components")
    grid = U.grid
    etas = np.stack([chi.eta for chi in masks])[:, None]
    w = np.zeros((2,) + grid.shape)
    for eta, x in zip(etas, U.data):
        w += eta * x
    return DecomposedVelocity.wrap(grid, etas * _viscous_raw(w, grid, op.nu))


def _coupling_triangle(
    masks: Sequence[MaskOperator], op: ViscousOperator, U: DecomposedVelocity, order: Sequence[int]
) -> DecomposedVelocity:
    """One triangle of the block operator, its rows built in the given strip order.

    Row a is chi_a A applied to the masked components of the strips before a
    in ``order`` plus half of its own: ascending order gives the lower
    triangle, descending the upper.
    """
    if len(masks) != U.m:
        raise GridMismatchError(f"{len(masks)} masks for {U.m} components")
    grid = U.grid
    rows = np.empty_like(U.data)
    before = np.zeros((2,) + grid.shape)
    for a in order:
        eta = masks[a].eta
        own = eta * U.data[a]
        np.multiply(eta, _viscous_raw(before + 0.5 * own, grid, op.nu), out=rows[a])
        before += own
    return DecomposedVelocity.wrap(grid, rows)


def apply_coupling_lower(masks: Sequence[MaskOperator], op: ViscousOperator, U: DecomposedVelocity) -> DecomposedVelocity:
    """Lower triangle of the block operator: strict sub-blocks plus half the diagonal."""
    return _coupling_triangle(masks, op, U, range(len(masks)))


def apply_coupling_upper(masks: Sequence[MaskOperator], op: ViscousOperator, U: DecomposedVelocity) -> DecomposedVelocity:
    """Upper triangle of the block operator; the adjoint of the lower triangle."""
    return _coupling_triangle(masks, op, U, range(len(masks) - 1, -1, -1))


# -- canonical flattening, used by the dense path and nothing else

def velocity_to_vector(u: VelocityField) -> np.ndarray:
    """Interior values, row-major over (i1, i2), u1 block then u2 block."""
    return u.data[:, 1:-1, 1:-1].flatten()


def vector_to_velocity(grid: GridSpec, vec: np.ndarray) -> VelocityField:
    return vector_to_decomposed(grid, 1, vec).components[0]


def pressure_to_vector(p: PressureField) -> np.ndarray:
    """Pressure-node values, row-major over (i1, i2)."""
    return p.p[1:, 1:].ravel().copy()


def vector_to_pressure(grid: GridSpec, vec: np.ndarray) -> PressureField:
    if vec.shape != (grid.num_pressure,):
        raise GridMismatchError(f"expected vector of length {grid.num_pressure}, got {vec.shape}")
    p = PressureField.zeros(grid)
    p.p[1:, 1:] = vec.reshape((grid.n1, grid.n2))
    return p


def decomposed_to_vector(U: DecomposedVelocity) -> np.ndarray:
    return U.data[:, :, 1:-1, 1:-1].flatten()


def vector_to_decomposed(grid: GridSpec, m: int, vec: np.ndarray) -> DecomposedVelocity:
    size = 2 * grid.num_interior
    if vec.shape != (m * size,):
        raise GridMismatchError(f"expected vector of length {m * size}, got {vec.shape}")
    data = np.zeros((m, 2) + grid.shape)
    data[:, :, 1:-1, 1:-1] = vec.reshape((m, 2, grid.n1 - 1, grid.n2 - 1))
    return DecomposedVelocity.wrap(grid, data)


# -- dense assembly

def _guard(grid: GridSpec, strips: int) -> None:
    nodes = (grid.n1 + 1) * (grid.n2 + 1)
    if strips * nodes > _DENSE_NODE_LIMIT:
        raise SizeGuardError(f"{strips} x {nodes} nodes exceeds the dense assembly limit of {_DENSE_NODE_LIMIT}")


def _numbering(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Canonical numbers k[c, i1-1, i2-1] of the velocity unknowns (component c
    at interior node (i1, i2)) and p[i1-1, i2-1] of the pressure unknowns."""
    k = np.arange(2 * grid.num_interior).reshape(2, grid.n1 - 1, grid.n2 - 1)
    p = np.arange(grid.num_pressure).reshape(grid.n1, grid.n2)
    return k, p


def _dense_viscous(grid: GridSpec, nu: float) -> np.ndarray:
    """nu times the negative five-point Laplacian on each component."""
    k, _ = _numbering(grid)
    c1 = nu / grid.h1**2
    c2 = nu / grid.h2**2
    out = np.zeros((k.size, k.size))
    out[k, k] = 2.0 * c1 + 2.0 * c2
    out[k[:, 1:], k[:, :-1]] = out[k[:, :-1], k[:, 1:]] = -c1
    out[k[..., 1:], k[..., :-1]] = out[k[..., :-1], k[..., 1:]] = -c2
    return out


def _dense_gradient(grid: GridSpec) -> np.ndarray:
    """Forward differences from the pressure nodes onto the interior nodes."""
    k, p = _numbering(grid)
    out = np.zeros((k.size, p.size))
    out[k[0], p[1:, :-1]] = 1.0 / grid.h1
    out[k[0], p[:-1, :-1]] = -1.0 / grid.h1
    out[k[1], p[:-1, 1:]] = 1.0 / grid.h2
    out[k[1], p[:-1, :-1]] = -1.0 / grid.h2
    return out


def _dense_divergence(grid: GridSpec) -> np.ndarray:
    """Backward differences from the interior nodes onto the pressure nodes."""
    k, p = _numbering(grid)
    out = np.zeros((p.size, k.size))
    out[p[:-1, :-1], k[0]] = 1.0 / grid.h1
    out[p[1:, :-1], k[0]] = -1.0 / grid.h1
    out[p[:-1, :-1], k[1]] = 1.0 / grid.h2
    out[p[:-1, 1:], k[1]] = -1.0 / grid.h2
    return out


def _dense_mask(grid: GridSpec, eta: np.ndarray) -> np.ndarray:
    diag = eta[1:-1, 1:-1].ravel()
    return np.diag(np.concatenate([diag, diag]))


_COUPLINGS = ("coupling", "coupling_lower", "coupling_upper")


def assemble_dense(which: str, grid: GridSpec, **params) -> np.ndarray:
    """Assemble an operator as an explicit matrix in the canonical enumeration.

    Parameters
    ----------
    which : str
        One of 'viscous', 'gradient', 'divergence', 'mask', 'block',
        'implicit', 'coupling', 'coupling_lower', 'coupling_upper'.
    grid : GridSpec
        Grid to assemble on; refused via SizeGuardError when it has more
        than 10_000 nodes, counted once per strip for the coupling variants.
    params :
        'viscous' needs nu.  'mask' needs eta.  'block' needs nu, eta_row,
        eta_col.  'implicit' needs nu, tau, eta and assembles
        I + (tau/2) X A X.  The coupling variants need nu and masks (a
        sequence of MaskOperator) and assemble the block operator on the
        product space, its lower triangle (strict blocks plus half the
        diagonal), or its upper triangle.

    Returns
    -------
    numpy.ndarray
        The dense matrix.  Velocity vectors follow velocity_to_vector,
        pressure vectors follow pressure_to_vector.
    """
    _guard(grid, len(params["masks"]) if which in _COUPLINGS else 1)
    if which == "viscous":
        return _dense_viscous(grid, params["nu"])
    if which == "gradient":
        return _dense_gradient(grid)
    if which == "divergence":
        return _dense_divergence(grid)
    if which == "mask":
        return _dense_mask(grid, np.asarray(params["eta"], dtype=float))
    if which == "block":
        a = _dense_viscous(grid, params["nu"])
        xr = _dense_mask(grid, np.asarray(params["eta_row"], dtype=float))
        xc = _dense_mask(grid, np.asarray(params["eta_col"], dtype=float))
        return xr @ a @ xc
    if which == "implicit":
        a = _dense_viscous(grid, params["nu"])
        x = _dense_mask(grid, np.asarray(params["eta"], dtype=float))
        n = a.shape[0]
        return np.eye(n) + 0.5 * params["tau"] * (x @ a @ x)
    if which in _COUPLINGS:
        a = _dense_viscous(grid, params["nu"])
        xs = [_dense_mask(grid, np.asarray(chi.eta, dtype=float)) for chi in params["masks"]]
        m = len(xs)
        lower = 0.5 * np.eye(m) + np.tril(np.ones((m, m)), -1)
        # the share of block (a, b) that each variant holds
        share = {"coupling": np.ones((m, m)), "coupling_lower": lower, "coupling_upper": lower.T}[which]
        size = a.shape[0]
        out = np.zeros((m * size, m * size))
        for ra, cb in zip(*np.nonzero(share)):
            out[ra * size : (ra + 1) * size, cb * size : (cb + 1) * size] = share[ra, cb] * (xs[ra] @ a @ xs[cb])
        return out
    raise ValueError(f"unknown operator kind {which!r}")
