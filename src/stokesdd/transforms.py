"""Fast sine and cosine transforms for the two systems of the monolithic step.

Both systems are built from the one-dimensional second difference, so real
trigonometric transforms diagonalize them (Lynch, Rice and Thomas 1964;
Hockney 1965):

* the viscous system E + tau*nu*A, with A the Dirichlet five-point operator,
  is diagonalized exactly by a sine transform (DST-I) along each axis, which
  gives a direct solve;
* the Neumann Laplacian on the pressure nodes is diagonalized by a cosine
  transform (DCT-II) along each axis; it is close to -div grad and serves as
  its preconditioner.

Each transform is one ``numpy.fft.rfft`` of the odd or even extension of the
data along one axis, written into work arrays that the caller reuses.  The
eigenvalue tables are 1-D per axis, built on first use and cached; the 2-D
denominator is formed inside a work array when it is needed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.fft import irfft, rfft

from .grid import GridSpec


def _along(axis: int, sl: slice) -> tuple[slice, slice]:
    """Index of a 2-D array that applies ``sl`` along ``axis``."""
    return (sl, slice(None)) if axis == 0 else (slice(None), sl)


def _second_difference(n: int, h: float) -> np.ndarray:
    """(4 / h^2) sin^2(pi k / (2 n)) for k = 0..n: eigenvalues of the 1-D second difference.

    Entries 1..n-1 belong to the Dirichlet problem on n-1 interior nodes
    (sine modes), entries 0..n-1 to the Neumann problem on n nodes (cosine
    modes).
    """
    return (4.0 / h**2) * np.sin(0.5 * math.pi * np.arange(n + 1) / n) ** 2


# -- viscous system: sine transform, direct solve

@lru_cache(maxsize=16)
def _sine_tables(grid: GridSpec, nu: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis parts of the scaled eigenvalues of E + tau*nu*A.

    Two forward sine sweeps followed by two more multiply by 4*n1*n2, so that
    factor is folded in: the eigenvalue of mode (k1, k2) times 4*n1*n2 is
    d1[k1] + d2[k2].
    """
    scale = 4.0 * grid.n1 * grid.n2
    d1 = scale * (0.5 + tau * nu * _second_difference(grid.n1, grid.h1))
    d2 = scale * (0.5 + tau * nu * _second_difference(grid.n2, grid.h2))
    return d1[:, None], d2[None, :]


def _sine(a: np.ndarray, axis: int, ext: np.ndarray, spec: np.ndarray) -> None:
    """a <- Im rfft(odd extension of a) along axis, which is -2 times its DST-I.

    The first and last entries of ``a`` along ``axis`` must be zero, as on a
    velocity component's boundary; they come out exactly zero.
    """
    n = a.shape[axis] - 1
    ext[_along(axis, slice(0, n + 1))] = a
    np.negative(a[_along(axis, slice(n - 1, 0, -1))], out=ext[_along(axis, slice(n + 1, None))])
    rfft(ext, axis=axis, out=spec)
    np.copyto(a, spec.imag)


def dirichlet_solve(rhs: np.ndarray, grid: GridSpec, nu: float, tau: float) -> np.ndarray:
    """Solve (E + tau*nu*A) x = rhs directly, A the Dirichlet five-point operator.

    ``rhs`` is a stacked (2, n1+1, n2+1) velocity array; its boundary entries
    are ignored and those of the result are zero.  The components are
    transformed one after the other through the same two work arrays.
    """
    n1, n2 = grid.n1, grid.n2
    d1, d2 = _sine_tables(grid, nu, tau)
    x = np.array(rhs, dtype=float)
    x[:, 0, :] = x[:, -1, :] = 0.0
    x[:, :, 0] = x[:, :, -1] = 0.0
    flat = np.empty(2 * max(n1 * (n2 + 1), n2 * (n1 + 1)))
    ext = (flat[: 2 * n1 * (n2 + 1)].reshape(2 * n1, n2 + 1), flat[: 2 * n2 * (n1 + 1)].reshape(n1 + 1, 2 * n2))
    spec = np.empty((n1 + 1, n2 + 1), dtype=complex)
    for comp in x:
        _sine(comp, 0, ext[0], spec)
        _sine(comp, 1, ext[1], spec)
        den = ext[0][: n1 + 1]
        np.add(d1, d2, out=den)
        comp /= den
        _sine(comp, 0, ext[0], spec)
        _sine(comp, 1, ext[1], spec)
    return x


# -- pressure system: cosine transform, Neumann preconditioner

@lru_cache(maxsize=16)
def _cosine_tables(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Neumann eigenvalues, rfft twiddles and their conjugates, per axis.

    Each is shaped to broadcast along its own axis of the pressure block.
    """
    out = []
    for axis, (n, h) in enumerate(((grid.n1, grid.h1), (grid.n2, grid.h2))):
        lam = _second_difference(n, h)[:n]
        tw = np.exp(-0.5j * math.pi * np.arange(n + 1) / n)
        shape = (-1, 1) if axis == 0 else (1, -1)
        out += [lam.reshape(shape), tw.reshape(shape), np.conj(tw[:n]).reshape(shape)]
    return tuple(out)


def _cosine(b: np.ndarray, axis: int, ext: np.ndarray, spec: np.ndarray, tw: np.ndarray) -> None:
    """b <- 2 DCT-II of b along axis: Re(tw * rfft(even extension of b))."""
    n = b.shape[axis]
    ext[_along(axis, slice(0, n))] = b
    ext[_along(axis, slice(n, None))] = b[_along(axis, slice(None, None, -1))]
    rfft(ext, axis=axis, out=spec)
    spec *= tw
    np.copyto(b, spec.real[_along(axis, slice(0, n))])


def _cosine_inverse(b: np.ndarray, axis: int, ext: np.ndarray, spec: np.ndarray, twc: np.ndarray) -> None:
    """Inverse of _cosine: b <- first half of irfft(conj(tw) * b, padded with a zero mode)."""
    n = b.shape[axis]
    np.multiply(b, twc, out=spec[_along(axis, slice(0, n))])
    spec[_along(axis, slice(n, None))] = 0.0
    irfft(spec, n=2 * n, axis=axis, out=ext)
    np.copyto(b, ext[_along(axis, slice(0, n))])


def neumann_preconditioner(grid: GridSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Pseudo-inverse of the five-point Neumann Laplacian on the pressure nodes.

    The returned callable maps a pressure array (n1+1, n2+1) to a new one,
    acting on the pressure block [1:, 1:] and leaving row and column 0 at
    zero.  Its constant mode maps to zero.  The work arrays are allocated
    here, once per solve, and reused by every application.
    """
    n1, n2 = grid.n1, grid.n2
    lam1, tw1, twc1, lam2, tw2, twc2 = _cosine_tables(grid)
    flat = np.empty(2 * n1 * n2)
    ext = (flat.reshape(2 * n1, n2), flat.reshape(n1, 2 * n2))
    cflat = np.empty(max((n1 + 1) * n2, n1 * (n2 + 1)), dtype=complex)
    spec = (cflat[: (n1 + 1) * n2].reshape(n1 + 1, n2), cflat[: n1 * (n2 + 1)].reshape(n1, n2 + 1))

    def apply(r: np.ndarray) -> np.ndarray:
        z = np.zeros_like(r)
        block = z[1:, 1:]
        block[...] = r[1:, 1:]
        _cosine(block, 0, ext[0], spec[0], tw1)
        _cosine(block, 1, ext[1], spec[1], tw2)
        den = ext[0][:n1]
        np.add(lam1, lam2, out=den)
        den[0, 0] = math.inf  # the constant mode maps to zero
        block /= den
        _cosine_inverse(block, 1, ext[1], spec[1], twc2)
        _cosine_inverse(block, 0, ext[0], spec[0], twc1)
        return z

    return apply
