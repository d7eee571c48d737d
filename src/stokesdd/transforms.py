"""Fast sine and cosine transforms for every implicit system of both schemes.

All the systems are built from the one-dimensional second difference, so real
trigonometric transforms diagonalize them (Lynch, Rice and Thomas 1964;
Hockney 1965):

* the monolithic viscous system E + tau*nu*A, with A the Dirichlet
  five-point operator, is diagonalized exactly by a sine transform (DST-I)
  along each axis, which gives a direct solve;
* the Neumann Laplacian on the pressure nodes is diagonalized by a cosine
  transform (DCT-II) along each axis; it is close to -div grad and serves as
  the preconditioner of the monolithic pressure solve, whose PCG runs in the
  orthonormal cosine basis: there the preconditioner is a diagonal and
  -div grad is that diagonal minus two boundary rank-one terms, so the
  right-hand side is transformed once and the solution once back, with no
  transform inside the iteration;
* a strip's systems are separable, because its mask depends on i1 alone: a
  transform along x2 (DST-I for the sweep system, DCT-II for the masked
  pressure system) leaves one tridiagonal system in i1 per mode, which one
  elimination sweep solves for all modes at once (Hockney 1965; Swarztrauber
  1977).  Both solves are direct.

Each transform is one ``numpy.fft.rfft`` along one axis, written into work
arrays that the caller reuses: of the odd extension of the data (length 2n)
for the DST-I, and of the data reordered, even-index entries first and then
the odd-index ones reversed (length n), for the DCT-II (Makhoul 1980).  The
eigenvalue and basis tables are 1-D per axis, built on first use and cached;
2-D denominators are formed when they are needed, never cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    np.negative(a, out=a)  # in place: a ufunc on a reversed view would buffer it
    ext[_along(axis, slice(n + 1, None))] = a[_along(axis, slice(n - 1, 0, -1))]
    rfft(ext, axis=axis, out=spec)
    np.copyto(a, spec.imag)


def dirichlet_solve(rhs: np.ndarray, grid: GridSpec, nu: float, tau: float, *, out: np.ndarray | None = None) -> np.ndarray:
    """Solve (E + tau*nu*A) x = rhs directly, A the Dirichlet five-point operator.

    ``rhs`` is a stacked (2, n1+1, n2+1) velocity array; its boundary entries
    are ignored and those of the result are zero.  It is solved into ``out``
    (a new array if None), which may be ``rhs``, its boundary zeroed in place.
    The components go one after the other through the same two work arrays,
    which are all the workspace: 2 max(n1 (n2+1), n2 (n1+1)) floats and
    (n1+1)(n2+1) complex entries; the latter also hold the two tables whose
    sum is the denominator, so that no operation broadcasts.
    """
    n1, n2 = grid.n1, grid.n2
    d1, d2 = _sine_tables(grid, nu, tau)
    x = np.array(rhs, dtype=float) if out is None else out
    if out is not None and out is not rhs:
        np.copyto(x, rhs)
    x[:, 0, :] = x[:, -1, :] = 0.0
    x[:, :, 0] = x[:, :, -1] = 0.0
    flat = np.empty(2 * max(n1 * (n2 + 1), n2 * (n1 + 1)))
    ext = (flat[: 2 * n1 * (n2 + 1)].reshape(2 * n1, n2 + 1), flat[: 2 * n2 * (n1 + 1)].reshape(n1 + 1, 2 * n2))
    spec = np.empty((n1 + 1, n2 + 1), dtype=complex)
    for comp in x:
        _sine(comp, 0, ext[0], spec)
        _sine(comp, 1, ext[1], spec)
        den, across = spec.view(float).reshape(2, n1 + 1, n2 + 1)  # spec is idle between the transforms
        np.copyto(den, d1)
        np.copyto(across, d2)
        den += across
        comp /= den
        _sine(comp, 0, ext[0], spec)
        _sine(comp, 1, ext[1], spec)
    return x


# -- pressure system: cosine transform, Neumann preconditioner, PCG in the cosine basis

@lru_cache(maxsize=16)
def _twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i pi k / (2n)) for k = 0..n//2, the twiddles of a length-n DCT-II, and their conjugates."""
    tw = np.exp(-0.5j * math.pi * np.arange(n // 2 + 1) / n)
    return tw, np.conj(tw)


def _cosine(b: np.ndarray, axis: int, ext: np.ndarray, spec: np.ndarray, tw: np.ndarray,
            table: np.ndarray | None = None) -> None:
    """b <- DCT-II of b along axis, sum_j b_j cos(pi k (2j+1) / (2n)).

    Makhoul's method: with the even-index entries of ``b`` followed by the
    odd-index ones in reverse order in ``ext``, W = tw * rfft(ext) gives mode
    k as Re W_k and mode n-k as -Im W_k.  ``tw`` broadcasts against
    ``spec``.  ``table``, spec's shape of memory that ``ext`` may share, takes
    tw broadcast once ext has been read, so that the product does not
    broadcast: numpy would buffer the broadcast operand.
    """
    n, h = b.shape[axis], (b.shape[axis] + 1) // 2
    ext[_along(axis, slice(0, h))] = b[_along(axis, slice(0, None, 2))]
    ext[_along(axis, slice(h, None))] = b[_along(axis, slice(1, None, 2))][_along(axis, slice(None, None, -1))]
    rfft(ext, axis=axis, out=spec)
    if table is not None:
        np.copyto(table, tw)
        tw = table
    spec *= tw
    np.conjugate(spec, out=spec)  # -Im W, with no ufunc on a reversed view
    np.copyto(b[_along(axis, slice(0, n // 2 + 1))], spec.real)
    b[_along(axis, slice(n // 2 + 1, None))] = spec.imag[_along(axis, slice((n - 1) // 2, 0, -1))]


def _cosine_inverse(b: np.ndarray, axis: int, ext: np.ndarray, spec: np.ndarray, twc: np.ndarray,
                    table: np.ndarray | None = None) -> None:
    """Inverse of _cosine: irfft of twc * W, W_k = b_k - i b_{n-k} (b_n = 0), then the reordering undone.

    ``table`` is as in _cosine; it is filled before ``ext`` is written.
    """
    n, h = b.shape[axis], (b.shape[axis] + 1) // 2
    top = b[_along(axis, slice(n - n // 2, None))]
    spec.real[...] = b[_along(axis, slice(0, n // 2 + 1))]
    spec.imag[_along(axis, slice(1, None))] = top[_along(axis, slice(None, None, -1))]
    np.conjugate(spec, out=spec)
    spec.imag[_along(axis, slice(0, 1))] = 0.0
    if table is not None:
        np.copyto(table, twc)
        twc = table
    spec *= twc
    irfft(spec, n=n, axis=axis, out=ext)
    b[_along(axis, slice(0, None, 2))] = ext[_along(axis, slice(0, h))]
    b[_along(axis, slice(1, None, 2))] = ext[_along(axis, slice(h, None))][_along(axis, slice(None, None, -1))]


def _cosine_work(n1: int, n2: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Work arrays of a 2-D DCT-II pair on an (n1, n2) block.

    One real (n1, n2) array, and one complex array of
    max((n1//2+1) n2, n1 (n2//2+1)) entries viewed as the spectrum along
    axis 0 and along axis 1.
    """
    cflat = np.empty(max((n1 // 2 + 1) * n2, n1 * (n2 // 2 + 1)), dtype=complex)
    return np.empty((n1, n2)), (cflat[: (n1 // 2 + 1) * n2].reshape(-1, n2), cflat[: n1 * (n2 // 2 + 1)].reshape(n1, -1))


def neumann_preconditioner(grid: GridSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Pseudo-inverse of the five-point Neumann Laplacian on the pressure nodes.

    This is the physical-space form of the preconditioner that the
    monolithic pressure solve applies as a diagonal in the cosine basis (see
    cosine_pressure_system); the tests compare against it.  The returned
    callable maps a pressure array (n1+1, n2+1) to a new one, acting on the
    pressure block [1:, 1:] and leaving row and column 0 at zero.  Its
    constant mode maps to zero.  The work arrays of _cosine_work are
    allocated here and reused by every application; the real one also holds
    the denominator.
    """
    _, _, lam1, _, _, lam2 = _cosine_basis(grid)
    (tw1, twc1), (tw2, twc2) = _twiddles(grid.n1), _twiddles(grid.n2)
    ext, spec = _cosine_work(grid.n1, grid.n2)

    def apply(r: np.ndarray) -> np.ndarray:
        z = np.zeros_like(r)
        block = z[1:, 1:]
        block[...] = r[1:, 1:]
        _cosine(block, 0, ext, spec[0], tw1[:, None])
        _cosine(block, 1, ext, spec[1], tw2)
        np.add(lam1[:, None], lam2, out=ext)
        ext[0, 0] = math.inf  # the constant mode maps to zero
        block /= ext
        _cosine_inverse(block, 1, ext, spec[1], twc2)
        _cosine_inverse(block, 0, ext, spec[0], twc1[:, None])
        return z

    return apply


@lru_cache(maxsize=16)
def _cosine_basis(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Per axis: orthonormal scales s, last-node values q and Neumann eigenvalues lam, n entries each.

    Mode k of the orthonormal DCT-II basis on n nodes is
    s_k cos(pi k (2j+1) / (2n)) on node j, with s_0 = sqrt(1/n) and
    s_k = sqrt(2/n) otherwise; q_k is its value on the last node, j = n-1.
    """
    out = []
    for n, h in ((grid.n1, grid.h1), (grid.n2, grid.h2)):
        s = np.full(n, math.sqrt(2.0 / n))
        s[0] = math.sqrt(1.0 / n)
        q = s * np.cos(0.5 * math.pi * np.arange(n) * (2 * n - 1) / n)
        out += [s, q, _second_difference(n, h)[:n]]
    for table in out:
        table.flags.writeable = False  # shared by every caller through the cache
    return tuple(out)


def to_cosine_basis(p: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Coefficients Q1 P Q2^T of the pressure block P = p[1:, 1:] in the orthonormal DCT-II basis.

    Returns a new (n1, n2) array; ``p`` is not changed.
    """
    s1, _, _, s2, _, _ = _cosine_basis(grid)
    y = p[1:, 1:].copy()
    ext, spec = _cosine_work(grid.n1, grid.n2)
    _cosine(y, 0, ext, spec[0], _twiddles(grid.n1)[0][:, None])
    _cosine(y, 1, ext, spec[1], _twiddles(grid.n2)[0])
    y *= s1[:, None]
    y *= s2
    return y


def from_cosine_basis(y: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Pressure array (n1+1, n2+1) with block Q1^T Y Q2 and zero row and column 0; the inverse of to_cosine_basis."""
    s1, _, _, s2, _, _ = _cosine_basis(grid)
    p = np.zeros(grid.shape)
    block = p[1:, 1:]
    np.divide(y, s1[:, None], out=block)
    block /= s2
    ext, spec = _cosine_work(grid.n1, grid.n2)
    _cosine_inverse(block, 1, ext, spec[1], _twiddles(grid.n2)[1])
    _cosine_inverse(block, 0, ext, spec[0], _twiddles(grid.n1)[1][:, None])
    return p


def cosine_pressure_system(grid: GridSpec) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """-div grad, its Neumann preconditioner and its range projection in the orthonormal cosine basis.

    Returns (apply, precondition, project) for cg_solve on (n1, n2)
    coefficient arrays Y = Q1 P Q2^T.  On the pressure block,
    -div grad = L1 (x) (I - e e^T) + (I - e e^T) (x) L2: the Neumann
    Laplacian without the x1 edges of the last pressure column and the x2
    edges of the last pressure row (e the last node).  Q_a L_a Q_a^T is the
    diagonal lam_a, so with q_a = Q_a e

    * apply is Y -> (lam1 + lam2) Y - lam1 (Y q2) q2^T - q1 (q1^T Y) lam2^T,
      elementwise products and one rank-two update;
    * precondition is Y -> Y / (lam1 + lam2), zero on mode (0, 0): the
      Neumann preconditioner, which is diagonal here;
    * project is the orthogonal projection onto the range, the complement
      of span{e00, q1 q2^T} (the constants and the corner delta), in place.

    The transform is orthogonal, so the iteration is the physical-space one
    in exact arithmetic.  In floating point the diagonal and the rank-two
    terms cancel only to rounding, so apply also projects its output: the
    residual would otherwise drift into the kernel, along the corner delta
    that the physical stencil leaves exactly zero.  Each rank-two update is
    one (n1, 2) by (2, n2) matrix product, much faster than two outer
    products.  The diagonal, the factors of the updates and two (n1, n2)
    buffers are built here, once per solve: ``work`` holds the output of
    apply and then of precondition, which forms the inverse diagonal there
    before it multiplies, and ``rank2`` every rank-two product.
    """
    _, q1, lam1, _, q2, lam2 = _cosine_basis(grid)
    den = lam1[:, None] + lam2
    size = grid.n1 * grid.n2
    root = math.sqrt(size)
    # factors of the rank-two updates, their fixed columns and rows set once
    kernel_left = np.zeros((grid.n1, 2))
    kernel_left[:, 0] = q1
    kernel_left[0, 1] = 1.0
    kernel_right = np.zeros((2, grid.n2))
    edge_left = np.empty((grid.n1, 2))
    edge_left[:, 1] = q1
    edge_right = np.empty((2, grid.n2))
    edge_right[0] = q2
    work = np.empty((grid.n1, grid.n2))
    rank2 = np.empty((grid.n1, grid.n2))

    def project(y: np.ndarray) -> np.ndarray:
        # remove the corner delta u = q1 q2^T, then the constant on the other
        # nodes, root e00 - u, whose norm squared is size - 1
        a = float(q1 @ y @ q2)
        beta = (root * y[0, 0] - a) / (size - 1)
        np.multiply(q2, a - beta, out=kernel_right[0])
        kernel_right[1, 0] = root * beta
        y -= np.matmul(kernel_left, kernel_right, out=rank2)
        return y

    def apply(y: np.ndarray) -> np.ndarray:
        out = np.multiply(den, y, out=work)
        np.multiply(y @ q2, lam1, out=edge_left[:, 0])
        np.multiply(q1 @ y, lam2, out=edge_right[1])
        out -= np.matmul(edge_left, edge_right, out=rank2)
        return project(out)

    def precondition(r: np.ndarray) -> np.ndarray:
        # 1 / den is formed in work on each call, not held between calls;
        # den[0, 0] is inf for the division only, so mode (0, 0) gets +0.0
        den[0, 0] = math.inf
        np.divide(1.0, den, out=work)
        den[0, 0] = 0.0
        return np.multiply(work, r, out=work)

    return apply, precondition, project


def _pressure_range(arr: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the range of -div grad on the pressure nodes.

    The kernel holds the constants and the delta at the corner node (n1, n2),
    which no gradient component reads: zero the corner, then remove the mean
    of the other pressure nodes.  ``arr`` holds whole rows, so the mean is
    taken off the contiguous rows 1.. and column 0, outside the pressure
    nodes, is set back to zero: numpy would buffer the strided block.
    """
    arr[-1, -1] = 0.0
    block = arr[1:, 1:]
    mean = block.sum() / (block.size - 1)
    rest = arr[1:]
    rest -= mean
    rest[:, 0] = 0.0
    arr[-1, -1] = 0.0
    return arr


# -- strip systems: transform along x2, elimination along x1

@dataclass(frozen=True)
class StripFactors:
    """Elimination factors of one strip's tridiagonal systems, one per x2 mode.

    The systems live on the i1 rows ``rows`` of the strip's box.  One table
    holds a value per row and mode, ``inv_pivot`` (rows, modes); ``off``
    (rows-1, 1) holds the coupling of each row to the next, the same for
    every mode.  The multipliers off * inv_pivot are not kept: each solve
    forms them in memory its transforms leave idle.  ``leaf`` is
    h2^2 / eta^2 on the rows whose last pressure node is a leaf, and is used
    by the pressure systems only.
    """

    rows: slice
    off: np.ndarray
    inv_pivot: np.ndarray
    leaf: np.ndarray | None = None


def _factor(rows: slice, diag: np.ndarray, off: np.ndarray, leaf: np.ndarray | None = None) -> StripFactors:
    """Thomas factors of symmetric tridiagonal systems, one per column of ``diag``.

    ``off[i]``, shape (1,), couples rows i and i+1 for every column.  Only
    the inverse pivots are stored; each multiplier off[i] * inv_pivot[i] is
    formed as the loop reaches it and dropped.  The systems are positive
    definite, so no pivoting is needed.
    """
    inv = np.empty_like(diag)
    for i in range(diag.shape[0]):
        inv[i] = 1.0 / (diag[i] - (off[i - 1] * inv[i - 1]) * off[i - 1] if i else diag[0])
    return StripFactors(rows, off, inv, leaf)


def _eliminate(b: np.ndarray, off: np.ndarray, inv_pivot: np.ndarray, mult: np.ndarray) -> None:
    """Solve factored systems in place along axis 0 of a contiguous ``b``.

    ``inv_pivot`` has b's shape; ``off`` broadcasts against all rows of b but
    the last, and ``mult``, memory of that shape, is where the multipliers
    off * inv_pivot are formed: a broadcast copy of ``off``, then a product
    of one shape, so that no operation broadcasts: numpy would buffer a
    broadcast operand.  The loop runs over rows, each a small array, so the
    rows are taken as views once up front; one more row is the only
    allocation.
    """
    np.copyto(mult, off)
    np.multiply(mult, inv_pivot[:-1], out=mult)
    rows, mult = list(b), list(mult)
    tmp = np.empty_like(rows[0])
    for i in range(1, len(rows)):
        rows[i] -= np.multiply(mult[i - 1], rows[i - 1], out=tmp)
    b *= inv_pivot
    for i in range(len(rows) - 2, -1, -1):
        rows[i] -= np.multiply(mult[i], rows[i + 1], out=tmp)


def _interior_rows(grid: GridSpec, extent: tuple[int, int]) -> tuple[int, int]:
    """First and last interior row i1 where a strip's weight is positive.

    A strip whose support holds no interior row gets last < first.
    """
    return max(extent[0], 1), min(extent[1], grid.n1 - 1)


def sweep_factors(grid: GridSpec, eta: np.ndarray, extent: tuple[int, int], nu: float, tau: float) -> StripFactors:
    """Factors of the sweep system x + (tau/2) eta A (eta x) of one strip.

    ``eta`` is the strip weight per i1 row and ``extent`` the rows where it is
    positive.  After a DST-I along x2, sine mode k is the tridiagonal system
    on the interior rows of the extent with diagonal
    1 + (tau nu/2) e_i^2 (2/h1^2 + lam2_k) and off-diagonal
    -(tau nu/2) e_i e_{i+1} / h1^2; the factor 2*n2 of two sine sweeps is
    folded in.
    """
    lo, hi = _interior_rows(grid, extent)
    e = eta[lo : hi + 1, None]
    scale = 2.0 * grid.n2
    half = 0.5 * tau * nu
    lam2 = _second_difference(grid.n2, grid.h2)[None, :]
    diag = scale * (1.0 + half * (e * e) * (2.0 / grid.h1**2 + lam2))
    off = (-scale * half / grid.h1**2) * (e[:-1] * e[1:])
    return _factor(slice(lo, hi + 1), diag, off)


def sweep_solve(rhs: np.ndarray, f: StripFactors) -> np.ndarray:
    """Solve one strip's sweep system for a stacked (2, n1+1, n2+1) right-hand side.

    Rows outside the strip, where the weight is zero, keep the right-hand
    side; the boundary of the result is zero.  Both components go through
    one transform and one elimination sweep.
    """
    x = np.array(rhs, dtype=float)
    if f.inv_pivot.size:
        x[:, f.rows] = sweep_solve_rows(x, f).transpose(1, 0, 2)
    return x


def sweep_solve_rows(x: np.ndarray, f: StripFactors) -> np.ndarray:
    """The solution on the strip's rows as a new (rows, component, i2) array; ``x`` is only read.

    With R the strip's rows and w = n2+1, the workspace is all it allocates
    (but for one row of the elimination and the rows' views): the returned
    array, 2 R w floats, ``ext``, 4 R (w-1), and ``spec``, 2 R w complex
    entries.  The factors it reads are ``f.inv_pivot``, R w, and ``f.off``,
    R-1.  Between the two transforms ``spec`` is idle: it holds the inverse
    pivots broadcast to the shape of the solution, 2 R w floats, and the
    multipliers _eliminate forms from them, 2 (R-1) w.
    """
    work = x[:, f.rows].transpose(1, 0, 2).copy()  # one contiguous block per row
    if not f.inv_pivot.size:
        return work
    work[:, :, 0] = work[:, :, -1] = 0.0
    flat = work.reshape(-1, work.shape[-1])
    ext = np.empty((flat.shape[0], 2 * (flat.shape[1] - 1)))
    spec = np.empty(flat.shape, dtype=complex)
    _sine(flat, 1, ext, spec)
    idle = spec.view(float).reshape(-1)
    mult = idle[: work[:-1].size].reshape(work[:-1].shape)
    inv_pivot = idle[mult.size : mult.size + work.size].reshape(work.shape)
    np.copyto(inv_pivot, f.inv_pivot[:, None])
    _eliminate(work, f.off[:, None], inv_pivot, mult)
    _sine(flat, 1, ext, spec)
    return work


def pressure_factors(grid: GridSpec, eta: np.ndarray, extent: tuple[int, int]) -> StripFactors:
    """Factors of one strip's pressure system -div(eta^2 grad p).

    The system couples the interior rows of the extent plus the row after
    it, which x1 fluxes join to the last of them: the strip's box.  Every
    other node is in the kernel, and a strip with no interior row has the
    zero system.  The box nodes with i2 = n2 are leaves joined only to
    their x2 neighbour, except on the last box row, which has no x2 fluxes
    and whose node there is isolated.  Eliminating the leaves leaves
    A (x) I + B (x) N', with N' the Neumann second difference on n2 - 1
    nodes, which a DCT-II along x2 reduces to one tridiagonal system in i1
    per cosine mode.  Mode 0 is singular (the constants), so its last row is
    pinned by doubling its diagonal.
    """
    lo, hi = _interior_rows(grid, extent)
    if hi < lo:
        return StripFactors(slice(lo, lo), np.zeros((0, 1)), np.zeros((0, 0)))
    hi += 1
    w = eta[lo : hi + 1] * eta[lo : hi + 1]
    flux = np.zeros(w.size + 1)
    flux[1:-1] = w[:-1] / grid.h1**2
    across = w.copy()
    across[-1] = 0.0
    mu = _second_difference(grid.n2 - 1, grid.h2)[None, : grid.n2 - 1]
    diag = (flux[:-1] + flux[1:])[:, None] + across[:, None] * mu
    diag[-1, 0] += flux[-2]
    return _factor(slice(lo, hi + 1), diag, -flux[1:-1, None], grid.h2**2 / w[:-1])


def pressure_solve(rhs: np.ndarray, f: StripFactors) -> np.ndarray:
    """Solve one strip's pressure system for a consistent right-hand side.

    Returns the minimum-norm solution, the one plain CG from zero converges
    to: zero outside the box and on its isolated corner node, zero mean over
    the other box nodes.  With R the box's rows and k = (n2-1)//2+1, the
    workspace is the contiguous box ``b``, R (n2-1) floats, ``spec``, R k
    complex entries, and ``ext``, R k complex entries as well, so that it can
    hold the twiddles broadcast to spec's shape.  The factors it reads are
    ``f.inv_pivot``, of b's shape, and ``f.off``, R-1; ``spec`` is idle
    between the transforms and holds the multipliers, (R-1) (n2-1) floats,
    while _eliminate runs.  The gauge's sum reads the strided box through
    numpy's buffer of at most 8192 entries, as the sum of the monolithic
    projection does.
    """
    n2 = rhs.shape[1] - 1
    p = np.zeros(rhs.shape)
    if not f.inv_pivot.size:
        return p
    r = rhs[f.rows, 1:]
    b = np.empty((r.shape[0], n2 - 1))
    b[...] = r[:, :-1]
    b[:-1, -1] += r[:-1, -1]  # each leaf's equation, folded into its neighbour's
    spec = np.empty((b.shape[0], (n2 - 1) // 2 + 1), dtype=complex)
    table = np.empty_like(spec)
    ext = table.view(float).reshape(-1)[: b.size].reshape(b.shape)
    tw, twc = _twiddles(n2 - 1)
    _cosine(b, 1, ext, spec, tw, table)
    mult = spec.view(float).reshape(-1)[: b[:-1].size].reshape(b[:-1].shape)  # spec is idle until the inverse
    _eliminate(b, f.off, f.inv_pivot, mult)
    _cosine_inverse(b, 1, ext, spec, twc, table)
    p[f.rows, 1:n2] = b
    leaves = p[f.rows, n2]
    leaves[:-1] = b[:-1, -1] + f.leaf * r[:-1, -1]
    # the range projection acts on the block [1:, 1:] of its argument and
    # zeroes its last node: here the box and its isolated corner
    _pressure_range(p[f.rows.start - 1 : f.rows.stop])
    return p
