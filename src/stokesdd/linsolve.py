"""Conjugate gradient for the selfadjoint systems the schemes produce.

Zero initial guess, fixed-order reductions, so repeated solves of the same
system give bitwise-identical results.  An optional preconditioner turns the
iteration into preconditioned CG; without one it is plain CG.  Semidefinite
systems with consistent right-hand sides are fine: starting from zero keeps
every iterate inside the range of the operator, and the stopping test only
looks at the residual.  A preconditioner can leave that range, so a singular
system solved with one needs a ``project`` hook onto the range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericalBreakdownError(ArithmeticError):
    """Non-finite values or loss of positivity inside the iteration."""


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances and caps for cg_solve.

    Convergence requires the residual norm to fall below
    max(rel_tol * initial residual, abs_tol).  max_iter of None means ten
    times the unknown count.  deflate_constants projects the constant mode
    out of the right-hand side, every search direction, every preconditioned
    residual, and the returned solution; use it for singular systems whose
    kernel contains constants.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_iter: int | None = None
    deflate_constants: bool = False


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float
    converged: bool


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a.ravel(), b.ravel()))


def cg_solve(
    apply: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    cfg: SolveConfig | None = None,
    project: Callable[[np.ndarray], np.ndarray] | None = None,
    precondition: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Solve apply(x) = rhs by conjugate gradients from a zero initial guess.

    Parameters
    ----------
    apply : callable
        The operator; must be selfadjoint and positive semidefinite on the
        subspace the iteration runs in.
    rhs : numpy.ndarray
        Right-hand side; any shape, treated as one flat unknown vector.
    cfg : SolveConfig, optional
    project : callable, optional
        Replacement for the default constant-mode projection when
        cfg.deflate_constants is set.  Receives and returns an array; used
        when the constant mode of the underlying field does not coincide
        with the constant vector of the raw array.  With a preconditioner it
        is also applied to every preconditioned residual.
    precondition : callable, optional
        Approximate inverse of the operator; must be selfadjoint and
        positive definite on the range.  Receives the residual and returns a
        new array.  The stopping test stays on the unpreconditioned residual.

    Returns
    -------
    (solution, SolveReport)
        If max_iter is exhausted the current iterate is returned with
        converged False.  Non-finite arithmetic raises
        NumericalBreakdownError.
    """
    cfg = cfg or SolveConfig()
    if cfg.deflate_constants and project is None:
        def project(arr: np.ndarray) -> np.ndarray:
            arr -= arr.mean()
            return arr

    r = rhs.astype(float, copy=True)
    if cfg.deflate_constants:
        r = project(r)
    x = np.zeros_like(r)

    res0 = math.sqrt(_dot(r, r))
    target = max(cfg.rel_tol * res0, cfg.abs_tol)
    if not math.isfinite(res0):
        raise NumericalBreakdownError(f"right-hand side norm is {res0}")
    if res0 <= target:
        return x, SolveReport(iterations=0, residual=res0, converged=True)

    def preconditioned(r: np.ndarray) -> tuple[np.ndarray, float]:
        z = precondition(r)
        if cfg.deflate_constants:
            z = project(z)
        rz = _dot(r, z)
        if not math.isfinite(rz) or rz <= 0.0:
            raise NumericalBreakdownError(f"preconditioned residual product is {rz}")
        return z, rz

    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * r.size
    if precondition is None:
        d = r.copy()
        rz = res0 * res0
    else:
        d, rz = preconditioned(r)
    res = res0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        q = apply(d)
        dq = _dot(d, q)
        if not math.isfinite(dq) or dq <= 0.0:
            raise NumericalBreakdownError(f"curvature {dq} on iteration {iterations}")
        alpha = rz / dq
        x += alpha * d
        r -= alpha * q
        rr_new = _dot(r, r)
        if not math.isfinite(rr_new):
            raise NumericalBreakdownError(f"residual norm squared is {rr_new}")
        res = math.sqrt(rr_new)
        if res <= target:
            converged = True
            break
        if precondition is None:
            z, rz_new = r, rr_new
        else:
            z, rz_new = preconditioned(r)
        d = z + (rz_new / rz) * d
        if cfg.deflate_constants:
            d = project(d)
        rz = rz_new

    if cfg.deflate_constants:
        x = project(x)
    return x, SolveReport(iterations=iterations, residual=res, converged=converged)
