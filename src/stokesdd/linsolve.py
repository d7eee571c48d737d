"""Conjugate gradient for selfadjoint systems; in the schemes, the monolithic
pressure solve (every other implicit stage is solved directly).  That solve
runs in the orthonormal cosine basis of its Neumann preconditioner
(transforms.cosine_pressure_system), with the same preconditioner and, up
to rounding, the same iterations as in physical space; its unknowns are the
n1*n2 pressure nodes.

Zero initial guess, fixed-order reductions, so repeated solves of the same
system give bitwise-identical results.  An optional preconditioner turns the
iteration into preconditioned CG; without one it is plain CG.  Semidefinite
systems with consistent right-hand sides are fine: starting from zero keeps
every iterate inside the range of the operator, and the stopping test only
looks at the residual.  A preconditioner can leave that range, so the one
switch for a singular system is a ``project`` hook onto the range, which
cg_solve applies wherever the iteration could leave it.  The iteration
allocates nothing of the unknowns' size: x, r and the direction are updated
in place, with the operator's output as scratch.
"""

from __future__ import annotations

import math
import numbers
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
    times the unknown count: 10*n1*n2 for the monolithic pressure solve.
    Tolerances must be finite and non-negative (zero is allowed) and max_iter
    an integer of at least 1; a NaN tolerance would make every solve run to
    max_iter.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_iter: int | None = None

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if not (self.max_iter is None or isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be None or an integer of at least 1, got {self.max_iter!r}")


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
        subspace the iteration runs in.  Its output, maybe a buffer it reuses,
        is scratch to cg_solve (copied first if it shares the argument's memory).
    rhs : numpy.ndarray
        Right-hand side, never changed; any shape, one flat unknown vector.
        It is copied first and not referenced after, so an array that only
        the call holds is freed before the iteration.
    cfg : SolveConfig, optional
    project : callable, optional
        Projection onto the range of a singular operator; passing one is
        what marks the system singular.  It is applied to the right-hand
        side, every preconditioned residual, every search direction and the
        returned solution.  Receives an array it may overwrite and returns
        the projected array.
    precondition : callable, optional
        Approximate inverse of the operator; must be selfadjoint and
        positive definite on the range.  Receives the residual and returns a
        new array or a buffer it reuses, even ``apply``'s: it is read before
        the next call.  The stopping test stays on the unpreconditioned residual.

    Returns
    -------
    (solution, SolveReport)
        If max_iter is exhausted the current iterate is returned with
        converged False.  Non-finite arithmetic raises
        NumericalBreakdownError.
    """
    cfg = cfg or SolveConfig()
    r = rhs.astype(float, copy=True)
    del rhs
    if project is not None:
        r = project(r)
    x = np.zeros_like(r)

    res0 = math.sqrt(_dot(r, r))
    target = max(cfg.rel_tol * res0, cfg.abs_tol)
    if not math.isfinite(res0):
        raise NumericalBreakdownError(f"right-hand side norm is {res0}")
    if res0 <= target:
        return x, SolveReport(iterations=0, residual=res0, converged=True)

    def preconditioned(r: np.ndarray, rr: float) -> tuple[np.ndarray, float]:
        """z = M r and (r, z); plain CG takes z = r, whose product rr is known."""
        if precondition is None:
            return r, rr
        z = precondition(r)
        if project is not None:
            z = project(z)
        rz = _dot(r, z)
        if not math.isfinite(rz) or rz <= 0.0:
            raise NumericalBreakdownError(f"preconditioned residual product is {rz}")
        return z, rz

    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * r.size
    z, rz = preconditioned(r, res0 * res0)
    d = z.copy()
    res = res0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        q = apply(d)
        if np.may_share_memory(q, d):
            q = q.copy()
        dq = _dot(d, q)
        if not math.isfinite(dq) or dq <= 0.0:
            raise NumericalBreakdownError(f"curvature {dq} on iteration {iterations}")
        alpha = rz / dq
        q *= alpha
        r -= q
        np.multiply(d, alpha, out=q)
        x += q
        rr_new = _dot(r, r)
        if not math.isfinite(rr_new):
            raise NumericalBreakdownError(f"residual norm squared is {rr_new}")
        res = math.sqrt(rr_new)
        if res <= target:
            converged = True
            break
        z, rz_new = preconditioned(r, rr_new)
        d *= rz_new / rz
        d += z
        if project is not None:
            d = project(d)
        rz = rz_new

    if project is not None:
        x = project(x)
    return x, SolveReport(iterations=iterations, residual=res, converged=converged)
