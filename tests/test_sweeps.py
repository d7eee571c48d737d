"""The strip sweeps against their dense block triangular solves at three strips.

With three strips the middle one has neighbours on both sides, so each sweep
solves one strip that sees an already updated strip and one that does not.
"""

import numpy as np
import pytest

from stokesdd import (
    SolveConfig,
    ViscousOperator,
    assemble_dense,
    build_strips,
    dd_backward_sweep,
    dd_forward_sweep,
    decomposed_to_vector,
    make_grid,
)
from stokesdd.verify import make_rng, random_decomposed

TIGHT = SolveConfig(rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("tau", [0.1, 10.0])
def test_sweeps_match_dense_triangular_solves(tau):
    nu = 0.7
    grid = make_grid(2.25, 1.0, 9, 4)
    part = build_strips(grid, 3, 1)
    op = ViscousOperator(grid, nu)
    rng = make_rng(31)
    U = random_decomposed(grid, 3, rng)
    F = random_decomposed(grid, 3, rng)
    lower = assemble_dense("coupling_lower", grid, nu=nu, masks=part.masks)
    upper = assemble_dense("coupling_upper", grid, nu=nu, masks=part.masks)
    eye = np.eye(lower.shape[0])

    quarter = decomposed_to_vector(dd_forward_sweep(U, F, tau, op, part, TIGHT))
    want = np.linalg.solve(eye + tau * lower, decomposed_to_vector(U) + tau * decomposed_to_vector(F))
    assert np.linalg.norm(quarter - want) <= 1e-9 * np.linalg.norm(want)

    Uq = random_decomposed(grid, 3, rng)
    half = decomposed_to_vector(dd_backward_sweep(Uq, tau, op, part, TIGHT))
    want = np.linalg.solve(eye + tau * upper, decomposed_to_vector(Uq))
    assert np.linalg.norm(half - want) <= 1e-9 * np.linalg.norm(want)
