"""Refusals of mismatched arguments, and of a residual that overflows.

Each operator, each canonical unflattening and the partition's decompose and
recompose refuse arguments on different grids, or of the wrong size or strip
count, with GridMismatchError; cg_solve stops with NumericalBreakdownError
when its residual norm overflows.
"""

import numpy as np
import pytest

from stokesdd import (
    DecomposedVelocity,
    GridMismatchError,
    MaskOperator,
    NumericalBreakdownError,
    VelocityField,
    ViscousOperator,
    apply_coupling,
    apply_coupling_lower,
    apply_mask,
    apply_viscous,
    build_strips,
    cg_solve,
    decompose,
    make_grid,
    recompose,
    vector_to_decomposed,
    vector_to_pressure,
)

G8, G4 = make_grid(1.0, 1.0, 8, 8), make_grid(1.0, 1.0, 4, 4)
PART = build_strips(G8, 2, 1)
OP = ViscousOperator(G8, 1.0)


def _overflowing_residual():
    with np.errstate(all="ignore"):  # the residual's square overflows to inf
        cg_solve(lambda d: np.array([1e200, -1e200, 1e-100]), np.ones(3))


CASES = {
    "mask_shape": (lambda: MaskOperator(G8, np.ones(G4.shape)), GridMismatchError, "mask shape"),
    "viscous_grid": (lambda: apply_viscous(OP, VelocityField.zeros(G4)), GridMismatchError, "operator and field grids differ"),
    "mask_grid": (lambda: apply_mask(PART.masks[0], VelocityField.zeros(G4)), GridMismatchError, "mask and field grids differ"),
    "coupling_count": (
        lambda: apply_coupling(PART.masks, OP, DecomposedVelocity.wrap(G8, np.zeros((3, 2) + G8.shape))),
        GridMismatchError, "2 masks for 3 components",
    ),
    "coupling_lower_count": (
        lambda: apply_coupling_lower(PART.masks, OP, DecomposedVelocity.wrap(G8, np.zeros((1, 2) + G8.shape))),
        GridMismatchError, "2 masks for 1 components",
    ),
    "pressure_vector": (lambda: vector_to_pressure(G4, np.zeros(5)), GridMismatchError, "expected vector of length 16"),
    "decomposed_vector": (lambda: vector_to_decomposed(G4, 2, np.zeros(18)), GridMismatchError, "expected vector of length 36"),
    "decompose_grid": (lambda: decompose(PART, VelocityField.zeros(G4)), GridMismatchError, "partition and field grids differ"),
    "recompose_grid": (
        lambda: recompose(PART, DecomposedVelocity.wrap(G4, np.zeros((2, 2) + G4.shape))),
        GridMismatchError, "partition and field grids differ",
    ),
    "cg_residual_overflow": (_overflowing_residual, NumericalBreakdownError, "residual norm squared is inf"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES)
def test_the_refusal_is_raised(call, error, message):
    with pytest.raises(error, match=message):
        call()
