"""A decomposed stage writing into an array that is neither new nor one of
its inputs: every stage first fills the whole array from its inputs, so a
NaN-filled buffer gives the bits a new array gets, and the inputs are left
as they were."""

import numpy as np
import pytest

from stokesdd import ViscousOperator, dd_backward_sweep, dd_forward_sweep, dd_pressure_substeps
from test_step_buffers import GRID, NU, _check_same, _inputs, _run, _same_bits, residuals  # noqa: F401  (residuals is a fixture)


def _stage(name: str, m: int, overlap: int):
    """The stage, its arguments, and the inputs it must leave untouched."""
    part, tau, U, F = _inputs(m, overlap, name == "forward forced")
    op = ViscousOperator(GRID, NU)
    if name.startswith("forward"):
        return dd_forward_sweep, (U, F, tau, op, part), [U] + ([F] if F is not None else [])
    if name == "backward":
        return dd_backward_sweep, (U, tau, op, part), [U]
    return dd_pressure_substeps, (U, tau, part), [U]


@pytest.mark.parametrize("m, overlap", [(1, 0), (2, 0), (2, 3), (3, 1), (4, 2), (5, 3)])
@pytest.mark.parametrize("name", ["forward forced", "forward unforced", "backward", "pressure"])
def test_a_stage_into_a_nan_filled_third_array_gives_the_new_array_bits(residuals, name, m, overlap):
    stage, args, inputs = _stage(name, m, overlap)
    kept = [x.data.copy() for x in inputs]
    want = _run(stage, args, residuals)
    got = _run(stage, args, residuals, lambda args: np.full_like(args[0].data, np.nan))
    _check_same(got, want)
    assert all(_same_bits(x.data, k) for x, k in zip(inputs, kept))
