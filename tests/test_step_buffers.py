"""A decomposed step holds two m-fold states: its input and one buffer.

Each stage of the decomposed step can write its result into a given array,
its own input's or the forcing's, and must then give the bits it gives
into a new array.  The step hands one buffer to all three stages, so its
traced peak stays below three m-fold velocity arrays.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from stokesdd import (
    DecomposedVelocity,
    ManufacturedCase,
    SchemeConfig,
    ViscousOperator,
    build_strips,
    dd_backward_sweep,
    dd_forward_sweep,
    dd_pressure_substeps,
    decompose,
    forcing_of,
    make_grid,
    make_rng,
    random_velocity,
    schemes,
    step_decomposed,
)
from stokesdd.verify import random_decomposed

# 43 is prime, so no m > 1 divides n1 and the strips differ in width
GRID = make_grid(2.0, 0.7, 43, 7)
NU = 0.8


@pytest.fixture
def residuals(monkeypatch) -> list:
    """Every (what, residual) a stage reports, in order."""
    seen: list = []
    direct = schemes._direct

    def recording(status, r, what):
        seen.append((what, r.copy()))
        direct(status, r, what)

    monkeypatch.setattr(schemes, "_direct", recording)
    return seen


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    # equal as floats would pass 0.0 against -0.0
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _copy(U: DecomposedVelocity) -> DecomposedVelocity:
    return DecomposedVelocity.wrap(U.grid, U.data.copy())


def _run(stage, args: tuple, residuals: list, out_of=None):
    """stage(*args) into a new array, or into out_of(args) when given; its
    result, status and residual sequence."""
    residuals.clear()
    status: dict = {}
    if out_of is None:
        result = stage(*args, status=status)
    else:
        out = out_of(args)
        result = stage(*args, status=status, out=out)
        field = result[0] if isinstance(result, tuple) else result
        assert field.data is out
    return result, status, list(residuals)


def _check_same(got, want) -> None:
    (result, status, seen), (ref, ref_status, ref_seen) = got, want
    # the pressure substeps return (velocity, pressures), the sweeps a velocity
    (field, pressures), (ref_field, ref_pressures) = (r if isinstance(r, tuple) else (r, []) for r in (result, ref))
    assert _same_bits(field.data, ref_field.data)
    assert len(pressures) == len(ref_pressures)
    assert all(_same_bits(p.p, q.p) for p, q in zip(pressures, ref_pressures))
    assert status == ref_status
    assert [what for what, _ in seen] == [what for what, _ in ref_seen]
    assert all(_same_bits(r, q) for (_, r), (_, q) in zip(seen, ref_seen))


def _inputs(m: int, overlap: int, forced: bool):
    part = build_strips(GRID, m, overlap)
    rng = make_rng(1000 + 100 * m + 10 * overlap + forced)
    tau = float(rng.uniform(0.01, 0.5))
    U = random_decomposed(GRID, m, rng)
    F = random_decomposed(GRID, m, rng) if forced else None
    # the inputs are non-zero outside each strip, where the weights vanish
    assert all(np.any((eta == 0) & (x != 0)) for eta, x in zip(part.eta, U.data)) or m == 1
    return part, tau, U, F


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("overlap", [0, 1, 2, 3])
@pytest.mark.parametrize("m", range(1, 6))
def test_forward_sweep_into_its_input_gives_the_same_bits(residuals, m, overlap, forced):
    part, tau, U, F = _inputs(m, overlap, forced)
    op = ViscousOperator(GRID, NU)
    want = _run(dd_forward_sweep, (U, F, tau, op, part), residuals)
    got = _run(dd_forward_sweep, (_copy(U), F, tau, op, part), residuals, lambda args: args[0].data)
    _check_same(got, want)


@pytest.mark.parametrize("overlap", [0, 1, 2, 3])
@pytest.mark.parametrize("m", range(1, 6))
def test_forward_sweep_into_the_forcing_gives_the_same_bits(residuals, m, overlap):
    part, tau, U, F = _inputs(m, overlap, True)
    op = ViscousOperator(GRID, NU)
    want = _run(dd_forward_sweep, (U, F, tau, op, part), residuals)
    got = _run(dd_forward_sweep, (U, _copy(F), tau, op, part), residuals, lambda args: args[1].data)
    _check_same(got, want)


@pytest.mark.parametrize("overlap", [0, 1, 2, 3])
@pytest.mark.parametrize("m", range(1, 6))
def test_backward_sweep_into_its_input_gives_the_same_bits(residuals, m, overlap):
    part, tau, U, _ = _inputs(m, overlap, False)
    op = ViscousOperator(GRID, NU)
    want = _run(dd_backward_sweep, (U, tau, op, part), residuals)
    got = _run(dd_backward_sweep, (_copy(U), tau, op, part), residuals, lambda args: args[0].data)
    _check_same(got, want)


@pytest.mark.parametrize("overlap", [0, 1, 2, 3])
@pytest.mark.parametrize("m", range(1, 6))
def test_pressure_substeps_into_their_input_give_the_same_bits(residuals, m, overlap):
    part, tau, U, _ = _inputs(m, overlap, False)
    want = _run(dd_pressure_substeps, (U, tau, part), residuals)
    got = _run(dd_pressure_substeps, (_copy(U), tau, part), residuals, lambda args: args[0].data)
    _check_same(got, want)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_one_step_peaks_below_three_m_fold_states(forced):
    """The traced peak of one step after a warm-up step, less what was live
    before it (the input state), in units of one (m, 2, n1+1, n2+1) array:
    the one buffer of the step (the forcing's array, or a new one), the
    strip pressures and the per-strip work."""
    grid = make_grid(1.3, 0.7, 40, 24)
    m = 4
    cfg = SchemeConfig(
        v=random_velocity(grid, make_rng(5)), tau=0.05, t_final=1.0, scheme="decomposed", m=m, overlap=2,
        forcing=forcing_of(ManufacturedCase(), grid) if forced else None,
    )
    U, _, _ = step_decomposed(decompose(cfg.partition, cfg.v), 0.0, cfg, step=1)
    state_bytes = U.data.nbytes
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        step_decomposed(U, cfg.tau, cfg, step=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state_bytes == m * 2 * 41 * 25 * 8
    assert (peak - live) / state_bytes < 3.0
