"""Each strip of a decomposed step works on its own rows ± 1 and keeps the bits of the full-grid step.

The reference below is the step with every strip's work written on the whole
grid: the right-hand side, the coupling tau eta coupled, the product eta x,
the stencil apply, the residual, the divergences, the gradient and the
update.  The inputs carry zeros of both signs and non-zero values outside
each strip, so that the signs of zeros are compared too: equal as floats
would pass 0.0 against -0.0.
"""

import json

import numpy as np
import pytest

from stokesdd import (
    DecomposedVelocity,
    ViscousOperator,
    build_strips,
    cli,
    dd_backward_sweep,
    dd_forward_sweep,
    dd_pressure_substeps,
    make_grid,
    schemes,
)
from stokesdd.operators import _divergence_raw, _gradient_raw, _viscous_raw
from stokesdd.transforms import pressure_solve, sweep_solve

NU = 0.8


def _reference_sweep(U, F, tau, part, order, what, residuals):
    factors = part.sweep_factors(NU, tau)
    out = np.empty_like(U)
    coupled = np.zeros(U.shape[1:])
    for k, a in enumerate(order):
        eta = part.eta[a]
        rhs = U[a]
        if F is not None:
            rhs = rhs + tau * F[a]
        if k > 0:
            rhs = rhs - tau * eta * coupled
        out[a] = sweep_solve(rhs, factors[a])
        own = _viscous_raw(eta * out[a], part.grid, NU)
        coupled += own
        own *= 0.5 * tau * eta
        own += out[a]
        own -= rhs
        residuals.append((f"{what}, strip {a}", own))
    return out


def _reference_substeps(U, tau, part, residuals):
    grid = part.grid
    out = np.empty_like(U)
    pressures = []
    for a, (eta, x, factors) in enumerate(zip(part.eta, U, part.pressure_factors)):
        p = pressure_solve(-(1.0 / tau) * _divergence_raw(eta * x, grid), factors)
        np.subtract(x, tau * eta * _gradient_raw(p, grid), out=out[a])
        residuals.append((f"pressure substep, strip {a}", _divergence_raw(eta * out[a], grid)))
        pressures.append(p)
    return out, pressures


def _inputs(grid, m, rng):
    """Random values, a third of them zeros of either sign, and sometimes a strip of zeros only."""
    U = np.zeros((m, 2) + grid.shape)
    inner = rng.choice([-1.0, 1.0, 0.0, -0.0], size=(m, 2, grid.n1 - 1, grid.n2 - 1), p=[0.35, 0.35, 0.15, 0.15])
    U[:, :, 1:-1, 1:-1] = inner * rng.uniform(0.5, 1.5, inner.shape)
    if m > 1 and rng.uniform() < 0.5:
        U[rng.integers(m)] = rng.choice([0.0, -0.0], size=U.shape[1:])
    return DecomposedVelocity.wrap(grid, U)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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


def _check_step(grid, m, overlap, forced, rng, seen):
    part = build_strips(grid, m, overlap)
    op = ViscousOperator(grid, NU)
    tau = float(rng.uniform(0.01, 0.5))
    U = _inputs(grid, m, rng)
    F = _inputs(grid, m, rng) if forced else None

    want = []
    quarter = _reference_sweep(U.data, F.data if forced else None, tau, part, range(m), "forward sweep", want)
    half = _reference_sweep(quarter, None, tau, part, range(m - 1, -1, -1), "backward sweep", want)
    end, pressures = _reference_substeps(half, tau, part, want)

    got_quarter = dd_forward_sweep(U, F, tau, op, part).data
    got_half = dd_backward_sweep(DecomposedVelocity.wrap(grid, got_quarter.copy()), tau, op, part).data
    got_end, got_pressures = dd_pressure_substeps(DecomposedVelocity.wrap(grid, got_half.copy()), tau, part)

    for got, ref in ((got_quarter, quarter), (got_half, half), (got_end.data, end)):
        assert _same_bits(got, ref)
    assert all(_same_bits(p.p, ref) for p, ref in zip(got_pressures, pressures, strict=True))
    assert [what for what, _ in seen] == [what for what, _ in want]
    for (what, got), (_, ref) in zip(seen, want):
        # the sweeps' residuals keep every bit; the substeps' divergences are
        # taken on the strip's rows ± 1 only, and are +0.0 off them
        assert _same_bits(got, ref) if "sweep" in what else np.array_equal(got, ref)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
@pytest.mark.parametrize("overlap", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("m", range(1, 9))
def test_box_local_stages_match_the_full_grid_step_bit_for_bit(residuals, m, overlap, forced):
    # 43 is prime, so no m > 1 divides n1 and the strips differ in width
    grid = make_grid(2.0, 0.7, 43, 7)
    _check_step(grid, m, overlap, forced, np.random.default_rng(100 * m + 10 * overlap + forced), residuals)


@pytest.mark.parametrize("seed", range(40))
def test_box_local_stages_keep_the_signs_of_zeros_on_small_grids(residuals, seed):
    """Small grids with many exact zeros, where a stencil sees only zeros and
    the sign of its zero reaches the coupling; strips of one row included."""
    rng = np.random.default_rng(seed)
    n1, m = int(rng.integers(4, 14)), int(rng.integers(1, 5))
    overlap = int(rng.integers(0, max(1, n1 // m)))
    grid = make_grid(1.0, 1.0, n1, int(rng.integers(2, 6)))
    _check_step(grid, m, overlap, bool(rng.integers(2)), rng, residuals)
    residuals.clear()


def test_a_strip_with_no_interior_row_reports_a_zero_residual(residuals):
    grid = make_grid(1.0, 1.0, 2, 4)
    part = build_strips(grid, 2, 0)
    assert part.slabs[0] is None and part.extents[0] == (0, 0)
    _check_step(grid, 2, 0, True, np.random.default_rng(5), residuals)


@pytest.mark.parametrize("row", [1, 9, 10, 11, 12, 19, 20, 21, 22, 30])
def test_a_nan_in_the_initial_velocity_exits_1_in_the_forward_sweep(row, tmp_path, monkeypatch, capsys):
    """The sweep stops at the first strip whose rows ± 1 hold the NaN."""
    exact = cli.exact_velocity

    def with_nan(case, grid, t):
        v = exact(case, grid, t)
        v.data[1, row, 3] = np.nan
        return v

    monkeypatch.setattr(cli, "exact_velocity", with_nan)
    out = tmp_path / "out"
    flags = ["--scheme", "decomposed", "--n1", "31", "--n2", "8", "--m", "3", "--overlap", "2"]
    assert cli.main(["run", *flags, "--tau", "0.1", "--t_final", "0.2", "--out_dir", str(out)]) == 1
    message = json.loads((out / "manifest.json").read_text())["monitors"]["message"]
    assert message.startswith("forward sweep, strip ") and message.endswith("residual norm is nan")
    strip = int(message.split("strip ")[1].split(":")[0])
    first, last = build_strips(make_grid(1.0, 1.0, 31, 8), 3, 2).extents[strip]
    assert first - 1 <= row <= last + 1
