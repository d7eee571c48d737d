"""The strip sweeps make one stencil apply per strip and keep the block coupling exact.

The reference below is the sweep with the coupling of strip a written as
eta_a A(sum over the solved strips b of eta_b x_b), one extra apply of the
accumulated field per strip.  The sweeps must give the same bits: the same
strip solutions and the same residual arrays, strip by strip.
"""

import numpy as np
import pytest

from stokesdd import (
    SchemeConfig,
    ViscousOperator,
    build_strips,
    dd_backward_sweep,
    dd_forward_sweep,
    decompose,
    make_grid,
    make_rng,
    random_velocity,
    schemes,
    step_decomposed,
    step_monolithic,
)
from stokesdd.operators import _viscous_raw
from stokesdd.transforms import sweep_solve
from stokesdd.verify import random_decomposed

# 43 is prime, so no m > 1 divides n1 and the strips differ in width
GRID = make_grid(2.0, 0.7, 43, 7)
NU = 0.8


def _reference_sweep(U, F, tau, part, order, what, residuals, status):
    """The sweep on the (m, 2, n1+1, n2+1) arrays U and F; appends each strip's residual."""
    factors = part.sweep_factors(NU, tau)
    out = np.empty_like(U)
    solved = np.zeros((2,) + GRID.shape)
    for k, a in enumerate(order):
        eta = part.eta[a]
        rhs = U[a]
        if F is not None:
            rhs = rhs + tau * F[a]
        if k > 0:
            rhs = rhs - tau * eta * _viscous_raw(solved, GRID, NU)
        out[a] = sweep_solve(rhs, factors[a])
        x = out[a]
        own = eta * x
        r = _viscous_raw(own, GRID, NU)
        r *= 0.5 * tau * eta
        r += x
        r -= rhs
        residuals.append((f"{what}, strip {a}", r))
        schemes._direct(status, r, f"{what}, strip {a}")
        solved += own
    return out


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("overlap", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("m", range(1, 9))
def test_sweeps_match_the_accumulated_field_coupling_bit_for_bit(monkeypatch, m, overlap, forced):
    part = build_strips(GRID, m, overlap)
    op = ViscousOperator(GRID, NU)
    rng = make_rng(100 * m + 10 * overlap + forced)
    tau = float(rng.uniform(0.01, 0.5))
    U = random_decomposed(GRID, m, rng)
    F = random_decomposed(GRID, m, rng) if forced else None
    # the inputs are non-zero outside each strip, where the weights vanish
    assert all(np.any((eta == 0) & (x != 0)) for eta, x in zip(part.eta, U.data)) or m == 1

    want, ref_fwd_status, ref_bwd_status = [], {}, {}
    ref_quarter = _reference_sweep(U.data, F.data if forced else None, tau, part, range(m), "forward sweep", want,
                                   ref_fwd_status)
    ref_half = _reference_sweep(ref_quarter, None, tau, part, range(m - 1, -1, -1), "backward sweep", want,
                                ref_bwd_status)

    seen = []
    direct = schemes._direct

    def recording(status, r, what):
        seen.append((what, r.copy()))
        direct(status, r, what)

    monkeypatch.setattr(schemes, "_direct", recording)
    fwd_status, bwd_status = {}, {}
    quarter = dd_forward_sweep(U, F, tau, op, part, status=fwd_status)
    half = dd_backward_sweep(quarter, tau, op, part, status=bwd_status)

    assert np.array_equal(quarter.data, ref_quarter)
    assert np.array_equal(half.data, ref_half)
    # equal as floats would pass 0.0 against -0.0
    assert np.array_equal(np.signbit(quarter.data), np.signbit(ref_quarter))
    assert np.array_equal(np.signbit(half.data), np.signbit(ref_half))
    assert fwd_status == ref_fwd_status and bwd_status == ref_bwd_status
    assert [what for what, _ in seen] == [what for what, _ in want]
    for (_, got), (_, ref) in zip(seen, want):
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


def _config(scheme: str, m: int) -> SchemeConfig:
    grid = make_grid(1.5, 1.0, 20, 8)
    return SchemeConfig(v=random_velocity(grid, make_rng(3)), tau=0.05, t_final=0.05, nu=NU,
                        scheme=scheme, m=m, overlap=1, forcing=lambda t: random_velocity(grid, make_rng(4)))


@pytest.mark.parametrize("scheme, m", [("monolithic", 1), ("decomposed", 1), ("decomposed", 2),
                                       ("decomposed", 3), ("decomposed", 5)])
def test_one_step_takes_one_stencil_apply_per_strip_solve(monkeypatch, scheme, m):
    calls = []
    viscous = schemes._viscous_raw

    def counting(*args):
        calls.append(1)
        return viscous(*args)

    monkeypatch.setattr(schemes, "_viscous_raw", counting)
    cfg = _config(scheme, m)
    if scheme == "monolithic":
        step_monolithic(cfg.v.copy(), 0.0, cfg)
        assert len(calls) == 1
    else:
        step_decomposed(decompose(cfg.partition, cfg.v), 0.0, cfg)
        assert len(calls) == 2 * m
