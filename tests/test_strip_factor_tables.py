"""Each strip system keeps one factor table, and the decomposed step's peak holds no hidden buffer.

The Thomas elimination of a strip's tridiagonal systems needs the inverse
pivots (rows, modes) and the couplings off (rows-1, 1): each multiplier is
off * inv_pivot, formed by the solve in memory its transforms leave idle.
The reference below is the loop that kept a second (rows, modes) table of
the multipliers; the inverse pivots, and the multipliers the solves form,
must keep its bits, signs of zeros included.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from stokesdd import SchemeConfig, build_strips, decompose, make_grid, make_rng, step_decomposed, transforms
from stokesdd.verify import ManufacturedCase, exact_velocity, forcing_of

NU, TAU = 0.8, 0.03
LAYOUTS = {
    "65x65 m=1": (make_grid(1.0, 1.0, 64, 64), 1, 0),
    "65x65 m=3": (make_grid(1.0, 1.0, 64, 64), 3, 2),
    "43x7 m=5": (make_grid(2.0, 0.7, 43, 7), 5, 1),
    "no interior row": (make_grid(1.0, 1.0, 2, 4), 2, 0),
}


def _thomas_tables(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and inverse pivots, as the loop that stored both computed them."""
    mult = np.zeros_like(diag)
    inv = np.zeros_like(diag)
    for i in range(diag.shape[0]):
        inv[i] = 1.0 / (diag[i] - mult[i - 1] * off[i - 1] if i else diag[0])
        if i + 1 < diag.shape[0]:
            mult[i] = off[i] * inv[i]
    return mult, inv


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    # equal as floats would pass 0.0 against -0.0
    return got.shape == want.shape and np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.fixture
def recorded(monkeypatch) -> dict:
    """The systems _factor is given, and the multipliers each elimination forms."""
    seen: dict = {"systems": [], "mult": []}
    factor, eliminate = transforms._factor, transforms._eliminate

    def factoring(rows, diag, off, leaf=None):
        seen["systems"].append((diag.copy(), off.copy()))
        return factor(rows, diag, off, leaf)

    def eliminating(b, off, inv_pivot, mult):
        eliminate(b, off, inv_pivot, mult)
        seen["mult"].append(mult.copy())

    monkeypatch.setattr(transforms, "_factor", factoring)
    monkeypatch.setattr(transforms, "_eliminate", eliminating)
    return seen


@pytest.mark.parametrize("layout", LAYOUTS)
def test_sweep_factors_and_multipliers_keep_the_bits_of_the_two_table_loop(recorded, layout):
    grid, m, overlap = LAYOUTS[layout]
    part = build_strips(grid, m, overlap)
    factors = part.sweep_factors(NU, TAU)
    assert len(recorded["systems"]) == m
    x = make_rng(7).uniform(-1.0, 1.0, (2,) + grid.shape)
    x[:, ::3, ::2] = -0.0
    for f, (diag, off) in zip(factors, recorded["systems"]):
        mult, inv = _thomas_tables(diag, off)
        assert _same_bits(f.inv_pivot, inv)
        recorded["mult"].clear()
        transforms.sweep_solve_rows(x, f)
        if not f.inv_pivot.size:
            assert recorded["mult"] == []
            continue
        (formed,) = recorded["mult"]
        assert _same_bits(formed, np.broadcast_to(mult[:-1, None], formed.shape))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_pressure_factors_and_multipliers_keep_the_bits_of_the_two_table_loop(recorded, layout):
    grid, m, overlap = LAYOUTS[layout]
    part = build_strips(grid, m, overlap)
    factors = part.pressure_factors
    rhs = make_rng(8).uniform(-1.0, 1.0, grid.shape)
    systems = iter(recorded["systems"])
    for f in factors:
        recorded["mult"].clear()
        p = transforms.pressure_solve(rhs, f)
        if not f.inv_pivot.size:  # the zero system: nothing factored, nothing eliminated
            assert recorded["mult"] == [] and not p.any()
            continue
        mult, inv = _thomas_tables(*next(systems))
        assert _same_bits(f.inv_pivot, inv)
        (formed,) = recorded["mult"]
        assert _same_bits(formed, mult[:-1])
    assert next(systems, None) is None


@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_strip_factor_holds_one_table_and_its_couplings(layout):
    grid, m, overlap = LAYOUTS[layout]
    part = build_strips(grid, m, overlap)
    for kind, factors in (("sweep", part.sweep_factors(NU, TAU)), ("pressure", part.pressure_factors)):
        modes = grid.n2 + 1 if kind == "sweep" else grid.n2 - 1
        for f in factors:
            rows = f.rows.stop - f.rows.start
            if rows == 0:
                assert f.inv_pivot.size == 0 and f.off.shape == (0, 1)
                continue
            tables = [v for v in vars(f).values() if isinstance(v, np.ndarray) and v.ndim == 2 and v.shape[1] > 1]
            assert len(tables) == 1 and tables[0] is f.inv_pivot
            assert f.inv_pivot.shape == (rows, modes)
            assert f.off.shape == (rows - 1, 1)
            leaf = f.leaf.nbytes if kind == "pressure" else 0
            assert f.inv_pivot.nbytes + f.off.nbytes + leaf == (rows * modes + (rows - 1) * (2 if leaf else 1)) * 8


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_a_dd_channel_step_peaks_below_three_m_fold_states(forced):
    """The traced peak of one step after a warm-up step, less what was live
    before it, in units of one (m, 2, n1+1, n2+1) array, on the 4x1 channel
    of 64x64 cells, m = 2, overlap 16: the step's buffer, the strip
    pressures and the strip sweep's workspace, with no multiplier table and
    no numpy iterator buffer."""
    grid = make_grid(4.0, 1.0, 64, 64)
    case = ManufacturedCase()
    cfg = SchemeConfig(
        v=exact_velocity(case, grid, 0.0), tau=0.025, t_final=0.25, scheme="decomposed", m=2, overlap=16,
        forcing=forcing_of(case, grid) if forced else None,
    )
    U, _, _ = step_decomposed(decompose(cfg.partition, cfg.v), 0.0, cfg, step=1)
    gc.collect()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        step_decomposed(U, cfg.tau, cfg, step=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - live) / U.data.nbytes < 3.0
