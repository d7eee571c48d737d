"""A decomposed run holds the previous step's strip pressures on their boxes only.

Each strip pressure is +0.0 off its box rows ``pressure_factors[a].rows``, so
``schemes.run`` keeps only those rows between steps and rebuilds the full
fields once on return.  These tests pin the invariant, the bits of the
rebuilt fields (a run that fails after completed steps included), and the
memory a multi-step run saves by it.
"""

import tracemalloc

import numpy as np
import pytest

from stokesdd import (
    DecomposedVelocity,
    PressureField,
    SchemeConfig,
    VelocityField,
    blend_pressures,
    build_strips,
    cli,
    dd_pressure_substeps,
    make_grid,
    schemes,
)


def _inputs(grid, m, rng):
    """Random strip velocities, a third of them zeros of either sign."""
    U = np.zeros((m, 2) + grid.shape)
    inner = rng.choice([-1.0, 1.0, 0.0, -0.0], size=(m, 2, grid.n1 - 1, grid.n2 - 1), p=[0.35, 0.35, 0.15, 0.15])
    U[:, :, 1:-1, 1:-1] = inner * rng.uniform(0.5, 1.5, inner.shape)
    return DecomposedVelocity.wrap(grid, U)


def _check_zero_off_the_box(grid, m, overlap, rng):
    part = build_strips(grid, m, overlap)
    _, pressures = dd_pressure_substeps(_inputs(grid, m, rng), float(rng.uniform(0.01, 0.5)), part)
    for p, f in zip(pressures, part.pressure_factors, strict=True):
        off = np.ones(grid.n1 + 1, dtype=bool)
        off[f.rows] = False
        assert np.all(p.p[off] == 0.0) and not np.any(np.signbit(p.p[off]))


@pytest.mark.parametrize("overlap", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("m", range(1, 9))
def test_strip_pressures_are_plus_zero_off_their_box_rows(m, overlap):
    _check_zero_off_the_box(make_grid(2.0, 0.7, 43, 7), m, overlap, np.random.default_rng(100 * m + 10 * overlap))


@pytest.mark.parametrize("seed", range(40))
def test_strip_pressures_are_plus_zero_off_their_box_rows_on_small_grids(seed):
    rng = np.random.default_rng(seed)
    n1, m = int(rng.integers(4, 14)), int(rng.integers(1, 5))
    overlap = int(rng.integers(0, max(1, n1 // m)))
    _check_zero_off_the_box(make_grid(1.0, 1.0, n1, int(rng.integers(2, 6))), m, overlap, rng)


def test_strip_pressures_are_plus_zero_without_an_interior_row():
    _check_zero_off_the_box(make_grid(1.0, 1.0, 2, 4), 2, 0, np.random.default_rng(5))


def _recording_steps(monkeypatch) -> list:
    """Copies of the strip pressures of every step step_decomposed returns."""
    seen: list = []
    step = schemes.step_decomposed

    def recording(*args, **kwargs):
        U, pressures, rep = step(*args, **kwargs)
        seen.append([p.p.copy() for p in pressures])
        return U, pressures, rep

    monkeypatch.setattr(schemes, "step_decomposed", recording)
    return seen


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("t_final", ["0.5", "5"], ids=["one-step", "fails-in-step-3"])
def test_a_run_returns_its_last_completed_steps_pressures_bit_for_bit(t_final, monkeypatch, tmp_path):
    """With t_final 5 the run stops in step 3 ("non-finite norm inf in step
    report") and exits 1; it still writes the blend of step 2's pressures."""
    seen = _recording_steps(monkeypatch)
    results: list = []
    run = cli.run
    monkeypatch.setattr(cli, "run", lambda cfg: results.append(run(cfg)) or results[-1])
    flags = ["--scheme", "decomposed", "--n1", "16", "--n2", "16", "--m", "3", "--overlap", "2", "--tau", "0.5"]
    out = tmp_path / "out"
    code = cli.main(["run", *flags, "--t_final", t_final, "--decay=-300", "--out_dir", str(out)])

    (result,) = results
    assert (code, len(result.reports), result.completed) == ((0, 1, True) if t_final == "0.5" else (1, 2, False))
    assert len(seen) == len(result.reports)
    assert all(_same_bits(p.p, want) for p, want in zip(result.pressures, seen[-1], strict=True))
    part = result.config.partition
    from_steps = [PressureField.wrap(part.grid, p) for p in seen[-1]]
    cli.write_pressure_csv(tmp_path / "want.csv", blend_pressures(part, from_steps))
    assert (out / "pressure_composite.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_a_run_that_fails_in_step_1_returns_no_pressures():
    grid = make_grid(1.0, 1.0, 8, 8)
    v = VelocityField.zeros(grid)
    v.data[0, 3, 3] = np.nan
    result = schemes.run(SchemeConfig(v=v, tau=0.1, t_final=0.3, scheme="decomposed", m=2, overlap=1))
    assert (result.completed, result.reports, result.pressures) == (False, [], None)


def _traced_peak(steps: int, grid, m: int) -> int:
    rng = np.random.default_rng(7)
    v = VelocityField.wrap(grid, rng.uniform(-1.0, 1.0, (2,) + grid.shape))
    cfg = SchemeConfig(v=v, tau=0.01, t_final=0.01 * steps, scheme="decomposed", m=m, overlap=2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        schemes.run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_three_steps_hold_at_most_16_bytes_per_node_more_than_one():
    """Holding the previous step's m full strip pressures through the next
    step would cost 8 m = 64 B/node from step 2 on; their box rows are about
    one plane, 8 B/node."""
    grid = make_grid(1.0, 1.0, 96, 48)
    nodes = (grid.n1 + 1) * (grid.n2 + 1)
    one, three = _traced_peak(1, grid, 8), _traced_peak(3, grid, 8)
    assert three <= one + 16 * nodes, f"{(three - one) / nodes:.1f} B/node more over three steps"
