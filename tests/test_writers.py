"""The CSV writers write exactly what a per-node loop over _fmt writes."""

import csv
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokesdd import PressureField, StepReport, VelocityField, make_grid
from stokesdd.grid import GridSpec
from stokesdd.cli import _fmt, write_pressure_csv, write_steps_csv, write_velocity_csv

SPECIAL = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 3.0, -2.0, 0.1, 1.0 / 3.0, 12345678901234567.0, 1e-5]


def _values(shape, seed):
    """Every special value somewhere, the rest random, boundary nodes included."""
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    flat = arr.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL
    rng.shuffle(flat)
    return arr


def _reference(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def test_velocity_writer_matches_the_per_node_loop(tmp_path):
    grid = make_grid(0.7, 1.3, 7, 5)
    u = VelocityField.zeros(grid)
    u.data[...] = _values(u.data.shape, 1)
    write_velocity_csv(tmp_path / "got.csv", u)
    rows = (
        [i1, i2, _fmt(i1 * grid.h1), _fmt(i2 * grid.h2), _fmt(u.u1[i1, i2]), _fmt(u.u2[i1, i2])]
        for i1 in range(grid.n1 + 1)
        for i2 in range(grid.n2 + 1)
    )
    _reference(tmp_path / "want.csv", ["i1", "i2", "x1", "x2", "u1", "u2"], rows)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + 8 * 6
    assert all(repr(v).encode() in got for v in SPECIAL)


def test_pressure_writer_matches_the_per_node_loop(tmp_path):
    grid = make_grid(0.7, 1.3, 7, 5)
    p = PressureField.zeros(grid)
    p.p[...] = _values(grid.shape, 2)
    write_pressure_csv(tmp_path / "got.csv", p)
    rows = (
        [i1, i2, _fmt(i1 * grid.h1), _fmt(i2 * grid.h2), _fmt(p.p[i1, i2])]
        for i1 in range(1, grid.n1 + 1)
        for i2 in range(1, grid.n2 + 1)
    )
    _reference(tmp_path / "want.csv", ["i1", "i2", "x1", "x2", "p"], rows)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.count(b"\r\n") == 1 + 7 * 5


def test_steps_writer_matches_the_per_report_loop(tmp_path):
    reports = [
        StepReport(k + 1, 0.1 * (k + 1), *vals, cg_iters_total=17 * k, bound_margin=-vals[0])
        for k, vals in enumerate(_values((len(SPECIAL), 7), 3))
    ]
    write_steps_csv(tmp_path / "got.csv", reports)
    header = ["step", "t", "norm_state", "norm_quarter", "norm_half", "norm_end", "div_residual", "cg_iters_total", "bound_margin"]
    rows = (
        [rep.step, _fmt(rep.t), _fmt(rep.norm_state), _fmt(rep.norm_quarter), _fmt(rep.norm_half),
         _fmt(rep.norm_end), _fmt(rep.div_residual), rep.cg_iters_total, _fmt(rep.bound_margin)]
        for rep in reports
    )
    _reference(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# Where repr switches notation (1e-4 and 1e16), the subnormals, and the
# values that have no digits at all.
SWITCHES = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 2.2250738585072014e-308 / 3,
            1e-5, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 12345678901234567.0]


@st.composite
def node_tables(draw):
    """A grid (n1 != n2, side lengths with no short binary form, spacings as
    python or numpy floats) and node values with planted special values."""
    n1 = draw(st.integers(2, 40))
    n2 = draw(st.integers(2, 40).filter(lambda n: n != n1))
    l1, l2 = draw(st.floats(0.01, 100.0)), draw(st.floats(0.01, 100.0))
    spacing = draw(st.sampled_from([float, np.float64]))
    grid = GridSpec(l1, l2, n1, n2, spacing(l1) / n1, spacing(l2) / n2)
    planted = draw(st.lists(st.sampled_from(SWITCHES) | st.floats(width=64), max_size=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((3,) + grid.shape) * 10.0 ** rng.integers(-20, 20, (3,) + grid.shape)
    flat = values.reshape(-1)
    flat[: len(SWITCHES) + len(planted)] = SWITCHES + planted
    rng.shuffle(flat)
    return grid, values


def _csv_module_rows(grid, columns, first):
    """The rows as the csv module got them before the line writer: raw
    coordinates (numpy floats stay numpy floats) and python float values."""
    return (
        [i1, i2, i1 * grid.h1, i2 * grid.h2, *(float(c[i1, i2]) for c in columns)]
        for i1 in range(first, grid.n1 + 1)
        for i2 in range(first, grid.n2 + 1)
    )


@settings(max_examples=60, deadline=None)
@example((make_grid(1.0 / 3.0, 0.7, 2, 40), np.full((3, 3, 41), -0.0)))
@example((GridSpec(0.3, 1.1, 40, 3, np.float64(0.3) / 40, np.float64(1.1) / 3), np.full((3, 41, 4), 1e16)))
@given(node_tables())
def test_node_writers_match_the_csv_module_bytes(tmp_path_factory, table):
    grid, values = table
    tmp = tmp_path_factory.mktemp("nodes")
    u = VelocityField.zeros(grid)
    u.data[...] = values[:2]
    p = PressureField.zeros(grid)
    p.p[...] = values[2]
    write_velocity_csv(tmp / "u.csv", u)
    write_pressure_csv(tmp / "p.csv", p)
    _reference(tmp / "u_ref.csv", ["i1", "i2", "x1", "x2", "u1", "u2"], _csv_module_rows(grid, [u.u1, u.u2], 0))
    _reference(tmp / "p_ref.csv", ["i1", "i2", "x1", "x2", "p"], _csv_module_rows(grid, [p.p], 1))
    assert (tmp / "u.csv").read_bytes() == (tmp / "u_ref.csv").read_bytes()
    assert (tmp / "p.csv").read_bytes() == (tmp / "p_ref.csv").read_bytes()


def test_velocity_writer_holds_a_few_lines_at_most(tmp_path):
    """At 300x300 the file is 301 lines of about 25 kB; a full-grid list of
    rows or strings would hold megabytes."""
    grid = make_grid(1.0, 1.0, 300, 300)
    u = VelocityField.zeros(grid)
    u.data[...] = _values(u.data.shape, 4)
    tracemalloc.start()
    try:
        write_velocity_csv(tmp_path / "u.csv", u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    line_bytes = (tmp_path / "u.csv").stat().st_size / (grid.n1 + 1)
    assert peak < 12 * line_bytes
