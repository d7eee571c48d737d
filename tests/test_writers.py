"""The CSV writers write exactly what a per-node loop over _fmt writes."""

import csv

import numpy as np

from stokesdd import PressureField, StepReport, VelocityField, make_grid
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
