"""A refinement series whose errors are exactly zero is tabulated, not a crash."""

import json
import math

from stokesdd import cli


def test_refinement_zero_errors_give_inf_and_nan():
    rows = cli._refinement("tau", "monolithic", [8, 8, 8], [0.1, 0.05, 0.025], [1.0, 0.0, 0.0])
    ratios = [row[5] for row in rows]
    orders = [row[6] for row in rows]
    assert math.isnan(ratios[0]) and ratios[1] == math.inf and math.isnan(ratios[2])
    assert math.isnan(orders[0]) and orders[1] == math.inf and math.isnan(orders[2])


def test_converge_with_zero_exact_solution(tmp_path):
    # amplitude 0 makes the exact solution zero and the forcing underflows,
    # so every error of every series is 0.0
    rc = cli.main([
        "converge", "--amplitude", "0", "--decay", "1e5", "--taus", "0.1,0.05", "--grids", "8,16",
        "--n1", "8", "--n2", "8", "--t_final", "0.2", "--out_dir", str(tmp_path),
    ])
    assert rc == 0
    rows = (tmp_path / "converge.csv").read_text().splitlines()
    assert rows[0] == "study,scheme,n,tau,error,ratio,order"
    assert len(rows) == 1 + 3 * 2 + 2
    assert all(row.split(",")[4] == "0.0" for row in rows[1:])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["rows"] == 8
