"""A manufactured decay factor beyond the float range stops the run, not the program.

``exp(-decay * t)`` overflows for ``decay * t`` below about -709.8; the
factor is then inf, so the forcing of step 1 is not finite and the run
stops in its first stage, exit 1, with the outputs of no completed step.
``converge`` tabulates the errors this leaves, inf or nan.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stokesdd import cli, make_grid
from stokesdd.verify import ManufacturedCase, exact_velocity

SRC = str(Path(__file__).resolve().parents[1] / "src")
OVERFLOWING = ["--decay=-1e300", "--t_final", "0.2"]


def test_an_overflowing_decay_factor_is_inf_and_a_library_caller_gets_numpy_warnings():
    with pytest.warns(RuntimeWarning, match="invalid value"):  # 0 * inf where the sine vanishes
        u = exact_velocity(ManufacturedCase(decay=-1e4), make_grid(1.0, 1.0, 4, 4), 1.0)
    assert (u.u1[1, 1], u.u1[1, 3]) == (math.inf, -math.inf)


@pytest.mark.parametrize(
    "scheme, stage",
    [("monolithic", "viscous solve"), ("decomposed", "forward sweep, strip 0")],
)
def test_a_run_whose_forcing_overflows_stops_in_step_1_with_its_outputs(scheme, stage, tmp_path, capsys):
    assert cli.main(["run", "--scheme", scheme, *OVERFLOWING, "--out_dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ""
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["steps_completed"] == 0
    assert manifest["monitors"]["message"] == f"{stage}: residual norm is nan"
    assert (tmp_path / "steps.csv").read_text().count("\n") == 1
    assert (tmp_path / "velocity.csv").is_file()


def test_converge_tabulates_the_errors_of_an_overflowing_decay(tmp_path, capsys):
    assert cli.main(["converge", "--decay=-1e4", "--out_dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "converge.csv").read_text().splitlines()[1:]
    assert json.loads((tmp_path / "manifest.json").read_text())["rows"] == len(rows) == 15
    assert any(math.isinf(float(row.split(",")[4])) for row in rows)


def test_a_process_run_with_warnings_as_errors_writes_nothing_to_stderr(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    flags = [*OVERFLOWING, "--n1", "4", "--n2", "4", "--out_dir", str(tmp_path)]
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "stokesdd.cli", "run", *flags]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout == "run: 0 of 2 steps, monitors FAIL\n"
    assert json.loads((tmp_path / "manifest.json").read_text())["steps_completed"] == 0
