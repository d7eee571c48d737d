"""The host facts a run's bytes depend on, recorded under manifest.json's ``numerics``.

Bytes are identical only for the same BLAS core and numpy SIMD targets (as
well as python, numpy and BLAS thread setting, under ``environment``), so
the manifest records numpy's BLAS, the OpenBLAS core it runs and numpy's
enabled dispatch targets.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stokesdd import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")
SMALL = ["run", "--n1", "4", "--n2", "4", "--tau", "0.1", "--t_final", "0.2", "--initial", "zero", "--forcing", "none"]


def test_the_manifest_records_blas_core_and_dispatch_targets(tmp_path):
    assert cli.main([*SMALL, "--out_dir", str(tmp_path)]) == 0
    numerics = json.loads((tmp_path / "manifest.json").read_text())["numerics"]
    assert set(numerics) == {"blas_name", "blas_version", "blas_core", "cpu_dispatch"}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (numerics["blas_name"], numerics["blas_version"]) == (blas["name"], blas["version"])
    assert numerics["blas_core"] is None or isinstance(numerics["blas_core"], str) and numerics["blas_core"]
    assert numerics["cpu_dispatch"] is None or all(isinstance(t, str) for t in numerics["cpu_dispatch"])


def test_a_child_run_under_a_forced_openblas_core_records_it(tmp_path):
    numerics = cli._numerics()
    if numerics["blas_core"] is None or "X86_V3" not in (numerics["cpu_dispatch"] or []):
        pytest.skip("no OpenBLAS core name, or no AVX2 host for the Haswell kernel")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = [sys.executable, "-m", "stokesdd.cli", *SMALL, "--out_dir", str(tmp_path)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads((tmp_path / "manifest.json").read_text())["numerics"]["blas_core"] == "Haswell"


def test_a_blas_library_that_cannot_be_loaded_records_no_core(monkeypatch):
    def refuse(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(cli.ctypes, "CDLL", refuse)
    numerics = cli._numerics()
    assert numerics["blas_core"] is None and numerics["blas_name"] is not None
