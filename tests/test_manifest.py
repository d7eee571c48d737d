"""The run environment recorded in manifest.json."""

import json
import os
import platform

import numpy as np

from stokesdd.cli import BLAS_THREAD_VARS, main


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    rc = main([
        "run", "--n1", "6", "--n2", "6", "--tau", "0.1", "--t_final", "0.2",
        "--initial", "zero", "--forcing", "none", "--out_dir", str(out),
    ])
    assert rc == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "cpu_count", "blas_threads"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["cpu_count"] == os.cpu_count()
    assert set(env["blas_threads"]) == set(BLAS_THREAD_VARS)
    assert env["blas_threads"]["OMP_NUM_THREADS"] == "3"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None
