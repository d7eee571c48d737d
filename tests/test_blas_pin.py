"""A run writes the same bytes whether or not the BLAS thread count is set.

Importing stokesdd sets each unset BLAS thread-count variable to 1 before
numpy loads the library: a threaded BLAS sums a long dot product in another
order, and the 128x128 monolithic run below takes dot products of 16k
entries, long enough for OpenBLAS to split them over the cores.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from stokesdd import BLAS_THREAD_VARS

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _digests(out: Path, env: dict) -> dict:
    env = dict(env, PYTHONPATH=SRC + os.pathsep + env.get("PYTHONPATH", ""))
    flags = ["--n1", "128", "--n2", "128", "--tau", "0.025", "--t_final", "0.25", "--out_dir", str(out)]
    done = subprocess.run([sys.executable, "-m", "stokesdd.cli", "run", *flags], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def test_unset_and_pinned_thread_counts_write_the_same_bytes(tmp_path):
    unset = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    got = _digests(tmp_path / "unset", unset)
    assert len(got) == 3
    assert got == _digests(tmp_path / "pinned", dict(unset, OPENBLAS_NUM_THREADS="1"))


def test_a_thread_count_the_user_set_is_kept():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=SRC)
    env.pop("OMP_NUM_THREADS", None)
    code = "import os, stokesdd; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["2", "1"]
