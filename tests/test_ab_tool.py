"""tools/ab.py: the working tree against HEAD, both builds in one process, one JSON line out."""

import importlib.util
import json
import math
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# Tiny grids of each scheme, so that 2 blocks take well under a second.
TINY = {
    "mono_square": dict(scheme="monolithic", n1=12, n2=12, tau=0.05, t_final=0.2),
    "dd_channel": dict(scheme="decomposed", l1=2.0, n1=16, n2=8, m=2, overlap=2, tau=0.05, t_final=0.2),
}


@pytest.fixture(autouse=True)
def _git_checkout():
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True).returncode:
        pytest.skip("needs a git checkout with a commit")


@pytest.mark.parametrize("workload", sorted(TINY))
def test_prints_one_reading(workload, monkeypatch, capsys):
    monkeypatch.setitem(ab.WORKLOADS, workload, TINY[workload])
    ab.main(["--base", "HEAD", "--workload", workload, "--blocks", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    reading = json.loads(lines[0])
    assert (reading["workload"], reading["base"], reading["blocks"]) == (workload, "HEAD", 2)
    assert math.isfinite(reading["median"]) and 0 < reading["q1"] <= reading["median"] <= reading["q3"]


@pytest.mark.parametrize("argv", [["--base", "HEAD", "--blocks", "1"], ["--base", "no-such-revision"]])
def test_refuses(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(argv)
    assert exc.value.code == 2 and "error" in capsys.readouterr().err
