"""tools/output_digests.py, the byte check between two checkouts, runs and is stable.

Its run list is swapped for three small runs (one that passes, one refused
before it starts, one that fails in a step), so one call takes well under a
second.
"""

import importlib.util
import re
import sys
from pathlib import Path

from stokesdd import cli

ROOT = Path(__file__).resolve().parents[1]
RUNS = {
    "dd_8x8": ["run", "--scheme", "decomposed", "--n1", "8", "--n2", "8", "--m", "2", "--overlap", "1"],
    "refused_n1": ["run", "--n1", "1"],
    "failed_decay": ["run", "--n1", "8", "--n2", "8", "--tau", "0.5", "--t_final", "5", "--decay=-300"],
}


def _tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "tools" / "output_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "RUNS", RUNS)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts --src first
    return tool


def _digests(tool, capsys):
    tool.main(["--src", str(ROOT / "src")])
    header, *lines = capsys.readouterr().out.splitlines()
    return header, lines


def test_the_tool_prints_a_header_and_one_stable_digest_per_run(monkeypatch, capsys):
    tool = _tool(monkeypatch)
    header, lines = _digests(tool, capsys)
    assert header.startswith("numerics {") and '"blas_core"' in header
    assert [line.split()[:2] for line in lines] == [["dd_8x8", "0"], ["refused_n1", "2"], ["failed_decay", "1"]]
    assert all(re.fullmatch(r"\S+ [012] [0-9a-f]{64}", line) for line in lines)
    assert _digests(tool, capsys) == (header, lines)


def test_a_manifest_that_differs_only_in_numerics_gives_the_same_run_lines(monkeypatch, capsys):
    tool = _tool(monkeypatch)
    header, lines = _digests(tool, capsys)
    monkeypatch.setattr(cli, "_numerics", lambda: {"blas_core": "ElsewhereCore"})
    other_header, other_lines = _digests(tool, capsys)
    assert other_header == 'numerics {"blas_core": "ElsewhereCore"}' != header
    assert other_lines == lines
