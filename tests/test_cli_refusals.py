"""Refusals of the command line's own parsing: a config file line without
'=', a list that does not parse, an empty list.  Each exits 2 before any
step runs, writes nothing, and names the file and line or the list."""

import pytest

from stokesdd import schemes
from stokesdd.cli import main


@pytest.fixture
def out(tmp_path, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran for a rejected configuration")

    monkeypatch.setattr(schemes, "step_monolithic", no_step)
    monkeypatch.setattr(schemes, "step_decomposed", no_step)
    return tmp_path / "out"


def _refused(argv, out, capsys) -> str:
    assert main([*argv, "--n1", "8", "--n2", "8", "--steps", "2", "--out_dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert list(out.glob("*")) == []
    return err


@pytest.mark.parametrize("command", ["run", "converge", "stability"])
def test_a_config_line_without_equals_names_its_file_and_line(command, tmp_path, out, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("# a comment\nn1 = 8\nn2 8\n")
    err = _refused([command, "--config", str(path)], out, capsys)
    assert f"{path}:3:" in err and "'n2 8'" in err


@pytest.mark.parametrize(
    "command, flags, what",
    [
        ("converge", ["--taus", "x"], "taus"),
        ("converge", ["--taus", "0.1,,x"], "taus"),
        ("converge", ["--grids", "8,1.5"], "grids"),
        ("stability", ["--taus", "0.1,x"], "taus"),
    ],
    ids=["converge taus x", "converge taus 0.1,,x", "converge grids 8,1.5", "stability taus 0.1,x"],
)
def test_an_unparsable_list_is_named(command, flags, what, out, capsys):
    err = _refused([command, *flags], out, capsys)
    assert f"cannot parse {what} list {flags[1]!r}" in err


@pytest.mark.parametrize(
    "command, flags, what",
    [
        ("converge", ["--taus", ","], "taus"),
        ("converge", ["--taus", ""], "taus"),
        ("converge", ["--grids", " , "], "grids"),
        ("stability", ["--taus", ","], "taus"),
    ],
    ids=["converge taus ,", "converge taus empty", "converge grids ' , '", "stability taus ,"],
)
def test_an_empty_list_is_named(command, flags, what, out, capsys):
    err = _refused([command, *flags], out, capsys)
    assert f"{what} list is empty" in err
