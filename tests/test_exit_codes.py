"""Exit code 2 means the configuration was rejected before any run started."""

import pytest

from stokesdd import schemes
from stokesdd.cli import main

REJECTED = [
    ["--nu", "-1"],
    ["--scheme", "decomposed", "--m", "0"],
    ["--scheme", "decomposed", "--n1", "8", "--overlap", "9"],
    ["--n1", "1"],
    ["--seed", "-1", "--initial", "random"],
    ["--amplitude", "nan"],
    ["--decay", "inf"],
    ["--rel_tol", "nan"],
    ["--abs_tol", "-1"],
    ["--max_iter", "-1"],
]


@pytest.mark.parametrize("flags", REJECTED, ids=lambda flags: " ".join(flags))
@pytest.mark.parametrize("command", ["run", "stability", "converge"])
def test_rejected_configuration_exits_2_before_the_run(command, flags, tmp_path, monkeypatch, capsys):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran for a rejected configuration")

    monkeypatch.setattr(schemes, "step_monolithic", no_step)
    monkeypatch.setattr(schemes, "step_decomposed", no_step)
    out = tmp_path / "out"
    assert main([command, *flags, "--steps", "2", "--out_dir", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_error_inside_a_step_is_not_a_configuration_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken step")

    monkeypatch.setattr(schemes, "step_monolithic", broken)
    with pytest.raises(ValueError, match="broken step"):
        main(["run", "--n1", "8", "--n2", "8", "--out_dir", str(tmp_path / "out")])


@pytest.mark.parametrize(
    "flags, key",
    [(["--taus", ","], "taus"), (["--taus", ""], "taus"), (["--steps", "0"], "steps"), (["--steps", "-1"], "steps")],
    ids=["taus ,", "taus empty", "steps 0", "steps -1"],
)
def test_stability_rejects_an_empty_ladder_and_a_nonpositive_step_count(flags, key, tmp_path, monkeypatch, capsys):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran for a rejected configuration")

    monkeypatch.setattr(schemes, "step_monolithic", no_step)
    monkeypatch.setattr(schemes, "step_decomposed", no_step)
    out = tmp_path / "out"
    assert main(["stability", "--n1", "8", "--n2", "8", *flags, "--out_dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err and "final time" not in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("below", [False, True], ids=["file", "below a file"])
@pytest.mark.parametrize("command", ["run", "stability", "converge"])
def test_unusable_out_dir_exits_2(command, below, tmp_path, monkeypatch, capsys):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran without an output directory")

    monkeypatch.setattr(schemes, "step_monolithic", no_step)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / "sub" if below else blocker
    assert main([command, "--n1", "8", "--n2", "8", "--steps", "2", "--out_dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "out_dir" in err
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["--l1", "1e160", "--forcing", "none", "--initial", "random"],  # h1^2 overflows
        ["--l2", "1e-200", "--forcing", "none"],  # h2^2 underflows to zero
        ["--l1", "1e-110"],  # (pi / l1)^3 of the manufactured forcing overflows
    ],
    ids=["l1 1e160", "l2 1e-200", "l1 1e-110 forced"],
)
@pytest.mark.parametrize("command", ["run", "converge"])
def test_out_of_range_side_lengths_exit_2_before_the_run(command, flags, tmp_path, monkeypatch, capsys):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran for a rejected configuration")

    monkeypatch.setattr(schemes, "step_monolithic", no_step)
    monkeypatch.setattr(schemes, "step_decomposed", no_step)
    out = tmp_path / "out"
    assert main([command, *flags, "--n1", "4", "--n2", "4", "--grids", "4", "--out_dir", str(out)]) == 2
    assert "side lengths" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_tiny_side_without_forcing_still_runs(tmp_path):
    assert main(["run", "--l1", "1e-110", "--forcing", "none", "--n1", "4", "--n2", "4", "--out_dir", str(tmp_path)]) == 0
