"""Exit code 2 means the configuration was rejected before any run started."""

import math
import struct

import pytest

from stokesdd import make_grid, schemes, spectral_lower_bound
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


# A monolithic run's energy estimate weighs the forcing by tau / (nu delta_h):
# at nu = 1e-320 on 8x8 cells the quotient overflows to inf (the margin would be
# inf * 0), and at nu = 5e-324 on a 1000 x 1000 domain nu delta_h underflows to 0.
TINY_NU = [["--nu", "1e-320"], ["--nu", "5e-324", "--l1", "1000", "--l2", "1000"]]
TINY_NU_IDS = ["nu 1e-320", "nu 5e-324 l 1000"]
UNFORCED_8 = ["--n1", "8", "--n2", "8", "--tau", "0.1", "--t_final", "0.2", "--forcing", "none", "--initial", "random"]


@pytest.mark.parametrize("flags", TINY_NU, ids=TINY_NU_IDS)
@pytest.mark.parametrize("command", ["run", "stability", "converge"])
def test_tiny_viscosity_exits_2_before_the_run(command, flags, tmp_path, monkeypatch, capsys):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran for a rejected configuration")

    monkeypatch.setattr(schemes, "step_monolithic", no_step)
    monkeypatch.setattr(schemes, "step_decomposed", no_step)
    out = tmp_path / "out"
    argv = [command, *UNFORCED_8, *flags, "--taus", "0.1", "--grids", "8", "--steps", "2", "--out_dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "viscosity" in err
    assert not any(out.iterdir())


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def test_tiny_viscosity_limit_is_exact(tmp_path):
    """The smallest nu whose weight tau / (nu delta_h) is a finite float runs
    and passes its monitors; the float below it is refused."""
    delta_h = spectral_lower_bound(make_grid(1.0, 1.0, 8, 8))

    def finite(bits: int) -> bool:
        product = _bits_float(bits) * delta_h
        return product > 0 and math.isfinite(0.1 / product)

    lo, hi = _float_bits(1e-320), _float_bits(1e-310)
    assert not finite(lo) and finite(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if finite(mid) else (mid, hi)
    assert main(["run", *UNFORCED_8, "--nu", repr(_bits_float(hi)), "--out_dir", str(tmp_path / "at")]) == 0
    assert main(["run", *UNFORCED_8, "--nu", repr(_bits_float(lo)), "--out_dir", str(tmp_path / "below")]) == 2


@pytest.mark.parametrize("flags", TINY_NU, ids=TINY_NU_IDS)
def test_decomposed_runs_with_tiny_viscosity(flags, tmp_path):
    """The decomposed estimate weighs the forcing by tau alone."""
    argv = ["run", "--scheme", "decomposed", "--m", "2", "--overlap", "1", *UNFORCED_8, *flags]
    assert main([*argv, "--out_dir", str(tmp_path)]) == 0
