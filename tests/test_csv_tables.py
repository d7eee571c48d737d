"""The tables of `stokesdd run`, `converge` and `stability`, written through
`main`, are the bytes the csv module writes for the same `_fmt` rows."""

import csv

import pytest

from stokesdd import cli
from stokesdd.cli import _fmt, main

STEPS_HEADER = ["step", "t", "norm_state", "norm_quarter", "norm_half", "norm_end", "div_residual", "cg_iters_total", "bound_margin"]


def _reference(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def _spy(monkeypatch, name):
    """Record every value cli.<name> returns, in call order."""
    seen, real = [], getattr(cli, name)

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, name, spy)
    return seen


def _assert_plain(got: bytes, lines: int):
    assert got.count(b"\r\n") == lines and got.endswith(b"\r\n")
    assert b'"' not in got and b"\n" not in got.replace(b"\r\n", b"")


@pytest.mark.parametrize(
    "flags",
    [
        ["--n1", "12", "--n2", "9", "--tau", "0.05", "--t_final", "0.2"],
        ["--n1", "16", "--n2", "16", "--scheme", "decomposed", "--m", "3", "--initial", "random", "--forcing", "none",
         "--tau", "0.05", "--t_final", "0.2"],
    ],
    ids=["monolithic", "decomposed"],
)
def test_steps_table_matches_the_csv_module(flags, tmp_path, monkeypatch):
    results = _spy(monkeypatch, "run")
    assert main(["run", *flags, "--out_dir", str(tmp_path / "out")]) == 0
    (result,) = results
    got = (tmp_path / "out" / "steps.csv").read_bytes()
    rows = ([rep.step, *(_fmt(getattr(rep, key)) for key in STEPS_HEADER[1:-2]), rep.cg_iters_total, _fmt(rep.bound_margin)]
            for rep in result.reports)
    assert got == _reference(tmp_path / "want.csv", STEPS_HEADER, rows)
    _assert_plain(got, 1 + 4)


def test_converge_table_matches_the_csv_module(tmp_path, monkeypatch):
    series = _spy(monkeypatch, "_refinement")
    assert main(["converge", "--n1", "8", "--n2", "8", "--taus", "0.2,0.1", "--grids", "6,8", "--t_final", "0.4",
                 "--out_dir", str(tmp_path / "out")]) == 0
    rows = [row for rows in series for row in rows]
    assert [row[0] for row in rows] == ["tau"] * 4 + ["gap"] * 2 + ["grid"] * 2
    got = (tmp_path / "out" / "converge.csv").read_bytes()
    want = _reference(tmp_path / "want.csv", ["study", "scheme", "n", "tau", "error", "ratio", "order"],
                      ([*row[:3], *map(_fmt, row[3:])] for row in rows))
    assert got == want
    assert b",nan,nan\r\n" in got  # the first row of each series has no ratio
    _assert_plain(got, 1 + 8)


@pytest.mark.parametrize("scheme", ["monolithic", "decomposed"])
def test_stability_table_matches_the_csv_module(scheme, tmp_path, monkeypatch):
    taus = [0.1, 0.01]
    runs = _spy(monkeypatch, "run")
    checks = _spy(monkeypatch, "_stability_of")
    assert main(["stability", "--scheme", scheme, "--m", "3", "--n1", "12", "--n2", "10", "--steps", "3",
                 "--taus", ",".join(map(str, taus)), "--out_dir", str(tmp_path / "out")]) == 0
    rows = (
        [_fmt(tau), result.config.m, rep.step, _fmt(rep.norm_state), _fmt(rep.norm_end), _fmt(margin)]
        for tau, result, stab in zip(taus, runs, checks)
        for rep, margin in zip(result.reports, stab.margins)
    )
    got = (tmp_path / "out" / "stability.csv").read_bytes()
    assert got == _reference(tmp_path / "want.csv", ["tau", "m", "step", "norm_state", "norm_end", "margin"], rows)
    _assert_plain(got, 1 + 2 * 3)


def test_stability_rows_are_written_as_each_tau_finishes(tmp_path, monkeypatch):
    """A ladder that fails on its second tau keeps the first tau's rows."""
    real = cli.run

    def second_fails(cfg):
        if cfg.tau < 0.1:
            raise RuntimeError("second tau")
        return real(cfg)

    monkeypatch.setattr(cli, "run", second_fails)
    with pytest.raises(RuntimeError, match="second tau"):
        main(["stability", "--n1", "8", "--n2", "8", "--steps", "2", "--taus", "0.1,0.01", "--out_dir", str(tmp_path)])
    lines = (tmp_path / "stability.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"tau,m,step,norm_state,norm_end,margin"
    assert [line.split(b",")[:3] for line in lines[1:-1]] == [[b"0.1", b"2", b"1"], [b"0.1", b"2", b"2"]]
