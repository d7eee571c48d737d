"""The converge command runs each configuration once."""

import pytest

from stokesdd import cli


@pytest.mark.parametrize("taus,grids", [("0.2,0.1", "8"), ("0.2,0.1,0.05", "6,8")])
def test_each_configuration_runs_once(taus, grids, tmp_path, monkeypatch):
    calls = []
    inner = cli.run

    def counting(cfg):
        calls.append((cfg.scheme, cfg.tau_requested, cfg.grid.n1))
        return inner(cfg)

    monkeypatch.setattr(cli, "run", counting)
    rc = cli.main([
        "converge", "--n1", "8", "--n2", "8", "--t_final", "0.2", "--m", "2", "--overlap", "1",
        "--taus", taus, "--grids", grids, "--out_dir", str(tmp_path),
    ])
    assert rc == 0
    k, g = len(taus.split(",")), len(grids.split(","))
    assert len(calls) == 2 * k + g
    assert len(set(calls[: 2 * k])) == 2 * k
    rows = (tmp_path / "converge.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * k + g
