"""Runs that could never finish are rejected as configuration errors, before
anything is allocated or written."""

import math

import pytest

from stokesdd import SchemeConfig, VelocityField, cli, make_grid, schemes
from stokesdd.cli import MAX_NODES, ConfigError, build_scheme_config, main
from stokesdd.schemes import MAX_STEPS


class Allocated(AssertionError):
    pass


@pytest.fixture
def no_fields(monkeypatch):
    """Every way build_scheme_config makes the initial velocity raises."""

    def refuse(*args, **kwargs):
        raise Allocated("a velocity field was allocated")

    monkeypatch.setattr(cli, "exact_velocity", refuse)
    monkeypatch.setattr(cli, "random_velocity", refuse)
    monkeypatch.setattr(VelocityField, "zeros", classmethod(refuse))


def _conf(**kw):
    conf = {key: default for key, (_, default) in cli._KEYS.items()}
    conf.update(kw)
    return conf


@pytest.mark.parametrize("flags", [["--tau", "1e-9", "--t_final", "1"], ["--n1", "1000000", "--n2", "1000000"]])
def test_run_that_cannot_finish_exits_2_and_writes_nothing(flags, tmp_path, monkeypatch, capsys):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran for a rejected configuration")

    monkeypatch.setattr(schemes, "step_monolithic", no_step)
    out = tmp_path / "out"
    assert main(["run", *flags, "--out_dir", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("initial", ["zero", "manufactured", "random"])
def test_huge_grid_is_rejected_before_any_field(initial, no_fields, tmp_path):
    with pytest.raises(ConfigError, match="nodes"):
        build_scheme_config(_conf(n1=1_000_000, n2=1_000_000, initial=initial))
    assert main(["run", "--n1", "1000000", "--n2", "1000000", "--initial", initial, "--out_dir", str(tmp_path)]) == 2


def test_node_limit_is_exact(no_fields):
    side = math.isqrt(MAX_NODES)
    assert side * side == MAX_NODES
    # exactly at the limit the guard passes and the first field is made
    with pytest.raises(Allocated):
        build_scheme_config(_conf(n1=side - 1, n2=side - 1))
    with pytest.raises(ConfigError, match="nodes"):
        build_scheme_config(_conf(n1=side, n2=side - 1))


def test_step_limit_is_exact():
    v = VelocityField.zeros(make_grid(1.0, 1.0, 2, 2))
    assert SchemeConfig(v=v, tau=1.0, t_final=float(MAX_STEPS)).n_steps == MAX_STEPS
    with pytest.raises(ValueError, match="steps"):
        SchemeConfig(v=v, tau=1.0, t_final=float(MAX_STEPS + 1))
