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


@pytest.mark.parametrize("flags", [["--tau", "1e-9", "--t_final", "1"], ["--n1", "1000000", "--n2", "1000000"],
                                   ["--tau", "1e-300", "--t_final", "1e300"]])
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


@pytest.mark.parametrize("m", [1, 1000])
def test_decomposed_node_limit_is_exact(m, no_fields):
    """A decomposed run may hold the bytes of MAX_NODES monolithic nodes and
    no more; with n2 = 2 each line of constant i1 has 3 nodes."""
    base, per_strip = cli.STRIP_NODE_BYTES
    budget = MAX_NODES * cli.NODE_BYTES
    lines = budget // (base + per_strip * m) // 3
    assert lines * 3 * (base + per_strip * m) <= budget < (lines + 1) * 3 * (base + per_strip * m)
    conf = _conf(scheme="decomposed", m=m, overlap=0, n2=2)
    with pytest.raises(Allocated):
        build_scheme_config(dict(conf, n1=lines - 1))
    with pytest.raises(ConfigError, match=f"nodes, more than the limit .* m = {m}"):
        build_scheme_config(dict(conf, n1=lines))


def test_many_strips_on_a_grid_the_monolithic_limit_allows_exit_2(no_fields, monkeypatch, capsys, tmp_path):
    """1999x1999 cells are 4 * 10^6 nodes: a monolithic run may start; at
    m = 1000 the strips would need about 2 * 10^11 bytes."""
    with pytest.raises(Allocated):
        build_scheme_config(_conf(n1=1999, n2=1999))
    with pytest.raises(Allocated):
        build_scheme_config(_conf(scheme="decomposed", m=1, overlap=0, n1=1777, n2=1777))

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran for a rejected configuration")

    monkeypatch.setattr(schemes, "step_decomposed", no_step)
    flags = ["--scheme", "decomposed", "--n1", "1999", "--n2", "1999", "--overlap", "0"]
    for m in ("1", "1000"):
        assert main(["run", *flags, "--m", m, "--out_dir", str(tmp_path / m)]) == 2
        assert "nodes" in capsys.readouterr().err
