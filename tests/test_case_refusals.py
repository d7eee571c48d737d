"""The manufactured case refuses what its formulas cannot take: a non-finite
amplitude or decay (``ManufacturedCase``) and side lengths whose (pi/l)^3
is not a finite float (``forcing_of``).  The command line reports either as
a configuration error, before any field is allocated."""

import math

import pytest

from stokesdd import ManufacturedCase, VelocityField, cli, make_grid
from stokesdd.cli import ConfigError, build_scheme_config
from stokesdd.verify import forcing_of


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


@pytest.mark.parametrize("initial", ["zero", "manufactured", "random"])
@pytest.mark.parametrize("setting,message", [
    ({"l1": 1e-110}, "side lengths 1e-110, 1.0 on 16x16 cells are out of range with the manufactured forcing"),
    ({"amplitude": math.nan}, "amplitude must be finite, got nan"),
    ({"decay": math.inf}, "decay must be finite, got inf"),
])
def test_case_refusal_comes_before_any_field(setting, message, initial, no_fields):
    with pytest.raises(ConfigError) as info:
        build_scheme_config(_conf(initial=initial, **setting))
    assert str(info.value) == message


def test_library_refusals():
    with pytest.raises(ValueError, match=r"^side lengths 1e-120, 1.0 on 8x8 cells are out of range"):
        forcing_of(ManufacturedCase(), make_grid(1e-120, 1.0, 8, 8))
    with pytest.raises(ValueError, match="^amplitude must be finite, got nan$"):
        ManufacturedCase(amplitude=math.nan)
    with pytest.raises(ValueError, match="^decay must be finite, got -inf$"):
        ManufacturedCase(decay=-math.inf)
