"""SchemeConfig rejects invalid physics and strip settings when it is built."""

import math

import pytest

from stokesdd import SchemeConfig, VelocityField, make_grid


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("nu", -1.0, "viscosity must be positive"),
        ("nu", 0.0, "viscosity must be positive"),
        ("nu", math.nan, "viscosity must be positive"),
        ("nu", math.inf, "viscosity must be positive"),
        ("m", 0, "strip count must be a positive integer"),
        ("m", 1.5, "strip count must be a positive integer"),
        ("overlap", -1, "overlap must be a non-negative integer"),
        ("overlap", 0.5, "overlap must be a non-negative integer"),
    ],
)
def test_invalid_settings_raise_at_construction(field, value, message):
    v = VelocityField.zeros(make_grid(1.0, 1.0, 8, 8))
    with pytest.raises(ValueError, match=message):
        SchemeConfig(v=v, tau=0.1, t_final=1.0, **{field: value})


def test_negative_viscosity_raises_before_any_step():
    v = VelocityField.zeros(make_grid(1.0, 1.0, 8, 8))
    with pytest.raises(ValueError, match="viscosity must be positive, got -1"):
        SchemeConfig(v=v, tau=0.1, t_final=1.0, nu=-1)
