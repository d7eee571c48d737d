"""SchemeConfig rejects invalid physics and strip settings when it is built."""

import math

import pytest

from stokesdd import SchemeConfig, VelocityField, make_grid, spectral_lower_bound
from stokesdd.schemes import energy_estimate


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


def _v8():
    return VelocityField.zeros(make_grid(1.0, 1.0, 8, 8))


def test_overflowing_step_count_raises_value_error():
    with pytest.raises(ValueError, match="gives inf steps"):
        SchemeConfig(v=_v8(), tau=1e-300, t_final=1e300)


def test_monolithic_weight_that_overflows_raises_at_construction():
    with pytest.raises(ValueError, match="viscosity 1e-320"):
        SchemeConfig(v=_v8(), tau=0.1, t_final=1.0, nu=1e-320)


def test_decomposed_growth_that_overflows_raises_at_construction():
    with pytest.raises(ValueError, match="energy estimate"):
        SchemeConfig(v=_v8(), tau=1000.0, t_final=1000.0, scheme="decomposed", m=2, overlap=1)


def test_bad_strip_layout_raises_at_construction():
    with pytest.raises(ValueError, match="overlap of 9"):
        SchemeConfig(v=_v8(), tau=0.1, t_final=1.0, scheme="decomposed", m=2, overlap=9)


def test_decomposed_tiny_viscosity_constructs():
    cfg = SchemeConfig(v=_v8(), tau=0.1, t_final=1.0, nu=1e-320, scheme="decomposed", m=2, overlap=1)
    assert cfg.estimate == (math.exp(0.1), 0.1)


@pytest.mark.parametrize("scheme", ["monolithic", "decomposed"])
def test_estimate_is_the_energy_estimate_of_the_adjusted_step(scheme):
    v = _v8()
    cfg = SchemeConfig(v=v, tau=0.24, t_final=1.0, nu=0.5, scheme=scheme, m=2, overlap=1)
    nu_delta_h = cfg.nu * spectral_lower_bound(v.grid) if scheme == "monolithic" else None
    assert cfg.tau == 0.25
    assert cfg.estimate == energy_estimate(scheme, 0.25, nu_delta_h)


def test_energy_estimate_is_infinite_where_it_overflows():
    assert energy_estimate("monolithic", 0.1, 0.0) == (1.0, math.inf)
    assert energy_estimate("decomposed", 1000.0) == (math.inf, 1000.0)


@pytest.mark.parametrize("scheme", ["monolithic", "decomposed"])
@pytest.mark.parametrize("l1", [1e160, 1e-160], ids=["h1^2 overflows", "h1^2 underflows"])
def test_side_lengths_whose_spacing_is_out_of_range_raise_value_error(l1, scheme):
    v = VelocityField.zeros(make_grid(l1, 1.0, 4, 4))
    with pytest.raises(ValueError, match="side lengths"):
        SchemeConfig(v=v, tau=0.1, t_final=0.1, scheme=scheme, m=2, overlap=1)


def test_step_limit_message_of_a_huge_finite_ratio_is_short():
    with pytest.raises(ValueError, match="steps, more than the limit") as info:
        SchemeConfig(v=_v8(), tau=0.1, t_final=1e300)
    assert len(str(info.value)) < 200
