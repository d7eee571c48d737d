"""Properties over random domains, partitions, time steps and viscosities."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stokesdd import (
    SchemeConfig,
    apply_divergence,
    apply_gradient,
    build_strips,
    decompose,
    dot_pressure,
    dot_velocity,
    make_grid,
    norm_pressure,
    norm_velocity,
    recompose,
    spectral_lower_bound,
    step_decomposed,
    step_monolithic,
)
from stokesdd.verify import make_rng, random_pressure, random_velocity


@st.composite
def cases(draw):
    """(grid, m, overlap, tau, nu, seed) with floor(n1 / m) > overlap."""
    aspect = draw(st.floats(0.25, 4.0))
    m = draw(st.integers(1, 4))
    overlap = draw(st.integers(0, 3))
    n1 = draw(st.integers(max(2, m * (overlap + 1)), 24))
    n2 = draw(st.integers(2, 16))
    tau = 10.0 ** draw(st.floats(-4.0, 2.0))
    nu = 10.0 ** draw(st.floats(-2.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_grid(aspect, 1.0, n1, n2), m, overlap, tau, nu, seed


@settings(deadline=None)
@given(cases())
def test_gradient_and_divergence_are_adjoint(case):
    # (grad p, u) + (p, div u) = 0
    grid, _, _, _, _, seed = case
    rng = make_rng(seed)
    p, u = random_pressure(grid, rng), random_velocity(grid, rng)
    grad_p, div_u = apply_gradient(p), apply_divergence(u)
    s = dot_velocity(grad_p, u) + dot_pressure(p, div_u)
    assert abs(s) <= 1e-13 * (norm_velocity(grad_p) * norm_velocity(u) + norm_pressure(p) * norm_pressure(div_u))


@settings(deadline=None)
@given(cases())
def test_partition_of_unity_and_round_trip(case):
    grid, m, overlap, _, _, seed = case
    part = build_strips(grid, m, overlap)
    assert part.m == m
    total = sum(chi.eta**2 for chi in part.masks)
    assert np.max(np.abs(total - 1.0)) <= 1e-14
    assert all(np.all((chi.eta >= 0.0) & (chi.eta <= 1.0)) for chi in part.masks)
    u = random_velocity(grid, make_rng(seed))
    back = recompose(part, decompose(part, u))
    assert np.max(np.abs(back.data - u.data)) <= 1e-14 * np.max(np.abs(u.data))


def _config(case, scheme):
    grid, m, overlap, tau, nu, seed = case
    rng = make_rng(seed)
    v = random_velocity(grid, rng)
    f = random_velocity(grid, rng)
    return SchemeConfig(v=v, tau=tau, t_final=tau, nu=nu, scheme=scheme, m=m, overlap=overlap, forcing=lambda t: f)


@settings(deadline=None, max_examples=40)
@given(cases())
def test_monolithic_step_keeps_its_energy_margin(case):
    cfg = _config(case, "monolithic")
    _, _, rep = step_monolithic(cfg.v, 0.0, cfg, step=1)
    bound = rep.norm_state**2 + cfg.tau / (cfg.nu * spectral_lower_bound(cfg.grid)) * rep.norm_forcing**2
    assert math.isclose(rep.bound_margin, bound - rep.norm_end**2, rel_tol=1e-12, abs_tol=1e-12 * bound)
    assert rep.bound_margin >= -1e-10 * bound


@settings(deadline=None, max_examples=40)
@given(cases())
def test_decomposed_step_keeps_its_energy_margin(case):
    cfg = _config(case, "decomposed")
    _, _, rep = step_decomposed(decompose(cfg.partition, cfg.v), 0.0, cfg, step=1)
    bound = math.exp(cfg.tau) * rep.norm_state**2 + cfg.tau * rep.norm_forcing**2
    assert math.isclose(rep.bound_margin, bound - rep.norm_end**2, rel_tol=1e-12, abs_tol=1e-12 * bound)
    assert rep.bound_margin >= -1e-10 * bound
