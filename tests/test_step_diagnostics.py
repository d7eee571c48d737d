"""Definitions of the per-step diagnostics, recomputed from the public stages.

div_scale and div_residual are the divergence norms before and after the
projection (for the decomposed scheme, the largest over the strips of
||div(eta_a u_a)||), and bound_margin is the slack in the scheme's energy
estimate.  Each is recomputed here by hand and must match the StepReport
exactly; the stages are deterministic, so the same arithmetic gives the same
bits.  The second part counts the divergences one step takes.
"""

import math

import pytest

from stokesdd import (
    ManufacturedCase,
    SchemeConfig,
    VelocityField,
    apply_divergence,
    check_stability,
    dd_backward_sweep,
    dd_forward_sweep,
    dd_pressure_substeps,
    decompose,
    forcing_of,
    make_grid,
    make_rng,
    norm_decomposed,
    norm_pressure,
    norm_velocity,
    pressure_projection,
    random_velocity,
    run,
    schemes,
    spectral_lower_bound,
    step_decomposed,
    step_monolithic,
    viscous_step_monolithic,
)

GRID = make_grid(1.3, 1.0, 12, 10)
TAU = 0.05
STEPS = 3


def _config(scheme: str, m: int, forced: bool) -> SchemeConfig:
    forcing = forcing_of(ManufacturedCase(amplitude=0.7), GRID) if forced else None
    return SchemeConfig(v=random_velocity(GRID, make_rng(11)), tau=TAU, t_final=STEPS * TAU, nu=0.8,
                        scheme=scheme, m=m, overlap=1, forcing=forcing)


def _strip_divergence(cfg: SchemeConfig, U) -> float:
    part = cfg.partition
    return max(norm_pressure(apply_divergence(VelocityField.wrap(GRID, eta * x))) for eta, x in zip(part.eta, U.data))


def _monolithic_by_hand(cfg: SchemeConfig) -> list[tuple[float, float, float, float]]:
    """(div_scale, div_residual, bound_margin, bound) of every step."""
    out = []
    tau = cfg.tau
    u = cfg.v.copy()
    for n in range(cfg.n_steps):
        f = cfg.forcing(n * tau + 0.5 * tau) if cfg.forcing is not None else None
        norm_f = norm_velocity(f) if f is not None else 0.0
        u_star = viscous_step_monolithic(u, f, tau, cfg.viscous)
        u_new, _ = pressure_projection(u_star, tau, cfg.solver)
        # ||u_end||^2 <= ||u_start||^2 + tau / (nu delta_h) ||f||^2
        bound = norm_velocity(u) ** 2 + tau / (cfg.nu * spectral_lower_bound(GRID)) * norm_f**2
        margin = bound - norm_velocity(u_new) ** 2
        out.append((norm_pressure(apply_divergence(u_star)), norm_pressure(apply_divergence(u_new)), margin, bound))
        u = u_new
    return out


def _decomposed_by_hand(cfg: SchemeConfig) -> list[tuple[float, float, float, float]]:
    out = []
    tau = cfg.tau
    part = cfg.partition
    U = decompose(part, cfg.v)
    for n in range(cfg.n_steps):
        F = decompose(part, cfg.forcing(n * tau + 0.5 * tau)) if cfg.forcing is not None else None
        norm_f = norm_decomposed(F) if F is not None else 0.0
        U_half = dd_backward_sweep(dd_forward_sweep(U, F, tau, cfg.viscous, part), tau, cfg.viscous, part)
        U_new, _ = dd_pressure_substeps(U_half, tau, part)
        # ||U_end||^2 <= exp(tau) ||U_start||^2 + tau ||F||^2
        bound = math.exp(tau) * norm_decomposed(U) ** 2 + tau * norm_f**2
        margin = bound - norm_decomposed(U_new) ** 2
        out.append((_strip_divergence(cfg, U_half), _strip_divergence(cfg, U_new), margin, bound))
        U = U_new
    return out


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("scheme, m", [("monolithic", 1), ("decomposed", 1), ("decomposed", 3)])
def test_step_reports_match_their_definitions(scheme, m, forced):
    cfg = _config(scheme, m, forced)
    result = run(cfg)
    assert result.completed and len(result.reports) == STEPS
    want = _monolithic_by_hand(cfg) if scheme == "monolithic" else _decomposed_by_hand(cfg)
    stab = check_stability(result.reports, cfg.tau, scheme, cfg.nu * spectral_lower_bound(GRID))
    for rep, (div_scale, div_res, margin, bound), normalized in zip(result.reports, want, stab.margins):
        assert rep.div_scale == div_scale
        assert rep.div_residual == div_res
        assert rep.bound_margin == margin
        assert normalized == rep.bound_margin / bound


@pytest.mark.parametrize("scheme, m", [("monolithic", 1), ("decomposed", 1), ("decomposed", 2), ("decomposed", 3)])
def test_one_step_takes_two_divergences_per_projection(monkeypatch, scheme, m):
    calls = []
    divergence = schemes._divergence_raw

    def counting(*args):
        calls.append(1)
        return divergence(*args)

    monkeypatch.setattr(schemes, "_divergence_raw", counting)
    cfg = _config(scheme, m, forced=True)
    if scheme == "monolithic":
        step_monolithic(cfg.v.copy(), 0.0, cfg)
    else:
        step_decomposed(decompose(cfg.partition, cfg.v), 0.0, cfg)
    assert len(calls) == 2 * m
