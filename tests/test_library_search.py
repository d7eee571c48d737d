"""A seeded search of the library over extreme settings, beside the command
line search of ``test_cli_search.py``.

Each example builds a run from the public pieces: ``make_grid``,
``ManufacturedCase``, ``forcing_of``, a start field and ``SchemeConfig``.
A ``ValueError`` while building is a refusal and ends the example; a run
that is built, and has at most 50 steps, must return a ``RunResult`` from
``run`` without raising.  The grid is kept at 8x8 cells or fewer.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokesdd import ManufacturedCase, RunResult, SchemeConfig, SolveConfig, VelocityField, make_grid, run
from stokesdd.verify import exact_velocity, forcing_of, make_rng, random_velocity

MAX_RUN_STEPS = 50
EXTREMES = [*(10.0**k for k in range(-300, 301, 30)), math.inf, -math.inf, math.nan, 0.0, -1.0]
values = st.sampled_from([0.1, 0.5, 2.5]) | st.sampled_from(EXTREMES)
cells = st.integers(2, 8)


def _start(kind: str, case: ManufacturedCase, grid) -> VelocityField:
    if kind == "zero":
        return VelocityField.zeros(grid)
    if kind == "manufactured":
        return exact_velocity(case, grid, 0.0)
    return random_velocity(grid, make_rng(7))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    l1=values, l2=values, n1=cells, n2=cells, tau=values, nu=values, amplitude=values,
    decay=values | st.sampled_from([-300.0, -1e300]),
    scheme=st.sampled_from(["monolithic", "decomposed"]), m=st.integers(1, 3), overlap=st.integers(0, 2),
    forced=st.booleans(), start=st.sampled_from(["zero", "manufactured", "random"]),
)
@example(l1=1e-120, l2=1.0, n1=8, n2=8, tau=0.1, nu=1.0, amplitude=1.0, decay=1.0,
         scheme="monolithic", m=1, overlap=0, forced=True, start="zero")
def test_every_built_run_returns_a_result(l1, l2, n1, n2, tau, nu, amplitude, decay, scheme, m, overlap, forced, start):
    with np.errstate(all="ignore"):
        try:
            grid = make_grid(l1, l2, n1, n2)
            case = ManufacturedCase(amplitude=amplitude, decay=decay, nu=nu)
            forcing = forcing_of(case, grid) if forced else None
            cfg = SchemeConfig(_start(start, case, grid), tau=tau, t_final=0.2, nu=nu, scheme=scheme, m=m,
                               overlap=overlap, solver=SolveConfig(max_iter=200), forcing=forcing)
        except ValueError:
            return
        if cfg.n_steps > MAX_RUN_STEPS:
            return
        assert isinstance(run(cfg), RunResult)
