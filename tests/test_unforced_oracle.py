"""Unforced steps against the dense oracle.

``oracle_step`` skips the forcing when the configuration has none, in both
its monolithic and its decomposed branch; these cases take that path on a
domain whose spacings differ.  The gap is bounded relative to the norm of
the state stepped from, not of the result: a step can take the state close
to zero (on 4x4 cells with m = 3 and overlap 0 the projections leave a norm
of about 3e-17), and a gap relative to the result would then read about 1
though both sides agree to round-off.
"""

import pytest

from stokesdd import (
    SchemeConfig,
    SolveConfig,
    decompose,
    make_grid,
    norm_decomposed,
    norm_velocity,
    step_decomposed,
    step_monolithic,
)
from stokesdd.grid import DecomposedVelocity
from stokesdd.verify import error_norms, make_rng, oracle_step, random_velocity

TIGHT = SolveConfig(rel_tol=1e-12, abs_tol=1e-15)
CELLS = [(4, 4), (7, 5), (9, 6)]


def _config(n1: int, n2: int, **kw) -> SchemeConfig:
    g = make_grid(1.3, 0.7, n1, n2)
    return SchemeConfig(v=random_velocity(g, make_rng(n1 * 10 + n2)), tau=0.2, t_final=0.2, solver=TIGHT, **kw)


@pytest.mark.parametrize("n1,n2", CELLS)
def test_unforced_monolithic_step_matches_oracle(n1, n2):
    cfg = _config(n1, n2)
    assert cfg.forcing is None
    got, _, _ = step_monolithic(cfg.v, 0.0, cfg)
    assert error_norms(got, oracle_step(cfg.v, cfg)) <= 1e-10 * norm_velocity(cfg.v)


@pytest.mark.parametrize("n1,n2", CELLS)
@pytest.mark.parametrize("m,overlap", [(1, 0), (2, 1), (3, 0)])
def test_unforced_decomposed_step_matches_oracle(n1, n2, m, overlap):
    cfg = _config(n1, n2, scheme="decomposed", m=m, overlap=overlap)
    assert cfg.forcing is None
    U = decompose(cfg.partition, cfg.v)
    got, _, _ = step_decomposed(U, 0.0, cfg)
    want = oracle_step(U, cfg)
    gap = DecomposedVelocity.wrap(cfg.grid, got.data - want.data)
    assert norm_decomposed(gap) <= 1e-10 * norm_decomposed(U)
