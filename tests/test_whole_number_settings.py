"""Whole-number settings refuse nan, +-inf and fractions with their own errors.

The cell counts of make_grid raise InvalidGridError; the strip count and
overlap of build_strips and SchemeConfig, one rule in
partition.strip_counts, raise InvalidPartitionError; SolveConfig refuses a
max_iter that is not None or an integer of at least 1.  All three are
ValueErrors.  A whole number written as a float (2.0) keeps working where it
did.
"""

import math

import numpy as np
import pytest

from stokesdd import (
    InvalidGridError,
    InvalidPartitionError,
    SchemeConfig,
    SolveConfig,
    VelocityField,
    build_strips,
    cg_solve,
    make_grid,
)

BAD = [math.nan, math.inf, -math.inf, 1.5]
GRID = make_grid(1.0, 1.0, 8, 8)
STRIP_MESSAGES = {"m": "strip count must be a positive integer", "overlap": "overlap must be a non-negative integer"}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("axis", [0, 1])
def test_make_grid_refuses_a_cell_count_that_is_not_a_whole_number(bad, axis):
    counts = [4, 4]
    counts[axis] = bad
    with pytest.raises(InvalidGridError, match="need at least 2 cells per direction"):
        make_grid(1.0, 1.0, *counts)


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", ["m", "overlap"])
def test_build_strips_refuses_a_count_that_is_not_a_whole_number(bad, name):
    counts = {"m": 2, "overlap": 1, name: bad}
    with pytest.raises(InvalidPartitionError, match=STRIP_MESSAGES[name]):
        build_strips(GRID, counts["m"], counts["overlap"])


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", ["m", "overlap"])
@pytest.mark.parametrize("scheme", ["monolithic", "decomposed"])
def test_scheme_config_refuses_a_count_that_is_not_a_whole_number(bad, name, scheme):
    with pytest.raises(InvalidPartitionError, match=STRIP_MESSAGES[name]):
        SchemeConfig(v=VelocityField.zeros(GRID), tau=0.1, t_final=0.2, scheme=scheme, **{"m": 2, name: bad})


@pytest.mark.parametrize("bad", [*BAD, 2.0, 0, -1])
def test_solve_config_refuses_a_max_iter_that_is_not_an_integer_of_at_least_one(bad):
    with pytest.raises(ValueError, match="max_iter must be None or an integer of at least 1"):
        SolveConfig(max_iter=bad)


@pytest.mark.parametrize("count", [2, 2.0])
def test_a_whole_number_keeps_its_outcome(count):
    grid = make_grid(1.0, 1.0, count, 4)
    assert (grid.n1, type(grid.n1)) == (2, int)
    part = build_strips(GRID, count, count)
    assert part.m == 2 and part.extents == build_strips(GRID, 2, 2).extents
    cfg = SchemeConfig(v=VelocityField.zeros(GRID), tau=0.1, t_final=0.2, scheme="decomposed", m=count, overlap=count)
    assert cfg.m == count and cfg.partition.extents == part.extents


@pytest.mark.parametrize("max_iter", [None, 2, np.int64(2)])
def test_solve_config_keeps_none_and_integers(max_iter):
    _, report = cg_solve(lambda d: d, np.ones(3), SolveConfig(max_iter=max_iter))
    assert report.converged
