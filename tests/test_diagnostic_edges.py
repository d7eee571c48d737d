"""Edges of the step diagnostics: the stability monitor's fixed slack, and a
state whose norm overflows.

check_stability lets a step's normalized margin fall to -1e-10, and an
unforced step's norm grow by a factor 1 + 1e-10, before it fails; a one-step
series on either side of each limit pins both.  A state with finite entries
above about 1e154 has an inf norm: the run stops on the step report's
finiteness check, and numpy's overflow warnings are not printed.
"""

import json
import math
import warnings

import pytest

from stokesdd import StepReport, check_stability, cli

TAU = 0.1


def one_step(norm_state, norm_end, norm_forcing):
    return [StepReport(
        step=1, t=TAU, norm_state=norm_state, norm_quarter=norm_state, norm_half=norm_state,
        norm_end=norm_end, norm_forcing=norm_forcing, div_residual=0.0, div_scale=1.0,
        cg_iters_total=0, bound_margin=0.0,
    )]


@pytest.mark.parametrize("margin, passed", [(-0.5e-10, True), (-2e-10, False)])
def test_a_forced_step_passes_down_to_a_margin_of_minus_the_slack(margin, passed):
    norm_state, norm_forcing = 1.0, 0.5
    bound = math.exp(TAU) * norm_state**2 + TAU * norm_forcing**2  # the decomposed estimate
    rep = check_stability(one_step(norm_state, math.sqrt(bound * (1.0 - margin)), norm_forcing), TAU, "decomposed")
    assert rep.monotone_ok  # not checked with forcing
    assert rep.worst_margin == pytest.approx(margin, rel=1e-4)
    assert rep.passed is passed
    assert ("below -1.0e-10" in rep.message) is not passed


@pytest.mark.parametrize("factor, monotone", [(1.0 + 0.5e-10, True), (1.0 + 2e-10, False)])
def test_an_unforced_step_may_grow_by_the_slack(factor, monotone):
    rep = check_stability(one_step(1.0, factor, 0.0), TAU, "decomposed")
    assert rep.worst_margin > 0.0  # within exp(tau): only the monotone check can fail
    assert (rep.monotone_ok, rep.passed) == (monotone, monotone)
    assert (rep.message == "norm grew without forcing at step 1") is not monotone


def test_an_overflowing_norm_stops_the_run_without_a_warning(tmp_path):
    out = tmp_path / "out"
    flags = ["--scheme", "decomposed", "--n1", "16", "--n2", "16", "--m", "3", "--overlap", "2",
             "--tau", "0.5", "--t_final", "5", "--decay=-300"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", *flags, "--out_dir", str(out)])
    assert code == 1
    monitors = json.loads((out / "manifest.json").read_text())["monitors"]
    assert (monitors["completed"], monitors["message"]) == (False, "non-finite norm inf in step report")
