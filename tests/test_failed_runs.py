"""What a run that fails inside a step keeps and writes.

With ``--decay=-300`` on 16x16 cells and tau 0.5 the manufactured forcing
grows by e^150 a step, and both schemes stop in step 3, whose norms
overflow.  The run returns, and writes, the fields of step 2 exactly as a
run of those two steps alone does.  The monolithic pressure solve also
stops cleanly when the norm of its right-hand side overflows, with no numpy
warning.
"""

import json
import warnings

import numpy as np
import pytest

from stokesdd import cli

GROWING = ["--n1", "16", "--n2", "16", "--tau", "0.5", "--decay=-300"]
SCHEMES = {
    "monolithic": [],
    "decomposed": ["--scheme", "decomposed", "--m", "3", "--overlap", "2"],
}


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.fixture
def results(monkeypatch) -> list:
    """The RunResult of every cli.run call, in order."""
    seen: list = []
    run = cli.run
    monkeypatch.setattr(cli, "run", lambda cfg: seen.append(run(cfg)) or seen[-1])
    return seen


def _fields(result):
    fields = [result.velocity.data]
    if result.state is not None:
        fields.append(result.state.data)
    if result.pressure is not None:
        fields.append(result.pressure.p)
    fields += [p.p for p in result.pressures or []]
    return fields


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_failed_run_keeps_its_last_completed_step_bit_for_bit(scheme, results, tmp_path):
    flags = ["run", *GROWING, *SCHEMES[scheme]]
    code = cli.main([*flags, "--t_final", "5", "--out_dir", str(tmp_path / "failed")])
    cli.main([*flags, "--t_final", "1.0", "--out_dir", str(tmp_path / "done")])
    failed, done = results
    assert (code, failed.completed, len(failed.reports)) == (1, False, 2)
    assert (done.completed, len(done.reports)) == (True, 2)
    got, want = _fields(failed), _fields(done)
    assert len(got) == len(want) == (2 if scheme == "monolithic" else 5)
    assert all(_same_bits(g, w) for g, w in zip(got, want))
    assert (tmp_path / "failed" / "velocity.csv").read_bytes() == (tmp_path / "done" / "velocity.csv").read_bytes()


@pytest.mark.parametrize("flags, completed", [
    (GROWING + ["--t_final", "5"], 2),
    (["--n1", "8", "--n2", "8", "--tau", "1e-155", "--t_final", "1e-155"], 0),
], ids=["growing-forcing", "tiny-tau"])
def test_a_monolithic_rhs_norm_that_overflows_stops_the_run_without_a_warning(flags, completed, tmp_path):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", *flags, "--out_dir", str(out)])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["steps_completed"], manifest["monitors"]["message"]) == (completed, "right-hand side norm is inf")
    assert len((out / "steps.csv").read_text().splitlines()) == 1 + completed
    assert (out / "velocity.csv").exists()
