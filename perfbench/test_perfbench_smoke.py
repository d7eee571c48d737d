"""Smoke test of the benchmark: every workload cut to two steps per run.

Checks that each run prints every metric named in BENCHMARK.json with its
unit, that a perturbed velocity trips the correctness gate, and that a
failing run makes the command fail.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import harness  # noqa: E402
from stokesdd import schemes  # noqa: E402
from stokesdd.grid import VelocityField  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_confs(name: str, seed: int) -> list[dict]:
    # The grids stay as they are: the err_rel ceilings are set for them.
    confs = harness.workload_confs(name, seed)
    for conf in confs:
        conf["t_final"] = 2 * conf["tau"]
    return confs


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, workload_confs=tiny_confs, out_root=tmp_path) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float)) and np.isfinite(printed["value"])
        assert any(line.split()[1:2] == [metric["name"]] and metric["unit"] in line.split()
                   for line in out.splitlines())


def test_perturbed_velocity_trips_the_gate(tmp_path):
    conf = tiny_confs("mono_square", 3)[0]
    result = schemes.run(harness.setup(conf))
    stab = harness.stability(result)
    reference = harness.digests(tmp_path / "a", harness.write_outputs(tmp_path / "a", conf, result, stab)[0])
    reasons, err, _ = harness.gate(conf, result, stab, [reference], reference)
    assert reasons == [] and err < harness.ERR_REL_MAX["monolithic"]

    u = result.velocity
    result.velocity = VelocityField(u.grid, 1.1 * u.u1, 1.1 * u.u2)
    hashes = harness.digests(tmp_path / "b", harness.write_outputs(tmp_path / "b", conf, result, stab)[0])
    reasons, _, _ = harness.gate(conf, result, stab, [reference, hashes], reference)
    assert any("err_rel" in why for why in reasons)
    assert any("outputs differ" in why for why in reasons)


def test_a_breach_fails_the_command(tmp_path, capsys):
    def starved_confs(name: str, seed: int) -> list[dict]:
        confs = tiny_confs(name, seed)
        for conf in confs:
            conf["max_iter"] = 5
        return confs

    argv = ["--workload", "mono_square", "--seed", "3", "--seconds", "0.1", "--trace", "0"]
    assert run.main(argv, workload_confs=starved_confs, out_root=tmp_path) == 1
    out = capsys.readouterr().out
    result = last_json(out)
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "FAIL run 0: incomplete" in out
