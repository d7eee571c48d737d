"""A seeded search of ``cli.main`` over extreme settings.

Every call ends in exit 0, 1 or 2 without raising and without a warning.
Exits 0 and 1 leave manifest.json and every output file it names; exit 2
leaves the output directory empty.  Each call starts from a small run (8x4
cells, two steps, a two-entry ladder) of a drawn scheme, forcing and start,
and sets one key to a value from a menu of extremes, so most calls reach a
run; the seven explicit examples combine several extremes.  The menus keep
every run at 8x8 cells or fewer and at 50 steps or fewer: a larger count
of either is refused before the run starts.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokesdd import cli

BASE = {"n1": "8", "n2": "4", "t_final": "0.2", "taus": "0.1,0.05", "grids": "6,8", "steps": "3"}
SHAPES = {"scheme": ["monolithic", "decomposed"], "forcing": ["manufactured", "none"], "initial": ["manufactured", "zero", "random"]}
HUGE = ["1e300", "-1e300", "1e-300", "0", "nan", "inf"]
MENU = {
    "l1": [*HUGE, "1e-12", "1e-8", "1e8", "2"],
    "l2": [*HUGE, "1e-12", "1e8", "0.5"],
    "n1": ["1", "2", "3", "7", "8", "1000000000"],
    "n2": ["1", "2", "7", "8", "1000000000"],
    "tau": [*HUGE, "0.5", "0.01", "-0.1"],
    "t_final": [*HUGE, "5", "1", "-1"],
    "nu": [*HUGE, "1e-320", "1e-8", "1e8"],
    "m": ["0", "1", "2", "3", "8", "100"],
    "overlap": ["-1", "0", "1", "2", "8"],
    "rel_tol": [*HUGE, "1", "-1"],
    "abs_tol": [*HUGE, "1", "-1"],
    "max_iter": ["-1", "1", "2", "1000"],
    "amplitude": [*HUGE, "1e-8", "-1e8"],
    "decay": [*HUGE, "-1e4", "1e4", "-300"],
    "seed": ["-1", "0", "1", "18446744073709551616"],
    "taus": ["0.1,0.1", "0.1,-0.1", "1e300,0.5", "0.1,,0.5", ",", "0.5,5", "1e-300", "nan"],
    "grids": ["8,8", "4,-4", "0", "1", "2,3", "1000000000", ","],
    "steps": ["-1", "0", "1", "50"],
}

COMMANDS = [
    "run --decay=-1e300 --t_final 0.2",
    "run --scheme decomposed --decay=-1e300 --t_final 0.2",
    "converge --decay=-1e4",
    "run --l1=1e-8 --n1=2 --n2=3 --initial=zero --amplitude=1e300",
    "run --l1=1e-300 --tau=nan --forcing=none --amplitude=1e300",
    "converge --l2=1e8 --overlap=0 --rel_tol=1 --decay=1e300 --taus=0.1,0.1",
    "run --scheme decomposed --l1 1e-12 --n1 8 --n2 8 --m 2 --overlap 1 --initial random --forcing none --tau 0.1 --t_final 0.2",
]


@st.composite
def calls(draw) -> list[str]:
    command = draw(st.sampled_from(["run", "run", "converge", "stability"]))
    conf = dict(BASE, **{key: draw(st.sampled_from(values)) for key, values in SHAPES.items()})
    key = draw(st.sampled_from(sorted(MENU)))
    conf[key] = draw(st.sampled_from(MENU[key]))
    return [command, *(f"--{key}={value}" for key, value in conf.items())]


def _examples(test):
    for command in reversed(COMMANDS):
        test = example(command.split())(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(calls())
@_examples
def test_every_call_exits_0_1_or_2_with_its_outputs_and_no_warning(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = cli.main([*argv, "--out_dir", str(out)])
        if code == 2:
            assert stderr.getvalue().startswith("configuration error: ")
            assert not out.exists() or not any(out.iterdir())
            return
        assert code in (0, 1) and stderr.getvalue() == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert all((out / name).is_file() for name in manifest["outputs"].values())
