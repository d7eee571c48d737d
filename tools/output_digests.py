"""Run a fixed list of stokesdd commands and print one digest line per run.

    python tools/output_digests.py [--src DIR]

Each line is ``name exit_code sha256``, or ``name raised ExceptionName``
when the run raises out of ``cli.main``; the hash covers the run's stdout,
its manifest.json without ``duration_seconds`` and ``config.out_dir`` (the
two entries that vary from one run to the next), and the sorted names and
bytes of the CSV files it wrote.  stderr is not hashed, so the wording of a
refusal may change.  The stokesdd package is imported from DIR (default:
the src/ beside this script), so two checkouts compare with

    diff <(python tools/output_digests.py --src A/src) <(python tools/output_digests.py --src B/src)
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

DD = ["run", "--scheme", "decomposed"]
GROWING = ["run", "--n1", "16", "--n2", "16", "--tau", "0.5", "--t_final", "5", "--decay=-300"]
RUNS = {
    "mono_square": ["run", "--n1", "128", "--n2", "128", "--tau", "0.025", "--t_final", "0.25"],
    "dd_channel": [*DD, "--l1", "4", "--n1", "64", "--n2", "64", "--m", "2", "--overlap", "16", "--tau", "0.025", "--t_final", "0.25"],
    "dd_16_m1": [*DD, "--m", "1", "--overlap", "0"],
    "dd_16_m3": [*DD, "--m", "3", "--overlap", "2"],
    "dd_16_m3_random": [*DD, "--m", "3", "--overlap", "2", "--initial", "random", "--forcing", "none"],
    "dd_43x7_m5": [*DD, "--l1", "2", "--l2", "0.7", "--n1", "43", "--n2", "7", "--m", "5"],
    "dd_64x48_m8": [*DD, "--n1", "64", "--n2", "48", "--m", "8"],
    "dd_2x4_no_interior_row": [*DD, "--n1", "2", "--n2", "4", "--m", "2", "--overlap", "0"],
    "failed_monolithic": GROWING,
    "failed_decomposed": [*GROWING, "--scheme", "decomposed", "--m", "3", "--overlap", "2"],
    "converge": ["converge"],
    "stability_monolithic": ["stability"],
    "stability_decomposed": ["stability", "--scheme", "decomposed"],
    "converge_empty_taus": ["converge", "--taus", ","],
    "stability_empty_taus": ["stability", "--taus", ","],
    "converge_zero_exact": [
        "converge", "--amplitude", "0", "--decay", "1e5", "--taus", "0.1,0.05", "--grids", "8,16",
        "--n1", "8", "--n2", "8", "--t_final", "0.2",
    ],
    "verify": ["verify"],
    "overflowing_decay_monolithic": ["run", "--decay=-1e300", "--t_final", "0.2"],
    "overflowing_decay_decomposed": [*DD, "--decay=-1e300", "--t_final", "0.2"],
    "converge_overflowing_decay": ["converge", "--decay=-1e4"],
    "dd_tiny_l1": [
        *DD, "--l1", "1e-12", "--n1", "8", "--n2", "8", "--m", "2", "--overlap", "1",
        "--initial", "random", "--forcing", "none", "--tau", "0.1", "--t_final", "0.2",
    ],
}


def _manifest_bytes(path: pathlib.Path) -> bytes:
    """manifest.json without the entries that vary between runs, keys sorted; empty if missing."""
    if not path.exists():
        return b""
    manifest = json.loads(path.read_text())
    del manifest["duration_seconds"], manifest["config"]["out_dir"]
    return json.dumps(manifest, sort_keys=True).encode()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, parser.parse_args().src)
    from stokesdd import cli

    for name, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([*argv, "--out_dir", tmp])
            except Exception as exc:
                print(name, "raised", type(exc).__name__)
                continue
            digest = hashlib.sha256(stdout.getvalue().encode() + b"\0")
            digest.update(_manifest_bytes(pathlib.Path(tmp) / "manifest.json") + b"\0")
            for path in sorted(pathlib.Path(tmp).glob("*.csv")):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            print(name, code, digest.hexdigest())


if __name__ == "__main__":
    main()
